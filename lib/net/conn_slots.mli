(** The bounded slot counter behind [Tcp_server]'s [max_conns]. *)

val reserve : int Atomic.t -> cap:int -> int
(** Take a slot: move the count from n to n+1 only while n < [cap], in
    one CAS.  The new count, or 0 at capacity. *)

val release : int Atomic.t -> int
(** Give a slot back; the count left. *)
