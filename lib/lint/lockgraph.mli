(** The global lock-acquisition-order graph and its cycle rule,
    lock-order-inversion (DESIGN.md section 5i).

    Lock identities are definition sites: only locks that resolve to a
    module-level [let x = Mutex.create ()] (or [Sync.Mutex]) binding
    enter the graph -- "file:line (Qual.name)"
    -- so the rule never conflates two records' [mutex] fields.  Edges
    come from direct nested acquisitions and from calls made with a
    lock held into functions that may (transitively) acquire another;
    each edge that closes a cycle yields one finding at that edge's
    site, with the witness cycle as call-path evidence. *)

type result = {
  findings : Finding.t list;  (** lock-order-inversion; unsorted *)
  locks : int;                (** module-level lock definitions seen *)
  edges : int;                (** distinct acquisition-order edges *)
}

val build : Summary.file_summary list -> result
(** Deterministic in the summary list order (representative edge sites
    and witness cycles included). *)
