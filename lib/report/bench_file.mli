(** The BENCH_*.json files: one engine for every bench suite.

    A suite declares its schema tag and file, its row sections (each
    keyed by some of its columns), each column's kind and rows-table
    header, which columns [--diff] compares in which direction and
    below which ratio one fails, and the checks {!validate} enforces.
    Files print through {!Json.print}: one row per line. *)

type suite

val file : suite -> string
(** The file the suite writes, relative to the working directory. *)

val print_rows : suite -> Json.t -> unit
(** One table per section, from the columns that declare a header. *)

type verdict =
  | Pass
  | Warn of string list  (** gated drops on a 1-core host: report only *)
  | Regressed of string list  (** gated drops: the caller fails *)

val diff :
  suite -> cores:int -> old:Json.t -> Json.t -> (verdict, string) result
(** Prints one table per section with metrics: each new row that [old]
    also has (matched on the section's keys), old and new values, and
    a ratio oriented so > 1 is better now.  [cores] is the host's core
    count.  [Error] when [old] is not a file of this suite's schema. *)

val validate : suite -> Json.t -> (string, string) result
(** The schema tag, every section non-empty, every declared column
    present with its kind (numbers finite and >= 0) in every row, then
    the suite's checks.  [Ok] carries a one-line summary, [Error] the
    first violation. *)

(** [ulp-pip/parallel-bench/v4]: [results] and [speedups] keyed by
    [name] and [domains]; [median_s] is report-only and [speedup_vs_1]
    fails [diff] below 0.8x old. *)
module Parallel : sig
  type result = {
    name : string;
    domains : int;
    oversubscribed : bool;  (** measured: active_workers_p50 > cores *)
    items : int;
    reps : int;
    median_s : float;
    p99_s : float;
    median_throughput_per_s : float;
    steals : int;
    steal_fail_rate : float;
    parks : int;
    wakes : int;
    inj_drains : int;
    active_workers_p50 : int;
  }

  val suite : suite

  val doc : host_cores:int -> quick:bool -> warmup:int -> result list -> Json.t
  (** [speedups] are derived: the domains=1 median over each row's. *)
end

(** [ulp-pip/net-bench/v2]: [results] keyed by [backend] and
    [connections]; [req_per_s] (requests / elapsed) and [p99_s] are
    report-only. *)
module Net : sig
  type result = {
    backend : string;
    shards : int;
    connections : int;
    reqs_per_conn : int;
    requests : int;
    elapsed_s : float;  (** the timed request phase only *)
    p50_s : float;
    p99_s : float;
    max_s : float;
    accepted : int;
    max_active : int;
  }

  val suite : suite

  val select_conn_cap : int
  (** The select backend's connection ceiling (FD_SETSIZE), and a
      select-only file's connection floor. *)

  val doc :
    host_cores:int -> quick:bool -> backend:string -> shards:int ->
    msg_bytes:int -> fd_baseline:int option -> fd_after:int option ->
    result list -> Json.t
end
