(* Deterministic interleaving checker for the lock-free fiber runtime
   ("dscheck-lite").

   The pieces under test -- Atomic_deque, Mpsc_queue, Sync and the rest
   (lib/check/dune lists them) -- are recompiled inside this library
   against traced shims (Atomic, Mutex, Fiber), so every
   synchronization operation funnels through [perform_op] below.  A scenario declares N simulated domains as plain thunks; each
   traced operation suspends its thread on an effect, and this module --
   a single-threaded scheduler -- decides which thread's pending
   operation executes next.  Everything a thread does between two traced
   operations runs atomically with the preceding one, which matches the
   granularity at which OCaml's SC atomics can interleave.

   Exploration is a stateless DFS: one-shot continuations cannot be
   forked, so backtracking re-runs the scenario from scratch, replaying
   the recorded choice prefix and diverging at the deepest frame that
   still has an unexplored alternative.  The partial-order-reduction-lite
   strategy (after Flanagan & Godefroid, minus the vector clocks): when a
   run completes, every pair of steps from different threads whose
   operations CONFLICT (same object, at least one write) inserts a
   backtrack request at the earlier step's decision frame; the DFS only
   branches where a request exists.  Commuting pairs yield equivalent
   traces in either order, so those branches are never requested --
   they are skipped and counted in [stats.pruned].

   On top of the DFS sits a bounded random-schedule fuzzer: every run
   derives its own seed, a failure prints `CHECK_SEED=<n>`, and setting
   that environment variable replays exactly the failing schedule. *)

(* ---------- operations and the conflict relation ---------- *)

type kind =
  | Start (* thread becomes runnable; no memory effect *)
  | Get
  | Set
  | Exchange
  | Cas
  | Faa
  | Lock
  | Unlock
  | Wait (* blocked until a predicate over raw state holds *)

let kind_to_string = function
  | Start -> "start"
  | Get -> "get"
  | Set -> "set"
  | Exchange -> "xchg"
  | Cas -> "cas"
  | Faa -> "faa"
  | Lock -> "lock"
  | Unlock -> "unlock"
  | Wait -> "wait"

type opinfo = { kind : kind; obj : int; note : string }

type step = { s_tid : int; s_op : opinfo }

(* A failed CAS is a read, but we classify conservatively: branching on
   a commuting pair costs schedules, missing a conflicting pair costs
   coverage. *)
let writes = function
  | Set | Exchange | Cas | Faa | Lock | Unlock -> true
  | Start | Get | Wait -> false

(* [obj = 0] is reserved for operations with no memory object. *)
let conflicts a b =
  a.obj <> 0 && a.obj = b.obj && (writes a.kind || writes b.kind)

(* ---------- the engine: threads as effect-suspended computations ----- *)

type _ Effect.t +=
  | Op : opinfo * (unit -> bool) * (unit -> 'a) -> 'a Effect.t

type pending = {
  p_op : opinfo;
  p_enabled : unit -> bool; (* raw reads only; evaluated by the scheduler *)
  p_resume : unit -> unit; (* executes the op, runs to the next op *)
}

type thread = { tid : int; mutable pending : pending option (* None = done *) }

type engine = {
  mutable threads : thread array;
  mutable next_obj : int; (* per-run object ids: deterministic traces *)
  mutable in_thread : bool; (* are we executing simulated-thread code? *)
  mutable trace : step list; (* executed steps, newest first *)
  run : int; (* tells runs apart, for per-thread shim state *)
  mutable current : int; (* the thread whose code is executing *)
}

let engine : engine option ref = ref None

(* Objects created outside any run (discouraged: create scenario state
   inside the setup closure) get negative ids so they never collide
   with per-run ids. *)
let outside_obj = ref 0

let fresh_obj () =
  match !engine with
  | Some e ->
      e.next_obj <- e.next_obj + 1;
      e.next_obj
  | None ->
      decr outside_obj;
      !outside_obj

(* Every traced operation lands here.  Inside a simulated thread it
   becomes a scheduling point; during setup / post-condition checks (or
   if the shims are used entirely outside the checker) it executes
   directly. *)
let perform_op info enabled action =
  match !engine with
  | Some e when e.in_thread -> Effect.perform (Op (info, enabled, action))
  | _ ->
      if not (enabled ()) then
        failwith
          ("Check.Sched: blocking operation ('" ^ kind_to_string info.kind
         ^ "') would deadlock outside a checked thread");
      action ()

let atomic_step ~kind ~obj ~note action =
  perform_op { kind; obj; note } (fun () -> true) action

let guarded_step ~kind ~obj ~note ~enabled action =
  perform_op { kind; obj; note } enabled action

let wait_until ~on pred =
  perform_op { kind = Wait; obj = on; note = "wait" } pred (fun () -> ())

let thread_key () =
  match !engine with
  | Some e when e.in_thread -> Some (e.run, e.current)
  | _ -> None

(* Run a thread body until its first traced operation.  The body is
   prefixed with an explicit Start op so no user code executes before
   the scheduler makes its first choice. *)
let start_thread e t body =
  let open Effect.Deep in
  e.in_thread <- true;
  match_with
    (fun () ->
      Effect.perform
        (Op
           ( { kind = Start; obj = 0; note = "start" },
             (fun () -> true),
             fun () -> () ));
      body ())
    ()
    {
      retc =
        (fun () ->
          t.pending <- None;
          e.in_thread <- false);
      exnc =
        (fun exn ->
          e.in_thread <- false;
          raise exn);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Op (info, enabled, action) ->
              Some
                (fun (k : (b, unit) continuation) ->
                  t.pending <-
                    Some
                      {
                        p_op = info;
                        p_enabled = enabled;
                        p_resume =
                          (fun () ->
                            e.in_thread <- true;
                            e.current <- t.tid;
                            continue k (action ()));
                      };
                  e.in_thread <- false)
          | _ -> None);
    }

(* ---------- one run: replay a prefix, then follow a policy ---------- *)

(* A decision point of the DFS, 1:1 with the executed step at the same
   depth.  [f_backtrack] holds the threads some conflicting pair asked
   us to try here; [f_tried] the ones whose subtrees are explored or in
   progress. *)
type frame = {
  f_enabled : int list;
  mutable f_chosen : int;
  mutable f_tried : int list;
  mutable f_backtrack : int list;
}

(* Growable frame stack (Dynarray is 5.2+; we are on 5.1). *)
type frames = { mutable arr : frame option array; mutable len : int }

let frames_create () = { arr = Array.make 64 None; len = 0 }

let frames_push fs f =
  if fs.len = Array.length fs.arr then begin
    let bigger = Array.make (2 * fs.len) None in
    Array.blit fs.arr 0 bigger 0 fs.len;
    fs.arr <- bigger
  end;
  fs.arr.(fs.len) <- Some f;
  fs.len <- fs.len + 1

let frames_get fs i = Option.get fs.arr.(i)

exception Deadlock of string
exception Too_many_steps of int
exception Nondeterministic of string

type run_end = Completed | Crashed of exn * Printexc.raw_backtrace

(* Runs started so far: numbers each run's engine. *)
let runs = ref 0

(* Execute one full schedule.  Choices below [replay_depth] follow the
   recorded frames; beyond it [choose] picks among enabled threads and
   a fresh frame is pushed.  Returns the executed trace (oldest first)
   and how the run ended. *)
let run_once ~frames ~replay_depth ~max_steps ~choose setup =
  incr runs;
  let e =
    {
      threads = [||];
      next_obj = 0;
      in_thread = false;
      trace = [];
      run = !runs;
      current = -1;
    }
  in
  engine := Some e;
  Fun.protect ~finally:(fun () -> engine := None) @@ fun () ->
  frames.len <- replay_depth;
  let finish end_ = (List.rev e.trace, end_) in
  try
    let bodies, post = setup () in
    let threads =
      Array.of_list (List.mapi (fun i _ -> { tid = i; pending = None }) bodies)
    in
    e.threads <- threads;
    List.iteri (fun i body -> start_thread e threads.(i) body) bodies;
    let depth = ref 0 in
    let rec loop () =
      let unfinished =
        Array.exists (fun t -> t.pending <> None) threads
      in
      if not unfinished then begin
        post ();
        finish Completed
      end
      else begin
        let enabled =
          Array.to_list threads
          |> List.filter_map (fun t ->
                 match t.pending with
                 | Some p when p.p_enabled () -> Some t.tid
                 | _ -> None)
        in
        if enabled = [] then
          raise
            (Deadlock
               (Printf.sprintf "all %d unfinished threads blocked"
                  (Array.fold_left
                     (fun n t -> if t.pending <> None then n + 1 else n)
                     0 threads)));
        if !depth >= max_steps then raise (Too_many_steps !depth);
        let chosen =
          if !depth < replay_depth then begin
            let f = frames_get frames !depth in
            if not (List.mem f.f_chosen enabled) then
              raise
                (Nondeterministic
                   (Printf.sprintf
                      "replay: thread %d not enabled at depth %d (scenario \
                       must be deterministic)"
                      f.f_chosen !depth));
            f.f_chosen
          end
          else begin
            let c = choose !depth enabled in
            frames_push frames
              {
                f_enabled = enabled;
                f_chosen = c;
                f_tried = [ c ];
                f_backtrack = [ c ];
              };
            c
          end
        in
        let t = threads.(chosen) in
        let p = Option.get t.pending in
        e.trace <- { s_tid = chosen; s_op = p.p_op } :: e.trace;
        t.pending <- None;
        p.p_resume ();
        incr depth;
        loop ()
      end
    in
    loop ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    (match exn with Nondeterministic _ -> raise exn | _ -> ());
    finish (Crashed (exn, bt))

(* ---------- public result types ---------- *)

type stats = {
  schedules : int; (* distinct interleavings fully executed *)
  steps : int; (* traced operations executed, all runs *)
  pruned : int; (* commuting alternatives skipped by DPOR-lite *)
  max_depth : int;
  complete : bool; (* false when max_schedules capped the DFS *)
}

type failure = {
  f_reason : string;
  f_trace : step list; (* oldest first *)
  f_schedule : int list; (* thread choice at each depth *)
  f_seed : int option; (* set when found by the fuzzer *)
}

type outcome = Pass of stats | Bug of failure * stats

let schedule_of_frames frames =
  List.init frames.len (fun i -> (frames_get frames i).f_chosen)

let mk_failure ?seed ~frames ~trace exn =
  {
    f_reason = Printexc.to_string exn;
    f_trace = trace;
    f_schedule = schedule_of_frames frames;
    f_seed = seed;
  }

(* ---------- the DFS explorer ---------- *)

let check ?(max_schedules = 20_000) ?(max_steps = 5_000) setup =
  let frames = frames_create () in
  let replay_depth = ref 0 in
  let schedules = ref 0 in
  let steps = ref 0 in
  let pruned = ref 0 in
  let max_depth = ref 0 in
  let stats complete =
    {
      schedules = !schedules;
      steps = !steps;
      pruned = !pruned;
      max_depth = !max_depth;
      complete;
    }
  in
  (* The reduction: walk the executed trace; for each pair of steps
     (i, j) from different threads whose ops conflict, request that
     j's thread be explored at frame i too -- running it before i's
     step is the only reordering that can change the outcome.  If j's
     thread was not enabled at i (e.g. still blocked), conservatively
     request every alternative that was. *)
  let add_backtracks trace =
    let arr = Array.of_list trace in
    for j = 1 to Array.length arr - 1 do
      for i = 0 to j - 1 do
        let a = arr.(i) and b = arr.(j) in
        if a.s_tid <> b.s_tid && conflicts a.s_op b.s_op then begin
          let f = frames_get frames i in
          if List.mem b.s_tid f.f_enabled then begin
            if not (List.mem b.s_tid f.f_backtrack) then
              f.f_backtrack <- b.s_tid :: f.f_backtrack
          end
          else
            List.iter
              (fun t ->
                if not (List.mem t f.f_backtrack) then
                  f.f_backtrack <- t :: f.f_backtrack)
              f.f_enabled
        end
      done
    done
  in
  (* Deepest-first: find the next frame with an unexplored backtrack
     request, discard everything below it, branch there. *)
  let rec backtrack d =
    if d < 0 then None
    else begin
      let f = frames_get frames d in
      match
        List.find_opt (fun t -> not (List.mem t f.f_tried)) f.f_backtrack
      with
      | Some t ->
          f.f_tried <- t :: f.f_tried;
          f.f_chosen <- t;
          Some (d + 1)
      | None ->
          (* alternatives nobody requested commute with what we ran *)
          pruned :=
            !pruned
            + List.length
                (List.filter (fun t -> not (List.mem t f.f_tried)) f.f_enabled);
          backtrack (d - 1)
    end
  in
  let rec explore () =
    let trace, end_ =
      run_once ~frames ~replay_depth:!replay_depth ~max_steps
        ~choose:(fun _ enabled -> List.hd enabled)
        setup
    in
    steps := !steps + List.length trace;
    max_depth := max !max_depth frames.len;
    match end_ with
    | Crashed (exn, _) -> Bug (mk_failure ~frames ~trace exn, stats false)
    | Completed -> (
        incr schedules;
        add_backtracks trace;
        if !schedules >= max_schedules then Pass (stats false)
        else
          match backtrack (frames.len - 1) with
          | None -> Pass (stats true)
          | Some depth ->
              replay_depth := depth;
              explore ())
  in
  explore ()

(* ---------- the random-schedule fuzzer ---------- *)

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17) land max_int

(* splitmix-style derivation so consecutive run indices give unrelated
   streams *)
let derive_seed base i =
  let z = base + ((i + 1) * 0x9e3779b9) in
  let z = (z lxor (z lsr 16)) * 0x85ebca6b land max_int in
  let z = (z lxor (z lsr 13)) * 0xc2b2ae35 land max_int in
  (* 30 bits: keeps CHECK_SEED=<n> short enough to retype *)
  (z lxor (z lsr 16)) land 0x3FFFFFFF

type fuzz_outcome = Fuzz_pass of { runs : int; steps : int } | Fuzz_bug of failure

(* One random schedule, reproducible from [seed] alone. *)
let fuzz_one ?(max_steps = 5_000) ~seed setup =
  let rng = ref (if seed = 0 then 1 else seed) in
  let frames = frames_create () in
  let choose _ enabled =
    rng := xorshift !rng;
    List.nth enabled (!rng mod List.length enabled)
  in
  let trace, end_ =
    run_once ~frames ~replay_depth:0 ~max_steps ~choose setup
  in
  match end_ with
  | Completed -> Ok (List.length trace)
  | Crashed (exn, _) -> Error (mk_failure ~seed ~frames ~trace exn)

(* [runs] random schedules with per-run seeds derived from [seed].  If
   the CHECK_SEED environment variable is set, only that exact schedule
   runs -- the replay path for a failure printed by a previous run. *)
let fuzz ?(runs = 500) ?max_steps ~seed setup =
  match Sys.getenv_opt "CHECK_SEED" with
  | Some s -> (
      let s = int_of_string (String.trim s) in
      match fuzz_one ?max_steps ~seed:s setup with
      | Ok steps -> Fuzz_pass { runs = 1; steps }
      | Error f -> Fuzz_bug f)
  | None ->
      let rec go i steps =
        if i >= runs then Fuzz_pass { runs; steps }
        else
          match fuzz_one ?max_steps ~seed:(derive_seed seed i) setup with
          | Ok n -> go (i + 1) (steps + n)
          | Error f -> Fuzz_bug f
      in
      go 0 0

(* Replay an explicit schedule (e.g. a [f_schedule] from a DFS bug). *)
let replay ~schedule setup =
  let frames = frames_create () in
  let arr = Array.of_list schedule in
  let choose depth enabled =
    if depth < Array.length arr && List.mem arr.(depth) enabled then arr.(depth)
    else List.hd enabled
  in
  let trace, end_ =
    run_once ~frames ~replay_depth:0 ~max_steps:5_000 ~choose setup
  in
  match end_ with
  | Completed -> Ok (List.length trace)
  | Crashed (exn, _) -> Error (mk_failure ~frames ~trace exn)

(* ---------- trace pretty-printing (via lib/report) ---------- *)

let failure_to_string (f : failure) =
  let tbl =
    Report.Table.create ~title:"failing schedule"
      ~headers:[ "#"; "thread"; "op"; "obj"; "note" ]
      ~aligns:Report.Table.[ Right; Right; Left; Right; Left ]
      ()
  in
  List.iteri
    (fun i s ->
      Report.Table.add_row tbl
        [
          string_of_int i;
          string_of_int s.s_tid;
          kind_to_string s.s_op.kind;
          (if s.s_op.obj = 0 then "-" else string_of_int s.s_op.obj);
          s.s_op.note;
        ])
    f.f_trace;
  let b = Buffer.create 1024 in
  Buffer.add_string b ("check failure: " ^ f.f_reason ^ "\n");
  Buffer.add_string b
    ("schedule: "
    ^ String.concat "," (List.map string_of_int f.f_schedule)
    ^ "\n");
  (match f.f_seed with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf "reproduce with: CHECK_SEED=%d (env)\n" s)
  | None -> ());
  Buffer.add_string b (Report.Table.render tbl);
  Buffer.contents b

let print_failure f = print_string (failure_to_string f)

let dump_failure ~file f =
  let oc = open_out file in
  output_string oc (failure_to_string f);
  close_out oc

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d schedules (%s), %d steps, %d commuting branches pruned, max depth %d"
    s.schedules
    (if s.complete then "exhaustive" else "capped")
    s.steps s.pruned s.max_depth
