(* The readiness-multiplexing seam of the reactor, now stateful: the
   poller owns a persistent interest table ([set] mutates it, [wait]
   consults it) instead of being handed a rebuilt interest list every
   round -- the per-round array walk was the wall between one reactor
   and 10k connections.

   Three backends behind one [set]/[wait] pair:

   - [`Epoll] (Linux, the [`Auto] choice there): level-triggered kernel
     registration; [wait] costs O(ready), not O(interest).  Besides
     [set]'s persistent interest it offers [arm]: a one-shot watch
     (EPOLLONESHOT) the kernel disarms when it reports it.  [arm] is
     stateless and thread-safe -- epoll_ctl is -- so a parked fiber arms
     its own watch from its worker while another worker waits.
     Arming re-checks readiness: a watch armed on an already-ready fd is
     reported by the next [wait], so no readiness change between a
     fiber's EAGAIN and its arm is lost.  A closed fd leaves the kernel
     set on its own; MOD on a reused fd number falls back to ADD on
     ENOENT, and ADD falls back to MOD on EEXIST.

   - [`Poll]: the poll(2) C stub -- no FD_SETSIZE ceiling; compact
     interest arrays maintained incrementally (index table +
     swap-remove), so [set] is O(1) and [wait] passes the arrays
     straight to the stub.  Kept as the portable Unix backend and as an
     independent cross-check of epoll in tests.

   - [`Select]: pure [Unix.select]; rejects fds >= FD_SETSIZE (1024)
     but runs anywhere the Unix library does.  Its per-round event
     coalescing reuses one scratch table instead of allocating a fresh
     Hashtbl every wait (the fallback is allocation-light too).

   Semantics shared by all three: [set] interest is level-triggered and
   persistent; [wait] reports events only for current interest;
   error/hang-up conditions count as both-ready so the waiter's next
   syscall surfaces the real errno; [set ~read:false ~write:false]
   drops interest. *)

type backend = [ `Select | `Poll | `Epoll ]

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

(* fds events revents live_count timeout_ms; [live_count] bounds the
   entries poll(2) sees -- the scratch arrays are longer and their tail
   holds stale fds from earlier rounds. *)
external poll_stub :
  int array -> int array -> int array -> int -> int -> int = "ulp_net_poll"

external raise_nofile_stub : int -> int = "ulp_net_raise_nofile"
external has_epoll_stub : unit -> bool = "ulp_net_has_epoll"
external epoll_create_stub : unit -> int = "ulp_net_epoll_create"

(* epfd op fd bits; op 0=ADD 1=MOD 2=DEL; returns 0 ok / 1 ENOENT /
   2 EEXIST / 3 other.  It neither allocates nor raises. *)
external epoll_ctl_stub : int -> int -> int -> int -> int = "ulp_net_epoll_ctl"
  [@@noalloc]

(* epfd out_fds out_revents maxevents timeout_ms -> n ready (-1 EINTR) *)
external epoll_wait_stub :
  int -> int array -> int array -> int -> int -> int = "ulp_net_epoll_wait"

(* Unix.file_descr is the raw fd int on Unix systems. *)
external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

let ev_in = 1
let ev_out = 2
let ev_err = 4
let ev_oneshot = 8
let mask ~read ~write =
  (if read then ev_in else 0) lor if write then ev_out else 0

let epoll_available = has_epoll_stub ()
let raise_nofile want = raise_nofile_stub want

(* ---------------- per-backend state ---------------- *)

type select_state = {
  sel_interest : (int, Unix.file_descr * bool * bool) Hashtbl.t;
  sel_scratch : (int, Unix.file_descr * bool * bool) Hashtbl.t;
      (* reused per-round coalescing table; cleared after each wait *)
}

type poll_state = {
  mutable pfds : int array; (* compact: entries 0..pn-1 are live *)
  mutable pevents : int array;
  mutable previents : int array;
  mutable pn : int;
  pindex : (int, int) Hashtbl.t; (* raw fd -> slot, for O(1) set *)
}

type epoll_state = {
  epfd : int;
  masks : (int, int) Hashtbl.t; (* mirror of [set]: fd -> non-zero mask *)
  mutable efds : int array; (* wait output scratch, grown on saturation *)
  mutable erevents : int array;
}

type repr = Sel of select_state | Pol of poll_state | Epl of epoll_state

type t = { backend : backend; repr : repr; mutable closed : bool }

let create ?(backend = `Auto) () =
  let backend =
    match backend with
    | `Select -> `Select
    | `Poll -> `Poll
    | `Epoll ->
        if epoll_available then `Epoll
        else invalid_arg "Poller.create: epoll unavailable on this platform"
    | `Auto ->
        if epoll_available then `Epoll else if Sys.unix then `Poll else `Select
  in
  let repr =
    match backend with
    | `Select ->
        Sel
          {
            sel_interest = Hashtbl.create 64;
            sel_scratch = Hashtbl.create 64;
          }
    | `Poll ->
        Pol
          {
            pfds = [||];
            pevents = [||];
            previents = [||];
            pn = 0;
            pindex = Hashtbl.create 64;
          }
    | `Epoll ->
        Epl
          {
            epfd = epoll_create_stub ();
            masks = Hashtbl.create 64;
            efds = Array.make 256 0;
            erevents = Array.make 256 0;
          }
  in
  { backend; repr; closed = false }

let backend t = t.backend

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.repr with
    | Epl st -> ( try Unix.close (fd_of_int st.epfd) with Unix.Unix_error _ -> ())
    | Sel _ | Pol _ -> ()
  end

(* ---------------- set: interest maintenance ---------------- *)

let set_select st fd ~read ~write =
  let key = fd_int fd in
  if read || write then Hashtbl.replace st.sel_interest key (fd, read, write)
  else Hashtbl.remove st.sel_interest key

let grow_poll st need =
  if Array.length st.pfds < need then begin
    let cap = max 64 (max need (2 * Array.length st.pfds)) in
    let copy a = Array.init cap (fun i -> if i < st.pn then a.(i) else 0) in
    st.pfds <- copy st.pfds;
    st.pevents <- copy st.pevents;
    st.previents <- Array.make cap 0
  end

let set_poll st fd ~read ~write =
  let key = fd_int fd in
  let mask = mask ~read ~write in
  match Hashtbl.find_opt st.pindex key with
  | Some i ->
      if mask = 0 then begin
        (* swap-remove keeps the live prefix compact *)
        let last = st.pn - 1 in
        Hashtbl.remove st.pindex key;
        if i <> last then begin
          let lfd = st.pfds.(last) in
          st.pfds.(i) <- lfd;
          st.pevents.(i) <- st.pevents.(last);
          Hashtbl.replace st.pindex lfd i
        end;
        st.pn <- last
      end
      else st.pevents.(i) <- mask
  | None ->
      if mask <> 0 then begin
        grow_poll st (st.pn + 1);
        st.pfds.(st.pn) <- key;
        st.pevents.(st.pn) <- mask;
        Hashtbl.replace st.pindex key st.pn;
        st.pn <- st.pn + 1
      end

(* One epoll_ctl, healed against the fd-reuse races: a MOD that finds
   nothing registered becomes an ADD, an ADD that finds a registration
   becomes a MOD.  [false] when the fd is gone (EBADF and friends). *)
let epoll_ctl epfd ~registered key bits =
  let rec ctl op tries =
    match epoll_ctl_stub epfd op key bits with
    | 0 -> true
    | 1 (* ENOENT *) when op = 1 && tries > 0 -> ctl 0 (tries - 1)
    | 2 (* EEXIST *) when op = 0 && tries > 0 -> ctl 1 (tries - 1)
    | _ -> false
  in
  ctl (if registered then 1 else 0) 2

let set_epoll st fd ~read ~write =
  let key = fd_int fd in
  let mask = mask ~read ~write in
  let registered = Hashtbl.mem st.masks key in
  if mask = 0 then begin
    (* DEL, not MOD to an empty mask: the kernel reports hang-up and
       error on any live registration whatever its mask *)
    if registered then ignore (epoll_ctl_stub st.epfd 2 key 0);
    Hashtbl.remove st.masks key
  end
  else if epoll_ctl st.epfd ~registered key mask then
    Hashtbl.replace st.masks key mask
  else Hashtbl.remove st.masks key

let set t fd ~read ~write =
  match t.repr with
  | Sel st -> set_select st fd ~read ~write
  | Pol st -> set_poll st fd ~read ~write
  | Epl st -> set_epoll st fd ~read ~write

(* ---------------- arm: one-shot watches ---------------- *)

let oneshot t = match t.repr with Epl _ -> true | Sel _ | Pol _ -> false

(* Stateless, so any thread may call it: MOD first -- the fd was
   usually armed before and its registration outlives the report --
   and ADD when the kernel has none. *)
let arm t fd ~read ~write =
  match t.repr with
  | Epl st ->
      epoll_ctl st.epfd ~registered:true (fd_int fd)
        (mask ~read ~write lor ev_oneshot)
  | Sel _ | Pol _ -> invalid_arg "Poller.arm: one-shot watches need epoll"

(* ---------------- wait ---------------- *)

let wait_select st ~timeout_ms =
  let rd, wr =
    Hashtbl.fold
      (fun _ (fd, r, w) (rd, wr) ->
        ((if r then fd :: rd else rd), if w then fd :: wr else wr))
      st.sel_interest ([], [])
  in
  let timeout = if timeout_ms < 0 then -1.0 else float_of_int timeout_ms /. 1000.0 in
  (* ulplint: allow blocking-in-fiber -- the poller IS the blocking point: only a parked worker holding the reactor's turn waits here, never a fiber *)
  match Unix.select rd wr [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | ready_r, ready_w, _ ->
      (* coalesce per fd so a read+write-ready socket yields one event;
         the scratch table is reused across rounds (cleared on exit) so
         the fallback backend allocates no table per wait *)
      let tbl = st.sel_scratch in
      let note fd readable writable =
        let key = fd_int fd in
        let r0, w0 =
          match Hashtbl.find_opt tbl key with
          | Some (_, r, w) -> (r, w)
          | None -> (false, false)
        in
        Hashtbl.replace tbl key (fd, r0 || readable, w0 || writable)
      in
      List.iter (fun fd -> note fd true false) ready_r;
      List.iter (fun fd -> note fd false true) ready_w;
      let evs =
        Hashtbl.fold
          (fun _ (fd, readable, writable) acc -> { fd; readable; writable } :: acc)
          tbl []
      in
      Hashtbl.clear tbl;
      evs

let wait_poll st ~timeout_ms =
  (* ulplint: allow blocking-in-fiber -- the poller IS the blocking point: only a parked worker holding the reactor's turn waits here, never a fiber *)
  match poll_stub st.pfds st.pevents st.previents st.pn (max timeout_ms (-1)) with
  | -1 (* EINTR *) | 0 -> []
  | _ ->
      let acc = ref [] in
      for i = 0 to st.pn - 1 do
        let rev = st.previents.(i) in
        if rev <> 0 then
          (* error/hangup counts as both-ready: the waiter's next
             syscall surfaces the actual errno *)
          acc :=
            {
              fd = fd_of_int st.pfds.(i);
              readable = rev land (ev_in lor ev_err) <> 0;
              writable = rev land (ev_out lor ev_err) <> 0;
            }
            :: !acc
      done;
      !acc

let wait_epoll st ~timeout_ms =
  let cap = Array.length st.efds in
  (* ulplint: allow blocking-in-fiber -- the poller IS the blocking point: only a parked worker holding the reactor's turn waits here, never a fiber *)
  match epoll_wait_stub st.epfd st.efds st.erevents cap (max timeout_ms (-1)) with
  | -1 (* EINTR *) -> []
  | n ->
      let acc = ref [] in
      for i = 0 to n - 1 do
        let rev = st.erevents.(i) in
        acc :=
          {
            fd = fd_of_int st.efds.(i);
            readable = rev land (ev_in lor ev_err) <> 0;
            writable = rev land (ev_out lor ev_err) <> 0;
          }
          :: !acc
      done;
      (* saturated output: give the next round more room (events left
         behind stay on the kernel's ready list for the next round) *)
      if n = cap then begin
        st.efds <- Array.make (2 * cap) 0;
        st.erevents <- Array.make (2 * cap) 0
      end;
      !acc

let wait t ~timeout_ms =
  match t.repr with
  | Sel st -> wait_select st ~timeout_ms
  | Pol st -> wait_poll st ~timeout_ms
  | Epl st -> wait_epoll st ~timeout_ms

(* Test/diagnostic hook: the number of fds under [set] interest
   (one-shot [arm]s are not counted). *)
let interest_count t =
  match t.repr with
  | Sel st -> Hashtbl.length st.sel_interest
  | Pol st -> st.pn
  | Epl st -> Hashtbl.length st.masks
