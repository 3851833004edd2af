(* Fixture: the sanctioned forms -- the bounded CAS loop (the check and
   the update are one step), an add whose result is compared (the add
   itself is the claim), and a compared read of one atomic followed by
   an add on another.  No findings. *)

let rec reserve active ~cap =
  let n = Atomic.get active in
  if n >= cap then 0
  else if Atomic.compare_and_set active n (n + 1) then n + 1
  else reserve active ~cap

let release active = Atomic.fetch_and_add active (-1) - 1

let take_ticket c ~limit =
  if Atomic.fetch_and_add c 1 < limit then true
  else begin
    Atomic.decr c;
    false
  end

let count_if_running ~stopping ~served =
  if not (Atomic.get stopping = true) then Atomic.incr served
