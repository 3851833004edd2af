(* Checks that fibers on several domains can make.

   [Alcotest.check] prints through one shared Format state, which is
   not domain-safe: called from fibers on two domains at once it raised
   [Queue.Empty] out of [Fiber.run_parallel].  A fiber records its
   mismatch here instead, and the root fiber (or the code after the
   run) reports them all through Alcotest with {!report}.

   (Shared by all test executables in the directory; no top-level
   effects.) *)

type t = string list Atomic.t

let create () : t = Atomic.make []

let rec note (t : t) msg =
  let cur = Atomic.get t in
  if not (Atomic.compare_and_set t cur (msg :: cur)) then note t msg

(* Record a mismatch of [expected] and [actual]; never prints. *)
let check t testable name expected actual =
  if not (Alcotest.equal testable expected actual) then
    note t
      (Format.asprintf "%s: expected %a, got %a" name (Alcotest.pp testable)
         expected (Alcotest.pp testable) actual)

(* Fail the test with every recorded mismatch.  Call it from one
   domain only: the root fiber, or after the run. *)
let report (t : t) =
  match List.rev (Atomic.get t) with
  | [] -> ()
  | ms -> Alcotest.failf "%s" (String.concat "; " ms)
