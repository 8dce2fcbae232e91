(* Tests for Sim.Runner: aggregation correctness against a manual
   engine loop, the spread of a failure-free batch, common-random-number
   behaviour, and the allocation cost of the fold itself. *)

module R = Sim.Runner
module E = Sim.Engine
module P = Sim.Policy
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = Fault.Params.make ~lambda:0.002 ~c:10.0 ~r:10.0 ~d:0.0
let horizon = 300.0
let policy = P.equal_segments ~params ~count:2

let traces () =
  T.batch ~dist:(T.Exponential { rate = 0.002 }) ~seed:55L ~n:500

let test_matches_manual_loop () =
  let trace_set = traces () in
  let result = R.evaluate ~params ~horizon ~policy trace_set in
  (* Replay manually: traces are replayable, so the same set can be
     consumed twice. *)
  let manual_work = ref 0.0 and manual_failures = ref 0 in
  Array.iter
    (fun trace ->
      let o = E.run ~params ~horizon ~policy trace in
      manual_work := !manual_work +. o.E.work_saved;
      manual_failures := !manual_failures + o.E.failures)
    trace_set;
  close ~eps:1e-9 "mean work" (!manual_work /. 500.0) result.R.mean_work;
  close ~eps:1e-9 "mean failures"
    (float_of_int !manual_failures /. 500.0)
    result.R.mean_failures;
  Alcotest.(check int) "trace count" 500 result.R.traces;
  Alcotest.(check string) "policy name" "Equal(2)" result.R.policy

let test_degenerate_spread () =
  (* No failures: every trace yields the same proportion. *)
  let quiet = Array.init 20 (fun _ -> T.of_iats [| 1.0e9 |]) in
  let result = R.evaluate ~params ~horizon ~policy quiet in
  let expected = (300.0 -. 20.0) /. (300.0 -. 10.0) in
  let prop = result.R.proportion in
  close "mean" expected prop.Numerics.Stats.mean;
  close "min" expected prop.Numerics.Stats.min;
  close "max" expected prop.Numerics.Stats.max;
  close "zero spread" 0.0 prop.Numerics.Stats.stddev

let test_common_random_numbers () =
  (* Two policies evaluated on the same trace array face identical
     failures: the difference of means has much lower variance than
     independent draws would give. Check determinism of the pairing:
     repeating the evaluation yields bit-identical results. *)
  let trace_set = traces () in
  let a1 = R.evaluate ~params ~horizon ~policy trace_set in
  let better = P.equal_segments ~params ~count:3 in
  let b1 = R.evaluate ~params ~horizon ~policy:better trace_set in
  let a2 = R.evaluate ~params ~horizon ~policy trace_set in
  close ~eps:0.0 "replay identical" a1.R.mean_work a2.R.mean_work;
  (* and the two policies genuinely saw the same failures *)
  close ~eps:0.0 "same failure count across policies" a1.R.mean_failures
    b1.R.mean_failures

let test_empty_rejected () =
  (match R.evaluate ~params ~horizon ~policy [||] with
  | _ -> Alcotest.fail "empty trace set accepted"
  | exception Invalid_argument _ -> ())

(* The fold adds next to nothing to the engine runs it aggregates: its
   minor words beyond [Engine.run]'s own over the same traces must stay
   within a few words per trace. Measured at 6 words per trace (boxed
   floats crossing the calls into the engine and the accumulator); the
   budget leaves that more than twice over. A fold that buffers its
   samples for quantiles costs about 200 words per trace here. Native
   code only: bytecode boxes every float. *)
let test_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let trace_set = traces () in
    let n = Array.length trace_set in
    let words f =
      ignore (Sys.opaque_identity (f ()));
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (f ()));
      Gc.minor_words () -. w0
    in
    let engine =
      words (fun () ->
          Array.iter
            (fun tr ->
              ignore (Sys.opaque_identity (E.run ~params ~horizon ~policy tr)))
            trace_set)
    in
    let fold =
      words (fun () -> R.evaluate ~params ~horizon ~policy trace_set)
    in
    let per_trace = (fold -. engine) /. float_of_int n in
    let budget = 16.0 in
    if per_trace > budget then
      Alcotest.failf "%.1f words per trace beyond Engine.run, budget %.0f"
        per_trace budget
  end

let () =
  Alcotest.run "runner"
    [
      ( "aggregation",
        [
          Alcotest.test_case "matches manual loop" `Quick test_matches_manual_loop;
          Alcotest.test_case "degenerate quantiles" `Quick
            test_degenerate_spread;
          Alcotest.test_case "common random numbers" `Quick
            test_common_random_numbers;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "allocation",
        [ Alcotest.test_case "fold budget" `Quick test_allocation_budget ] );
    ]
