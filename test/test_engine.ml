(* Tests for Sim.Engine: exact outcomes on hand-crafted failure traces,
   downtime/exposure accounting, the stochastic-checkpoint mode, event
   recording and invariants under random traces. *)

module P = Sim.Policy
module E = Sim.Engine
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = Fault.Params.make ~lambda:0.001 ~c:10.0 ~r:8.0 ~d:5.0
let quiet_trace () = T.of_iats [| 1.0e9 |]

let run ?record ?ckpt_sampler ~policy ~horizon trace =
  E.run ?record ?ckpt_sampler ~params ~horizon ~policy trace

let test_no_failure_single () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 (quiet_trace ()) in
  close "saved all but C" 90.0 outcome.E.work_saved;
  Alcotest.(check int) "one checkpoint" 1 outcome.E.checkpoints;
  Alcotest.(check int) "no failure" 0 outcome.E.failures;
  Alcotest.(check int) "one plan" 1 outcome.E.replans

let test_no_failure_periodic () =
  let policy = P.equal_segments ~params ~count:4 in
  let outcome = run ~policy ~horizon:100.0 (quiet_trace ()) in
  close "saved all but 4C" 60.0 outcome.E.work_saved;
  Alcotest.(check int) "four checkpoints" 4 outcome.E.checkpoints

let test_failure_before_first_ckpt_then_recover () =
  (* Horizon 100, single final checkpoint at 100. Failure at exposed 50:
     everything lost; downtime 5, replan at tleft = 45, new checkpoint
     completes at 45 (including recovery 8): saved 45 - 8 - 10 = 27. *)
  let trace = T.of_iats [| 50.0; 1.0e9 |] in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "saved after recovery" 27.0 outcome.E.work_saved;
  Alcotest.(check int) "one failure" 1 outcome.E.failures;
  Alcotest.(check int) "two plans" 2 outcome.E.replans

let test_failure_too_late_to_recover () =
  (* Failure at 95: tleft after downtime = 0 < R + C: nothing saved. *)
  let trace = T.of_iats [| 95.0; 1.0e9 |] in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "nothing saved" 0.0 outcome.E.work_saved;
  Alcotest.(check int) "one failure" 1 outcome.E.failures

let test_committed_work_survives_failure () =
  (* Two equal segments over 100: checkpoints at 50 and 100. Failure at
     exposed 70 loses only the second segment; replanning at
     tleft = 100 - 70 - 5 = 25 allows one more checkpoint at 25:
     25 - 8 - 10 = 7 more work. Total = (50-10) + 7 = 47. *)
  let trace = T.of_iats [| 70.0; 1.0e9 |] in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome = run ~policy ~horizon:100.0 trace in
  close "first segment plus recovered tail" 47.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints;
  Alcotest.(check int) "one failure" 1 outcome.E.failures

let test_downtime_not_exposed () =
  (* Failures at exposed times 50 and 60. After the first failure the
     clock of the second keeps running only during exposed time, so the
     second failure strikes 10 exposed units into the recovery attempt,
     i.e. at wall 50 + 5 (downtime) + 10 = 65. With single_final, replan
     after second failure: tleft = 100 - 65 - 5 = 30 -> save 30-8-10=12. *)
  let trace = T.of_iats [| 50.0; 10.0; 1.0e9 |] in
  let outcome =
    run ~record:true ~policy:(P.single_final ~params) ~horizon:100.0 trace
  in
  Alcotest.(check int) "two failures" 2 outcome.E.failures;
  close "final work" 12.0 outcome.E.work_saved;
  (* check the wall time of the second failure from the event log *)
  let failure_times =
    List.filter_map
      (function E.Failure { at; _ } -> Some at | _ -> None)
      outcome.E.events
  in
  Alcotest.(check (list (float 1e-9))) "failure wall times" [ 50.0; 65.0 ]
    failure_times

let test_multiple_failures_give_up () =
  (* Failures hammer the execution every 3 exposed units: R + C = 18
     never fits between failures... but the engine must terminate and
     save nothing. *)
  let trace = T.of_iats (Array.make 200 3.0) in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "nothing saved" 0.0 outcome.E.work_saved;
  Alcotest.(check bool) "several failures" true (outcome.E.failures > 3)

let test_events_chronological () =
  let trace = T.of_iats [| 70.0; 1.0e9 |] in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome = run ~record:true ~policy ~horizon:100.0 trace in
  let times =
    List.map
      (function
        | E.Segment_saved { finish; _ } -> finish
        | E.Failure { at; _ } -> at
        | E.Gave_up { at } -> at
        | E.Platform_change { at; _ } -> at
        | E.Prediction { at; _ } -> at)
      outcome.E.events
  in
  let sorted = List.sort compare times in
  Alcotest.(check (list (float 1e-9))) "events in order" sorted times;
  (* and the lost time at the failure is relative to the last commit *)
  (match
     List.find_opt (function E.Failure _ -> true | _ -> false) outcome.E.events
   with
  | Some (E.Failure { lost; _ }) -> close "lost since last commit" 20.0 lost
  | _ -> Alcotest.fail "no failure event")

let test_no_events_without_record () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 (quiet_trace ()) in
  Alcotest.(check int) "no events" 0 (List.length outcome.E.events)

let test_stochastic_checkpoint_shifts () =
  (* Deterministic sampler making every checkpoint 5 units longer: the
     work saved per segment is unchanged, but the completion shifts.
     Equal(2) on 100: planned completions 50 and 100; actual durations 15
     mean the second completion would be 110 > 100: the second segment is
     lost. Saved = first segment work = 50 - 10 = 40. *)
  let sampler () = 15.0 in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome =
    run ~ckpt_sampler:sampler ~policy ~horizon:100.0 (quiet_trace ())
  in
  close "only first segment saved" 40.0 outcome.E.work_saved;
  Alcotest.(check int) "one checkpoint" 1 outcome.E.checkpoints

let test_stochastic_checkpoint_shorter () =
  (* Faster checkpoints do not change committed work (the plan is already
     fixed), but everything still completes. *)
  let sampler () = 5.0 in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome =
    run ~ckpt_sampler:sampler ~policy ~horizon:100.0 (quiet_trace ())
  in
  close "both segments saved" 80.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints

let test_late_failure_downtime_clamped () =
  (* A stochastic checkpoint 30 units over nominal pushes the wall clock
     to 130 for a segment whose failure exposure ends at 130; a failure
     at exposed 120 therefore strikes with wall = 120, past the horizon
     of 100. The downtime share of the breakdown used to pick up
     min(D, horizon - wall) = -20; it must clamp to zero. *)
  let sampler () = params.Fault.Params.c +. 30.0 in
  let trace = T.of_iats [| 120.0; 1.0e9 |] in
  let outcome =
    run ~ckpt_sampler:sampler ~policy:(P.single_final ~params) ~horizon:100.0
      trace
  in
  Alcotest.(check int) "one failure" 1 outcome.E.failures;
  Alcotest.(check bool) "downtime share is nonnegative" true
    (outcome.E.breakdown.E.down >= 0.0);
  close "downtime share is empty" 0.0 outcome.E.breakdown.E.down;
  Alcotest.(check bool) "unused share is nonnegative" true
    (outcome.E.breakdown.E.unused >= 0.0)

let test_proportion_metric () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:110.0 (quiet_trace ()) in
  close "proportion 1" 1.0 (E.proportion_of_work ~params ~horizon:110.0 outcome);
  Alcotest.check_raises "horizon <= c"
    (Invalid_argument "Engine.proportion_of_work: horizon must exceed C")
    (fun () -> ignore (E.proportion_of_work ~params ~horizon:5.0 outcome))

let test_malformed_policy_rejected () =
  let bad = P.make ~name:"bad" (fun ~tleft ~recovering:_ -> [ tleft +. 50.0 ]) in
  match run ~policy:bad ~horizon:100.0 (quiet_trace ()) with
  | _ -> Alcotest.fail "malformed plan accepted"
  | exception Invalid_argument _ -> ()

(* Platform events (malleable platforms) *)

let breakdown_sum (b : E.breakdown) =
  b.E.working +. b.E.checkpointing +. b.E.recovering +. b.E.down +. b.E.lost
  +. b.E.unused

let test_platform_event_interrupts_plan () =
  (* single_final on 100 plans one checkpoint completing at 100; losing
     8 of 16 nodes at wall 40 interrupts it. The static policy has no
     adapt hook, so the engine re-queries the same plan closure: the
     abandoned span [0, 40] lands in unused, the new plan saves
     60 - C = 50. *)
  let platform =
    {
      E.initial = 16;
      events = [ T.Node_lost { at = 40.0; survivors = 8 } ];
    }
  in
  let outcome =
    E.run ~record:true ~platform ~params ~horizon:100.0
      ~policy:(P.single_final ~params) (quiet_trace ())
  in
  close "work saved after the interrupt" 50.0 outcome.E.work_saved;
  Alcotest.(check int) "one platform re-plan" 1 outcome.E.replans_platform;
  Alcotest.(check int) "two plans total" 2 outcome.E.replans;
  close "abandoned span is unused" 40.0 outcome.E.breakdown.E.unused;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  match
    List.find_opt
      (function E.Platform_change _ -> true | _ -> false)
      outcome.E.events
  with
  | Some (E.Platform_change { at; survivors }) ->
      close "event date" 40.0 at;
      Alcotest.(check int) "survivors" 8 survivors
  | _ -> Alcotest.fail "no Platform_change event recorded"

let test_platform_event_degrades_adaptive_policy () =
  (* An adaptive policy's hook must receive the params degraded with
     the scale_platform convention: λ · survivors / initial. *)
  let seen = ref [] in
  let rec adaptive params =
    P.set_adapt (P.single_final ~params) (fun params' ->
        seen := params'.Fault.Params.lambda :: !seen;
        adaptive params')
  in
  let platform =
    {
      E.initial = 16;
      events =
        [
          T.Node_lost { at = 30.0; survivors = 8 };
          T.Node_joined { at = 60.0; survivors = 12 };
        ];
    }
  in
  let outcome =
    E.run ~platform ~params ~horizon:100.0 ~policy:(adaptive params)
      (quiet_trace ())
  in
  Alcotest.(check int) "two platform re-plans" 2 outcome.E.replans_platform;
  Alcotest.(check (list (float 0.0))) "degraded rates, in order"
    [ 0.001 *. 8.0 /. 16.0; 0.001 *. 12.0 /. 16.0 ]
    (List.rev !seen)

let test_platform_empty_events_bit_identical () =
  let trace () = T.of_iats [| 50.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let with_platform =
    E.run
      ~platform:{ E.initial = 16; events = [] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcomes bit-identical" true
    (baseline = with_platform);
  Alcotest.(check int) "no platform re-plan" 0 with_platform.E.replans_platform

let test_platform_event_past_horizon_ignored () =
  let trace () = T.of_iats [| 50.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let with_platform =
    E.run
      ~platform:
        { E.initial = 16; events = [ T.Node_lost { at = 150.0; survivors = 8 } ] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcome unchanged" true (baseline = with_platform);
  Alcotest.(check int) "event never processed" 0
    with_platform.E.replans_platform

let test_platform_event_during_downtime_deferred () =
  (* Failure at wall 50, downtime until 55; the event at 52 must take
     effect at the post-downtime re-plan, not interrupt the downtime.
     The plan and its accounting match the plain recover-after-failure
     case (the policy is static), with one platform re-plan counted. *)
  let trace = T.of_iats [| 50.0; 1.0e9 |] in
  let outcome =
    E.run
      ~platform:
        { E.initial = 16; events = [ T.Node_lost { at = 52.0; survivors = 8 } ] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) trace
  in
  close "saved as in the failure-only case" 27.0 outcome.E.work_saved;
  Alcotest.(check int) "event processed after the downtime" 1
    outcome.E.replans_platform;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

(* Predictions (fault-prediction extension) *)

let accept_all = P.set_on_prediction (P.single_final ~params) (fun ~tleft:_ ~since_commit:_ ~window:_ -> true)

let pred ?(window = 20.0) ?(true_positive = false) at =
  { Fault.Predictor.at; window; true_positive }

let test_prediction_proactive_banks_work () =
  (* Quiet trace, horizon 100, single final checkpoint at 100 (work 90).
     A false alarm at exposed 40 triggers a proactive checkpoint: 40
     units banked, 10 spent checkpointing, re-plan saves 50 - 10 = 40
     more. The proactive commit costs exactly one extra C. *)
  let outcome =
    E.run ~record:true ~predictions:[ pred 40.0 ] ~params ~horizon:100.0
      ~policy:accept_all (quiet_trace ())
  in
  close "banked plus re-planned" 80.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints;
  Alcotest.(check int) "one proactive" 1 outcome.E.proactive_checkpoints;
  Alcotest.(check int) "one false alarm" 1 outcome.E.predictions_false;
  Alcotest.(check int) "no true positive" 0 outcome.E.predictions_true;
  Alcotest.(check int) "re-planned after the commit" 2 outcome.E.replans;
  close "working share" 80.0 outcome.E.breakdown.E.working;
  close "checkpointing share" 20.0 outcome.E.breakdown.E.checkpointing;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  (match outcome.E.events with
  | E.Prediction { at; true_positive } :: E.Segment_saved { work; finish; _ } :: _ ->
      close "fired at 40" 40.0 at;
      Alcotest.(check bool) "false alarm" false true_positive;
      close "banked 40" 40.0 work;
      close "committed at 50" 50.0 finish
  | _ -> Alcotest.fail "expected Prediction then Segment_saved")

let test_prediction_averts_failure () =
  (* Failure at exposed 60, announced at 45 (window 15, true positive).
     Unpredicted single-final loses everything at 60 and salvages
     35 - R - C = 17. Predicted: bank 45 at the firing date, lose only
     the 5 units since that commit, then the same 17-unit tail. *)
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  close "unpredicted salvage" 17.0 baseline.E.work_saved;
  let outcome =
    E.run
      ~predictions:[ pred ~window:15.0 ~true_positive:true 45.0 ]
      ~params ~horizon:100.0 ~policy:accept_all (trace ())
  in
  close "banked before the fault" 62.0 outcome.E.work_saved;
  Alcotest.(check int) "one true positive" 1 outcome.E.predictions_true;
  Alcotest.(check int) "one proactive" 1 outcome.E.proactive_checkpoints;
  Alcotest.(check int) "still one failure" 1 outcome.E.failures;
  close "only the post-commit span is lost" 5.0 outcome.E.breakdown.E.lost;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

let test_prediction_failure_during_proactive_ckpt () =
  (* Announced too late: the proactive checkpoint starting at 55 needs
     C = 10 but the fault lands at 60. Everything since the last commit
     is lost, exactly as in the unpredicted run, and the incomplete
     proactive checkpoint counts nowhere. *)
  let trace = T.of_iats [| 60.0; 1.0e9 |] in
  let outcome =
    E.run
      ~predictions:[ pred ~window:5.0 ~true_positive:true 55.0 ]
      ~params ~horizon:100.0 ~policy:accept_all trace
  in
  close "same salvage as unpredicted" 17.0 outcome.E.work_saved;
  Alcotest.(check int) "true positive still counted" 1 outcome.E.predictions_true;
  Alcotest.(check int) "no proactive checkpoint completed" 0
    outcome.E.proactive_checkpoints;
  Alcotest.(check int) "one checkpoint (the tail)" 1 outcome.E.checkpoints;
  close "whole span since start lost" 60.0 outcome.E.breakdown.E.lost;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

let test_prediction_ignored_is_free () =
  (* A policy without the hook must replay the unpredicted run to the
     last bit on timing, work and breakdown; only the prediction
     counters (and recorded events) register the fired stream. *)
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let ignored =
    E.run
      ~predictions:[ pred ~true_positive:true 20.0; pred 40.0 ]
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "work bit-identical" true
    (Float.equal baseline.E.work_saved ignored.E.work_saved);
  Alcotest.(check bool) "breakdown bit-identical" true
    (baseline.E.breakdown = ignored.E.breakdown);
  Alcotest.(check int) "checkpoints unchanged" baseline.E.checkpoints
    ignored.E.checkpoints;
  Alcotest.(check int) "replans unchanged" baseline.E.replans ignored.E.replans;
  Alcotest.(check int) "no proactive checkpoint" 0 ignored.E.proactive_checkpoints;
  Alcotest.(check int) "fired true positive counted" 1 ignored.E.predictions_true;
  Alcotest.(check int) "fired false alarm counted" 1 ignored.E.predictions_false

let test_prediction_none_and_empty_bit_identical () =
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let empty =
    E.run ~predictions:[] ~params ~horizon:100.0
      ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcomes structurally equal" true (baseline = empty);
  (* An empty stream is also free for a hooked policy. *)
  let hooked =
    E.run ~predictions:[] ~params ~horizon:100.0 ~policy:accept_all (trace ())
  in
  Alcotest.(check bool) "hooked policy, empty stream" true (baseline = hooked)

let test_prediction_proactive_c () =
  (* A cheap proactive checkpoint (Cp = 2 < C) banks the same work for
     less: 40 banked, 2 spent, re-plan saves 58 - 10 = 48. *)
  let outcome =
    E.run ~predictions:[ pred 40.0 ] ~proactive_c:2.0 ~params ~horizon:100.0
      ~policy:accept_all (quiet_trace ())
  in
  close "cheaper commit" 88.0 outcome.E.work_saved;
  close "checkpointing share" 12.0 outcome.E.breakdown.E.checkpointing;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  Alcotest.check_raises "Cp > C rejected"
    (Invalid_argument "Engine.run: proactive_c must be finite in [0, C]")
    (fun () ->
      ignore
        (E.run ~predictions:[] ~proactive_c:20.0 ~params ~horizon:100.0
           ~policy:accept_all (quiet_trace ())))

let test_prediction_window_hook_decides () =
  (* proactive-window-style hook: accept only tight windows. A wide
     window is ignored at zero cost; a narrow one is taken. *)
  let selective w0 =
    P.set_on_prediction (P.single_final ~params)
      (fun ~tleft:_ ~since_commit:_ ~window -> window <= w0)
  in
  let wide =
    E.run ~predictions:[ pred ~window:50.0 40.0 ] ~params ~horizon:100.0
      ~policy:(selective 30.0) (quiet_trace ())
  in
  close "wide window ignored" 90.0 wide.E.work_saved;
  Alcotest.(check int) "no proactive" 0 wide.E.proactive_checkpoints;
  let narrow =
    E.run ~predictions:[ pred ~window:20.0 40.0 ] ~params ~horizon:100.0
      ~policy:(selective 30.0) (quiet_trace ())
  in
  close "narrow window taken" 80.0 narrow.E.work_saved;
  Alcotest.(check int) "one proactive" 1 narrow.E.proactive_checkpoints

(* Bit-identity oracle: a seeded matrix of scenarios whose every outcome
   field and recorded event is pinned, bit for bit, to values captured
   from the engine before its step-loop rewrite. Floats are compared
   through [Int64.bits_of_float]; the recorded events of a run are
   pinned by their count and the MD5 of their bit-level rendering, so
   any change in an event's kind, order, date or work shows up. *)

let oracle_params = Fault.Params.make ~lambda:0.005 ~c:20.0 ~r:10.0 ~d:5.0
let oracle_horizon = 1500.0
let oracle_traces = 4

let hex x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let render_event = function
  | E.Segment_saved { start; finish; work } ->
      Printf.sprintf "S%s,%s,%s" (hex start) (hex finish) (hex work)
  | E.Failure { at; lost } -> Printf.sprintf "F%s,%s" (hex at) (hex lost)
  | E.Gave_up { at } -> Printf.sprintf "G%s" (hex at)
  | E.Platform_change { at; survivors } ->
      Printf.sprintf "P%s,%d" (hex at) survivors
  | E.Prediction { at; true_positive } ->
      Printf.sprintf "R%s,%b" (hex at) true_positive

let render_outcome (o : E.outcome) =
  let b = o.E.breakdown in
  let events = String.concat ";" (List.map render_event o.E.events) in
  Printf.sprintf "%s %d %d %d %d %d %d %d %s %s %s %s %s %s %d:%s"
    (hex o.E.work_saved) o.E.checkpoints o.E.failures o.E.replans
    o.E.replans_platform o.E.predictions_true o.E.predictions_false
    o.E.proactive_checkpoints (hex b.E.working) (hex b.E.checkpointing)
    (hex b.E.recovering) (hex b.E.down) (hex b.E.lost) (hex b.E.unused)
    (List.length o.E.events)
    (Digest.to_hex (Digest.string events))

(* One reservation input: the failure trace plus the optional platform
   schedule and prediction stream replayed against it. *)
type oracle_input = {
  trace : T.t;
  platform : E.platform option;
  predictions : Fault.Predictor.event list option;
}

let oracle_inputs kind =
  let params = oracle_params and horizon = oracle_horizon in
  let lambda = params.Fault.Params.lambda in
  List.init oracle_traces (fun i ->
      let seed = Int64.of_int (7_919 * (i + 1)) in
      match kind with
      | `Plain ->
          {
            trace = T.create ~dist:(T.Exponential { rate = lambda }) ~seed;
            platform = None;
            predictions = None;
          }
      | `Platform ->
          let model =
            { T.nodes = 8; spares = 2; loss_prob = 0.5; rejoin_delay = 100.0 }
          in
          let trace, events =
            T.platform ~model ~rate:lambda ~d:params.Fault.Params.d ~horizon
              ~seed
          in
          { trace; platform = Some { E.initial = 8; events }; predictions = None }
      | `Predicted ->
          let trace = T.create ~dist:(T.Exponential { rate = lambda }) ~seed in
          (* Alternate tight windows (trusted by proactive-window) with
             wide ones (ignored), so both hook answers are exercised. *)
          let w = if i mod 2 = 0 then 30.0 else 120.0 in
          let predictions =
            Fault.Predictor.events
              ~params:{ Fault.Predictor.p = 0.6; r = 0.8; w }
              ~rate:lambda ~horizon ~seed:(Int64.add seed 1L) trace
          in
          { trace; platform = None; predictions = Some predictions })

let oracle_policies () =
  let params = oracle_params and horizon = oracle_horizon in
  [
    ("YoungDaly", `Plain, Core.Policies.young_daly ~params);
    ("FirstOrder", `Plain, Core.Policies.first_order ~params ~horizon);
    ( "NumericalOptimum",
      `Plain,
      Core.Policies.numerical_optimum ~params ~horizon );
    ( "DP",
      `Plain,
      Core.Policies.dynamic_programming ~params ~quantum:1.0 ~horizon () );
    ( "AdaptiveYoungDaly",
      `Platform,
      Core.Policies.adaptive Core.Policies.young_daly ~params );
    ( "ProactiveWindow",
      `Predicted,
      P.set_on_prediction
        (Core.Policies.dynamic_programming ~params ~quantum:1.0 ~horizon ())
        (fun ~tleft:_ ~since_commit:_ ~window -> window <= 60.0) );
  ]

(* Every scenario of the matrix with its rendered outcome, in order. *)
let oracle_run () =
  let params = oracle_params and horizon = oracle_horizon in
  List.concat_map
    (fun (name, kind, policy) ->
      let inputs = oracle_inputs kind in
      List.concat_map
        (fun erlang ->
          List.concat_map
            (fun record ->
              let ckpt_sampler =
                if erlang then begin
                  let rng = Numerics.Rng.create ~seed:42L in
                  Some
                    (fun () ->
                      Numerics.Rng.gamma_int rng ~shape:3
                        ~scale:(params.Fault.Params.c /. 3.0))
                end
                else None
              in
              List.mapi
                (fun i inp ->
                  let o =
                    E.run ~record ?ckpt_sampler ?platform:inp.platform
                      ?predictions:inp.predictions ~params ~horizon ~policy
                      inp.trace
                  in
                  ( Printf.sprintf "%s/%s/%s/%d" name
                      (if erlang then "erlang" else "fixed")
                      (if record then "record" else "quiet")
                      i,
                    render_outcome o ))
                inputs)
            [ false; true ])
        [ false; true ])
    (oracle_policies ())

let oracle_expected =
  [
    ("YoungDaly/fixed/quiet/0",
     "408680dbbd73b4f6 9 12 13 0 0 0 0 408680dbbd73b4f6 4066800000000000 404e000000000000 404e000000000000 407dfe4885189616 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/fixed/quiet/1",
     "408bf36ae31d6e46 10 6 6 0 0 0 0 408bf36ae31d6e46 4069000000000000 403e000000000000 403e000000000000 407592560af1cd2b 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/fixed/quiet/2",
     "40875fe56557d8b0 9 12 13 0 0 0 0 40875fe56557d8b0 4066800000000000 4044000000000000 404e000000000000 407d803535504ea2 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/fixed/quiet/3",
     "408f9172866ba6a5 12 4 5 0 0 0 0 408f9172866ba6a5 406e000000000000 403e000000000000 4034000000000000 4068fa35e651656c 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/fixed/record/0",
     "408680dbbd73b4f6 9 12 13 0 0 0 0 408680dbbd73b4f6 4066800000000000 404e000000000000 404e000000000000 407dfe4885189616 0 21:bd37784c59c359f571e065ca4781f1a1");
    ("YoungDaly/fixed/record/1",
     "408bf36ae31d6e46 10 6 6 0 0 0 0 408bf36ae31d6e46 4069000000000000 403e000000000000 403e000000000000 407592560af1cd2b 3fdb50bb4d592000 16:fe239dbf999b664028e9296d5380d0f7");
    ("YoungDaly/fixed/record/2",
     "40875fe56557d8b0 9 12 13 0 0 0 0 40875fe56557d8b0 4066800000000000 4044000000000000 404e000000000000 407d803535504ea2 0 21:65dd82d94d0e1dcd46da2eb8a1b80d1a");
    ("YoungDaly/fixed/record/3",
     "408f9172866ba6a5 12 4 5 0 0 0 0 408f9172866ba6a5 406e000000000000 403e000000000000 4034000000000000 4068fa35e651656c 0 16:9c869d16443cc2a646832e016f11b397");
    ("YoungDaly/erlang/quiet/0",
     "40865c55827df1d2 8 12 13 0 0 0 0 40865c55827df1d2 40636b155c0b5082 4049000000000000 404e000000000000 407e48bdd712edcf 40414863af5c3260 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/erlang/quiet/1",
     "408bf36ae31d6e46 10 6 6 0 0 0 0 408bf36ae31d6e46 4069f5e73421fdc6 403e000000000000 403e000000000000 4075176270e0ce48 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/erlang/quiet/2",
     "40865c55827df1d2 8 12 13 0 0 0 0 40865c55827df1d2 4060c9136aa4e749 4044000000000000 404e000000000000 407f3f75e175c102 40491aab21df3dc0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/erlang/quiet/3",
     "408ebef5936d2c80 11 4 5 0 0 0 0 408ebef5936d2c80 406a172cd951280e 403e000000000000 4034000000000000 406bbad82346c228 4041c892d6cd8f20 0:d41d8cd98f00b204e9800998ecf8427e");
    ("YoungDaly/erlang/record/0",
     "40865c55827df1d2 8 12 13 0 0 0 0 40865c55827df1d2 40636b155c0b5082 4049000000000000 404e000000000000 407e48bdd712edcf 40414863af5c3260 21:d81655a2d648a158eeb482a42e8072d9");
    ("YoungDaly/erlang/record/1",
     "408bf36ae31d6e46 10 6 6 0 0 0 0 408bf36ae31d6e46 4069f5e73421fdc6 403e000000000000 403e000000000000 4075176270e0ce48 3fdb50bb4d592000 16:393aec2f716d634dc3f5bd06319fb256");
    ("YoungDaly/erlang/record/2",
     "40865c55827df1d2 8 12 13 0 0 0 0 40865c55827df1d2 4060c9136aa4e749 4044000000000000 404e000000000000 407f3f75e175c102 40491aab21df3dc0 21:565a5ef666fe2512c73a9a5942221c09");
    ("YoungDaly/erlang/record/3",
     "408ebef5936d2c80 11 4 5 0 0 0 0 408ebef5936d2c80 406a172cd951280e 403e000000000000 4034000000000000 406bbad82346c228 4041c892d6cd8f20 16:b08751a70bee1e34ecb1c45bb4e8e0dd");
    ("FirstOrder/fixed/quiet/0",
     "4087a4382c15c995 12 12 13 0 0 0 0 4087a4382c15c995 406e000000000000 4051800000000000 404e000000000000 4077578fa7d46cd3 3d50000000000000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/fixed/quiet/1",
     "408c353e58af611a 13 6 6 0 0 0 0 408c353e58af611a 4070400000000000 403e000000000000 403e000000000000 40714eaf1fcde78a 3fdb50bb4d590000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/fixed/quiet/2",
     "408645620ac37943 11 12 13 0 0 0 0 408645620ac37943 406b800000000000 4044000000000000 404dffffffffffe0 407d353bea790d7c 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/fixed/quiet/3",
     "408e94d56c4d1f55 14 4 5 0 0 0 0 408e94d56c4d1f55 4071800000000000 403e000000000000 4034000000000000 4067ecaa4ecb82a8 3d50000000000000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/fixed/record/0",
     "4087a4382c15c995 12 12 13 0 0 0 0 4087a4382c15c995 406e000000000000 4051800000000000 404e000000000000 4077578fa7d46cd3 3d50000000000000 24:c46831b90bbad5ff0b29ff7e6d209761");
    ("FirstOrder/fixed/record/1",
     "408c353e58af611a 13 6 6 0 0 0 0 408c353e58af611a 4070400000000000 403e000000000000 403e000000000000 40714eaf1fcde78a 3fdb50bb4d590000 19:71628195b21f25e192db21f1ba93a955");
    ("FirstOrder/fixed/record/2",
     "408645620ac37943 11 12 13 0 0 0 0 408645620ac37943 406b800000000000 4044000000000000 404dffffffffffe0 407d353bea790d7c 0 23:82ac215e82825cec82e12cf281af36fb");
    ("FirstOrder/fixed/record/3",
     "408e94d56c4d1f55 14 4 5 0 0 0 0 408e94d56c4d1f55 4071800000000000 403e000000000000 4034000000000000 4067ecaa4ecb82a8 3d50000000000000 18:8659c8415c1b7a929c86ebc5f76f5f0a");
    ("FirstOrder/erlang/quiet/0",
     "40858a111b66d277 11 12 13 0 0 0 0 40858a111b66d277 406e1741583e6bfb 404e000000000000 404e000000000000 407c110ac384f56d 3fee64b31c5f5000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/erlang/quiet/1",
     "408c353e58af611a 13 6 6 0 0 0 0 408c353e58af611a 406e09be177e290d 403e000000000000 403e000000000000 407289d0140ed301 3fdb50bb4d591000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/erlang/quiet/2",
     "408645620ac37943 11 12 13 0 0 0 0 408645620ac37943 4067ac97ba8f07f8 4044000000000000 404e000000000000 407eb8ab0743ce53 401991417b6ecb00 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/erlang/quiet/3",
     "408a25ac496fd03e 12 4 5 0 0 0 0 408a25ac496fd03e 4071ff6442675c51 403e000000000000 4034000000000000 406e1d7d2665bd94 40551a125e1891a0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("FirstOrder/erlang/record/0",
     "40858a111b66d277 11 12 13 0 0 0 0 40858a111b66d277 406e1741583e6bfb 404e000000000000 404e000000000000 407c110ac384f56d 3fee64b31c5f5000 23:a0408e5854b1ae8ea76f70c52ccb6fc1");
    ("FirstOrder/erlang/record/1",
     "408c353e58af611a 13 6 6 0 0 0 0 408c353e58af611a 406e09be177e290d 403e000000000000 403e000000000000 407289d0140ed301 3fdb50bb4d591000 19:2a578e4fc3f88a99f08b338348bee515");
    ("FirstOrder/erlang/record/2",
     "408645620ac37943 11 12 13 0 0 0 0 408645620ac37943 4067ac97ba8f07f8 4044000000000000 404e000000000000 407eb8ab0743ce53 401991417b6ecb00 23:1abb5744facf54c7a71968a15c55d69b");
    ("FirstOrder/erlang/record/3",
     "408a25ac496fd03e 12 4 5 0 0 0 0 408a25ac496fd03e 4071ff6442675c51 403e000000000000 4034000000000000 406e1d7d2665bd94 40551a125e1891a0 17:40d9e61947f692ab6c24ceb2be9a25c1");
    ("NumericalOptimum/fixed/quiet/0",
     "40876dbab10c22bb 11 12 13 0 0 0 0 40876dbab10c22bb 406b800000000000 4051800000000000 404e000000000000 4079048a9de7ba88 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/fixed/quiet/1",
     "408bfa8cb8e60442 12 6 6 0 0 0 0 408bfa8cb8e60442 406e000000000000 403e000000000000 403e000000000000 407304125f60a135 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/fixed/quiet/2",
     "408693783bbc50aa 10 12 13 0 0 0 0 408693783bbc50aa 4069000000000000 4044000000000000 404e000000000000 407dd90f88875ea6 3d60000000000000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/fixed/quiet/3",
     "408e0bc070f50902 13 4 5 0 0 0 0 408e0bc070f50902 4070400000000000 403e000000000000 4034000000000000 406c90fe3c2bdbf4 0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/fixed/record/0",
     "40876dbab10c22bb 11 12 13 0 0 0 0 40876dbab10c22bb 406b800000000000 4051800000000000 404e000000000000 4079048a9de7ba88 0 23:14f873637289cbb455c7df08ee990c50");
    ("NumericalOptimum/fixed/record/1",
     "408bfa8cb8e60442 12 6 6 0 0 0 0 408bfa8cb8e60442 406e000000000000 403e000000000000 403e000000000000 407304125f60a135 3fdb50bb4d592000 18:5452433fb7b5d3293871b8c0b4d532eb");
    ("NumericalOptimum/fixed/record/2",
     "408693783bbc50aa 10 12 13 0 0 0 0 408693783bbc50aa 4069000000000000 4044000000000000 404e000000000000 407dd90f88875ea6 3d60000000000000 22:3bf129d1bfaa67f22cd4af2d835406f8");
    ("NumericalOptimum/fixed/record/3",
     "408e0bc070f50902 13 4 5 0 0 0 0 408e0bc070f50902 4070400000000000 403e000000000000 4034000000000000 406c90fe3c2bdbf4 0 17:388955bec9d1fb1eb37c55f4326010de");
    ("NumericalOptimum/erlang/quiet/0",
     "40876dbab10c22bb 11 12 13 0 0 0 0 40876dbab10c22bb 406b42608156ffc4 4051800000000000 404e000000000000 4079142803ae0b00 3fee64b31c5f5000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/erlang/quiet/1",
     "408e7fe671eb428e 13 6 6 0 0 0 0 408e7fe671eb428e 406e09be177e290d 403e000000000000 403e000000000000 406be8ffc32e2036 3fdb50bb4d590000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/erlang/quiet/2",
     "408693783bbc50ac 10 12 13 0 0 0 0 408693783bbc50ac 40649907fe16141f 4044000000000000 404e000000000000 407f09cf9ce6b520 40302bbec959f780 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/erlang/quiet/3",
     "408bbe792ff99bcd 12 4 5 0 0 0 0 408bbe792ff99bcd 407101b0fc2cb145 403e000000000000 4034000000000000 4069d15070ef5d68 4054e2d1ada1a1b0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("NumericalOptimum/erlang/record/0",
     "40876dbab10c22bb 11 12 13 0 0 0 0 40876dbab10c22bb 406b42608156ffc4 4051800000000000 404e000000000000 4079142803ae0b00 3fee64b31c5f5000 23:a94caf722b0a9d879ed34a9b96af179c");
    ("NumericalOptimum/erlang/record/1",
     "408e7fe671eb428e 13 6 6 0 0 0 0 408e7fe671eb428e 406e09be177e290d 403e000000000000 403e000000000000 406be8ffc32e2036 3fdb50bb4d590000 19:6564265a82efaf1a84f42084a5d5e38e");
    ("NumericalOptimum/erlang/record/2",
     "408693783bbc50ac 10 12 13 0 0 0 0 408693783bbc50ac 40649907fe16141f 4044000000000000 404e000000000000 407f09cf9ce6b520 40302bbec959f780 22:2fae0296dac65862ce69daa7369b8e7a");
    ("NumericalOptimum/erlang/record/3",
     "408bbe792ff99bcd 12 4 5 0 0 0 0 408bbe792ff99bcd 407101b0fc2cb145 403e000000000000 4034000000000000 4069d15070ef5d68 4054e2d1ada1a1b0 17:75136dc7e5087b762167e2e38952fd39");
    ("DP/fixed/quiet/0",
     "4087800000000000 11 12 13 0 0 0 0 4087800000000000 406b800000000000 4051800000000000 404e000000000000 4078d6f38a1479b8 3fe218ebd70c9000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/fixed/quiet/1",
     "408c300000000000 12 6 6 0 0 0 0 408c300000000000 406e000000000000 403e000000000000 403e000000000000 4072992bd12ca9b9 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/fixed/quiet/2",
     "4086d80000000000 10 12 13 0 0 0 0 4086d80000000000 4069000000000000 4044000000000000 404e000000000000 407d41cad9acb5ce 3fec6a4ca6946000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/fixed/quiet/3",
     "408eb80000000000 13 4 5 0 0 0 0 408eb80000000000 4070400000000000 403e000000000000 4034000000000000 4069cb8bf0492cb0 3fe4740fb6d35000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/fixed/record/0",
     "4087800000000000 11 12 13 0 0 0 0 4087800000000000 406b800000000000 4051800000000000 404e000000000000 4078d6f38a1479b8 3fe218ebd70c9000 23:8343415962b809a180696343f536c703");
    ("DP/fixed/record/1",
     "408c300000000000 12 6 6 0 0 0 0 408c300000000000 406e000000000000 403e000000000000 403e000000000000 4072992bd12ca9b9 3fdb50bb4d592000 18:c2e251c4273a9a33530f0d8d129c2b10");
    ("DP/fixed/record/2",
     "4086d80000000000 10 12 13 0 0 0 0 4086d80000000000 4069000000000000 4044000000000000 404e000000000000 407d41cad9acb5ce 3fec6a4ca6946000 22:9e1c1f15ea22e2b6558f4f299b59ddcc");
    ("DP/fixed/record/3",
     "408eb80000000000 13 4 5 0 0 0 0 408eb80000000000 4070400000000000 403e000000000000 4034000000000000 4069cb8bf0492cb0 3fe4740fb6d35000 17:322231e3a6baa0c7b860de830ce63be1");
    ("DP/erlang/quiet/0",
     "4087800000000000 11 12 13 0 0 0 0 4087800000000000 406b42608156ffc4 4051800000000000 404e000000000000 4078e690efdaca2a 3ff83ecf79b5f800 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/erlang/quiet/1",
     "408e980000000000 13 6 6 0 0 0 0 408e980000000000 406e09be177e290d 403e000000000000 403e000000000000 406b88998adb2a62 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/erlang/quiet/2",
     "4086d80000000000 10 12 13 0 0 0 0 4086d80000000000 40649907fe16141f 4044000000000000 404e000000000000 407e728aee0c0c47 40310f112e8e9a80 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/erlang/quiet/3",
     "408c800000000000 12 4 5 0 0 0 0 408c800000000000 407101b0fc2cb145 403e000000000000 4034000000000000 40670bde250cae24 4054617fc533dea0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("DP/erlang/record/0",
     "4087800000000000 11 12 13 0 0 0 0 4087800000000000 406b42608156ffc4 4051800000000000 404e000000000000 4078e690efdaca2a 3ff83ecf79b5f800 23:b18d39d7107f50e78c3b1f3bf81725fd");
    ("DP/erlang/record/1",
     "408e980000000000 13 6 6 0 0 0 0 408e980000000000 406e09be177e290d 403e000000000000 403e000000000000 406b88998adb2a62 3fdb50bb4d592000 19:d436163e66cf9128c277807bd60931e9");
    ("DP/erlang/record/2",
     "4086d80000000000 10 12 13 0 0 0 0 4086d80000000000 40649907fe16141f 4044000000000000 404e000000000000 407e728aee0c0c47 40310f112e8e9a80 22:54ecf486c2a1e21a7f8a78493e7128d3");
    ("DP/erlang/record/3",
     "408c800000000000 12 4 5 0 0 0 0 408c800000000000 407101b0fc2cb145 403e000000000000 4034000000000000 40670bde250cae24 4054617fc533dea0 17:bb98b2d8e513a10d1f8ca70e47024438");
    ("AdaptiveYoungDaly/fixed/quiet/0",
     "408581684ec75405 7 7 10 6 0 0 0 408581684ec75405 4061800000000000 403e000000000000 4041800000000000 40796d2f627157f7 4069000000000000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/fixed/quiet/1",
     "4083c232633d4ba0 7 9 11 5 0 0 0 4083c232633d4ba0 4061800000000000 403e000000000000 4046800000000000 407aa2c671429b6a 406c51a990859ab0 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/fixed/quiet/2",
     "4080720adf3a4233 5 12 14 7 0 0 0 4080720adf3a4233 4059000000000000 403e000000000000 404e000000000000 4082b05f13458908 406736583600d310 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/fixed/quiet/3",
     "40873e0f06838ff1 9 5 8 6 0 0 0 40873e0f06838ff1 4066800000000000 403e000000000000 4039000000000000 407413e1f2f8e01e 4069000000000000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/fixed/record/0",
     "408581684ec75405 7 7 10 6 0 0 0 408581684ec75405 4061800000000000 403e000000000000 4041800000000000 40796d2f627157f7 4069000000000000 20:ceead6d3e1912731fac114f040671eac");
    ("AdaptiveYoungDaly/fixed/record/1",
     "4083c232633d4ba0 7 9 11 5 0 0 0 4083c232633d4ba0 4061800000000000 403e000000000000 4046800000000000 407aa2c671429b6a 406c51a990859ab0 21:ceb8ab232d9c985783addd1e993faf90");
    ("AdaptiveYoungDaly/fixed/record/2",
     "4080720adf3a4233 5 12 14 7 0 0 0 4080720adf3a4233 4059000000000000 403e000000000000 404e000000000000 4082b05f13458908 406736583600d310 24:43e0ca563f81b95fb502d93512d07650");
    ("AdaptiveYoungDaly/fixed/record/3",
     "40873e0f06838ff1 9 5 8 6 0 0 0 40873e0f06838ff1 4066800000000000 403e000000000000 4039000000000000 407413e1f2f8e01e 4069000000000000 20:7f66a3e67fdf318f98fecb448601581c");
    ("AdaptiveYoungDaly/erlang/quiet/0",
     "408581684ec75405 7 7 10 6 0 0 0 408581684ec75405 40624aae08a0fc08 403e000000000000 4041800000000000 40783345084ad7ee 406aa926abac0408 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/erlang/quiet/1",
     "4083c232633d4ba0 7 9 11 5 0 0 0 4083c232633d4ba0 405951fbb42b02ac 403e000000000000 4046800000000000 407d0e478437dac0 406c51a990859aa8 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/erlang/quiet/2",
     "4080720adf3a4233 5 12 14 7 0 0 0 4080720adf3a4233 40601c93eb0a5f23 403e000000000000 404e000000000000 4081c93a1882f13f 406736583600d310 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/erlang/quiet/3",
     "40865c55827df1d1 8 5 8 6 0 0 0 40865c55827df1d1 406222e874335a5b 4034000000000000 4039000000000000 4075026db8df32ee 40702373080b3c40 0:d41d8cd98f00b204e9800998ecf8427e");
    ("AdaptiveYoungDaly/erlang/record/0",
     "408581684ec75405 7 7 10 6 0 0 0 408581684ec75405 40624aae08a0fc08 403e000000000000 4041800000000000 40783345084ad7ee 406aa926abac0408 20:c74e33ffcbb7713c6190b059b0f84ef7");
    ("AdaptiveYoungDaly/erlang/record/1",
     "4083c232633d4ba0 7 9 11 5 0 0 0 4083c232633d4ba0 405951fbb42b02ac 403e000000000000 4046800000000000 407d0e478437dac0 406c51a990859aa8 21:f44a2c69103ca2753be0d53d50872c78");
    ("AdaptiveYoungDaly/erlang/record/2",
     "4080720adf3a4233 5 12 14 7 0 0 0 4080720adf3a4233 40601c93eb0a5f23 403e000000000000 404e000000000000 4081c93a1882f13f 406736583600d310 24:532d80a1ff7ce91fd5d18c31851dafe0");
    ("AdaptiveYoungDaly/erlang/record/3",
     "40865c55827df1d1 8 5 8 6 0 0 0 40865c55827df1d1 406222e874335a5b 4034000000000000 4039000000000000 4075026db8df32ee 40702373080b3c40 20:3eb4cb8a203a563e342c81ed1e3884d6");
    ("ProactiveWindow/fixed/quiet/0",
     "40888421970931ed 18 12 22 0 9 3 9 40888421970931ed 4076800000000000 4051800000000000 404e000000000000 406c1d60b8042bbc 3fe218ebd70c9000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/fixed/quiet/1",
     "408c300000000000 12 6 6 0 4 5 0 408c300000000000 406e000000000000 403e000000000000 403e000000000000 4072992bd12ca9b9 3fdb50bb4d592000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/fixed/quiet/2",
     "4088f2b310209e93 16 12 20 0 10 2 7 4088f2b310209e93 4074000000000000 404e000000000000 404e000000000000 40704c64b96b78a8 3fec6a4ca6946000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/fixed/quiet/3",
     "408eb80000000000 13 4 5 0 3 2 0 408eb80000000000 4070400000000000 403e000000000000 4034000000000000 4069cb8bf0492cb0 3fe4740fb6d35000 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/fixed/record/0",
     "40888421970931ed 18 12 22 0 9 3 9 40888421970931ed 4076800000000000 4051800000000000 404e000000000000 406c1d60b8042bbc 3fe218ebd70c9000 42:1d4801b60e035cbff8da6d5cf47fed26");
    ("ProactiveWindow/fixed/record/1",
     "408c300000000000 12 6 6 0 4 5 0 408c300000000000 406e000000000000 403e000000000000 403e000000000000 4072992bd12ca9b9 3fdb50bb4d592000 27:c1cf13e8c6e09a582c8109041fc6803b");
    ("ProactiveWindow/fixed/record/2",
     "4088f2b310209e93 16 12 20 0 10 2 7 4088f2b310209e93 4074000000000000 404e000000000000 404e000000000000 40704c64b96b78a8 3fec6a4ca6946000 40:264f44a1ab6c0c74c1dd360382a4bead");
    ("ProactiveWindow/fixed/record/3",
     "408eb80000000000 13 4 5 0 3 2 0 408eb80000000000 4070400000000000 403e000000000000 4034000000000000 4069cb8bf0492cb0 3fe4740fb6d35000 22:3fed054fc329c0424c499bacf573b70c");
    ("ProactiveWindow/erlang/quiet/0",
     "4087a0b2072c2aa2 16 12 22 0 9 3 9 4087a0b2072c2aa2 407579facdd66e79 4051800000000000 404e000000000000 406c1d60b8042bbc 4046af863e793340 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/erlang/quiet/1",
     "408c400000000000 13 5 6 0 4 5 0 408c400000000000 4073a51075abef37 4044000000000000 4039000000000000 4069bb1cd4ad145a 4025ac23ffb0d380 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/erlang/quiet/2",
     "4089f58cb2a86ca5 16 12 20 0 10 2 7 4089f58cb2a86ca5 4070e241887b802f 404e000000000000 404e000000000000 40704c64b96b78a8 403264058c82de00 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/erlang/quiet/3",
     "408eb80000000000 13 4 5 0 3 2 0 408eb80000000000 40716b5d08bd2be4 403e000000000000 4034000000000000 406604c968e31004 402847c85a298300 0:d41d8cd98f00b204e9800998ecf8427e");
    ("ProactiveWindow/erlang/record/0",
     "4087a0b2072c2aa2 16 12 22 0 9 3 9 4087a0b2072c2aa2 407579facdd66e79 4051800000000000 404e000000000000 406c1d60b8042bbc 4046af863e793340 40:073073e0f94ce6a21d3060af73eaff25");
    ("ProactiveWindow/erlang/record/1",
     "408c400000000000 13 5 6 0 4 5 0 408c400000000000 4073a51075abef37 4044000000000000 4039000000000000 4069bb1cd4ad145a 4025ac23ffb0d380 27:6a86abe91136864fda0c38c089eee36b");
    ("ProactiveWindow/erlang/record/2",
     "4089f58cb2a86ca5 16 12 20 0 10 2 7 4089f58cb2a86ca5 4070e241887b802f 404e000000000000 404e000000000000 40704c64b96b78a8 403264058c82de00 40:63a59b99e99a2fe24da61fb35919c10c");
    ("ProactiveWindow/erlang/record/3",
     "408eb80000000000 13 4 5 0 3 2 0 408eb80000000000 40716b5d08bd2be4 403e000000000000 4034000000000000 406604c968e31004 402847c85a298300 22:c18802c1aecb8cbe4502445f488af6f9");
  ]

let test_oracle_bit_identical () =
  let actual = oracle_run () in
  Alcotest.(check int) "scenario count" (List.length oracle_expected)
    (List.length actual);
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "scenario order" name name';
      Alcotest.(check string) name want got)
    oracle_expected actual

(* Allocation budget of the hot path: with a policy whose plan is
   prebuilt and event recording off, a run allocates only a few words per
   re-plan (the boxed [tleft] handed to the policy) and per failure (the
   trace cursor's next date, the downtime clip), plus its fixed state and
   outcome records. A closure or a boxed float per segment or per step
   would blow the budget many times over. Native code only: bytecode
   boxes every float. *)
let test_hot_path_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let plan = [ 30.0; 60.0; 90.0; 120.0 ] in
    let policy =
      P.make ~name:"prebuilt" (fun ~tleft ~recovering:_ ->
          if tleft >= 120.0 then plan else [])
    in
    let trace =
      T.of_iats
        (Array.init 64 (fun i -> 7.0 +. (float_of_int (i mod 5) *. 11.0)))
    in
    let horizon = 1000.0 in
    let once () = E.run ~params ~horizon ~policy trace in
    let outcome = once () in
    let runs = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (once ()))
    done;
    let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
    let steps =
      outcome.E.replans + outcome.E.failures + outcome.E.checkpoints
    in
    Alcotest.(check bool) "the run has failures and commits" true
      (outcome.E.failures > 10 && outcome.E.checkpoints > 5);
    let budget = 64.0 +. (8.0 *. float_of_int steps) in
    if per_run > budget then
      Alcotest.failf "%.0f words per run, budget %.0f (%d steps)" per_run
        budget steps
  end

(* Invariants under random traces and policies. *)

let qcheck_tests =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* horizon = float_range 20.0 2000.0 in
      let* count = int_range 1 8 in
      return (seed, horizon, count))
  in
  let arb =
    QCheck.make gen ~print:(fun (s, h, k) ->
        Printf.sprintf "seed=%d horizon=%g count=%d" s h k)
  in
  let outcome_of (seed, horizon, count) policy =
    let trace =
      T.create
        ~dist:(T.Exponential { rate = 0.002 })
        ~seed:(Int64.of_int seed)
    in
    E.run ~params ~horizon ~policy:(policy count) trace
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"work saved within bounds" ~count:1000 arb
         (fun ((_, horizon, _) as case) ->
           let outcome =
             outcome_of case (fun count -> P.equal_segments ~params ~count)
           in
           outcome.E.work_saved >= 0.0
           && outcome.E.work_saved
              <= P.max_work ~params ~tleft:horizon ~recovering:false +. 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"periodic policy also within bounds" ~count:500
         arb
         (fun ((_, horizon, _) as case) ->
           let outcome =
             outcome_of case (fun count ->
                 P.periodic ~params ~period:(10.0 *. float_of_int count))
           in
           outcome.E.work_saved >= 0.0
           && outcome.E.work_saved
              <= P.max_work ~params ~tleft:horizon ~recovering:false +. 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"same trace, same outcome (replay)" ~count:300
         arb
         (fun ((seed, horizon, count) as _case) ->
           let trace () =
             T.create
               ~dist:(T.Exponential { rate = 0.002 })
               ~seed:(Int64.of_int seed)
           in
           let policy = P.equal_segments ~params ~count in
           let o1 = E.run ~params ~horizon ~policy (trace ()) in
           let o2 = E.run ~params ~horizon ~policy (trace ()) in
           o1.E.work_saved = o2.E.work_saved
           && o1.E.failures = o2.E.failures));
    (let gen =
       QCheck.Gen.(
         let* seed = int_bound 1_000_000 in
         let* horizon = float_range 20.0 2000.0 in
         let* count = int_range 1 8 in
         let* n_events = int_bound 5 in
         let* dates =
           list_repeat n_events (float_range 0.0 (1.2 *. horizon))
         in
         let* survivors = list_repeat n_events (int_range 1 20) in
         let* adaptive = bool in
         let events =
           List.map2
             (fun at survivors -> T.Node_lost { at; survivors })
             (List.sort compare dates)
             survivors
         in
         return (seed, horizon, count, events, adaptive))
     in
     let arb =
       QCheck.make gen ~print:(fun (s, h, k, evs, a) ->
           Printf.sprintf "seed=%d horizon=%g count=%d events=[%s] adaptive=%b"
             s h k
             (String.concat "; "
                (List.map
                   (fun e ->
                     Printf.sprintf "%g->%d" (T.event_at e)
                       (T.event_survivors e))
                   evs))
             a)
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make
          ~name:"breakdown sums to horizon under platform events" ~count:500
          arb
          (fun (seed, horizon, count, events, adaptive) ->
            let trace =
              T.create
                ~dist:(T.Exponential { rate = 0.002 })
                ~seed:(Int64.of_int seed)
            in
            let rec adaptive_policy params =
              P.set_adapt
                (P.equal_segments ~params ~count)
                (fun params' -> adaptive_policy params')
            in
            let policy =
              if adaptive then adaptive_policy params
              else P.equal_segments ~params ~count
            in
            let outcome =
              E.run
                ~platform:{ E.initial = 16; events }
                ~params ~horizon ~policy trace
            in
            let b = outcome.E.breakdown in
            Float.abs (breakdown_sum b -. horizon) <= 1e-6 *. horizon
            && b.E.working >= 0.0 && b.E.checkpointing >= 0.0
            && b.E.recovering >= 0.0 && b.E.down >= 0.0 && b.E.lost >= 0.0
            && b.E.unused >= 0.0)));
    (let gen =
       QCheck.Gen.(
         let* seed = int_bound 1_000_000 in
         let* horizon = float_range 20.0 2000.0 in
         let* count = int_range 1 8 in
         let* n_preds = int_bound 6 in
         let* dates =
           list_repeat n_preds (float_range 0.0 (1.2 *. horizon))
         in
         let* windows = list_repeat n_preds (float_range 0.0 50.0) in
         let* tps = list_repeat n_preds bool in
         let* hooked = bool in
         let* cp = float_range 0.0 params.Fault.Params.c in
         let preds =
           List.map2
             (fun (at, window) true_positive ->
               { Fault.Predictor.at; window; true_positive })
             (List.combine (List.sort compare dates) windows)
             tps
         in
         return (seed, horizon, count, preds, hooked, cp))
     in
     let arb =
       QCheck.make gen ~print:(fun (s, h, k, preds, hooked, cp) ->
           Printf.sprintf
             "seed=%d horizon=%g count=%d preds=[%s] hooked=%b cp=%g" s h k
             (String.concat "; "
                (List.map
                   (fun e ->
                     Printf.sprintf "%g(w=%g,%b)" e.Fault.Predictor.at
                       e.Fault.Predictor.window e.Fault.Predictor.true_positive)
                   preds))
             hooked cp)
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make
          ~name:"breakdown sums to horizon under random prediction schedules"
          ~count:500 arb
          (fun (seed, horizon, count, preds, hooked, cp) ->
            let trace =
              T.create
                ~dist:(T.Exponential { rate = 0.002 })
                ~seed:(Int64.of_int seed)
            in
            let base = P.equal_segments ~params ~count in
            let policy =
              if hooked then
                P.set_on_prediction base
                  (fun ~tleft:_ ~since_commit:_ ~window -> window <= 25.0)
              else base
            in
            let outcome =
              E.run ~predictions:preds ~proactive_c:cp ~params ~horizon
                ~policy trace
            in
            let b = outcome.E.breakdown in
            Float.abs (breakdown_sum b -. horizon) <= 1e-6 *. horizon
            && b.E.working >= 0.0 && b.E.checkpointing >= 0.0
            && b.E.recovering >= 0.0 && b.E.down >= 0.0 && b.E.lost >= 0.0
            && b.E.unused >= 0.0
            && outcome.E.proactive_checkpoints <= outcome.E.checkpoints
            && outcome.E.predictions_true + outcome.E.predictions_false
               <= List.length preds)));
  ]

let () =
  Alcotest.run "engine"
    [
      ( "failure-free",
        [
          Alcotest.test_case "single checkpoint" `Quick test_no_failure_single;
          Alcotest.test_case "equal segments" `Quick test_no_failure_periodic;
        ] );
      ( "failures",
        [
          Alcotest.test_case "recover after losing everything" `Quick
            test_failure_before_first_ckpt_then_recover;
          Alcotest.test_case "failure too late to recover" `Quick
            test_failure_too_late_to_recover;
          Alcotest.test_case "committed work survives" `Quick
            test_committed_work_survives_failure;
          Alcotest.test_case "downtime is not exposed" `Quick
            test_downtime_not_exposed;
          Alcotest.test_case "give up under hammering" `Quick
            test_multiple_failures_give_up;
        ] );
      ( "events",
        [
          Alcotest.test_case "chronological" `Quick test_events_chronological;
          Alcotest.test_case "off by default" `Quick test_no_events_without_record;
        ] );
      ( "stochastic checkpoints",
        [
          Alcotest.test_case "overrun loses the tail" `Quick
            test_stochastic_checkpoint_shifts;
          Alcotest.test_case "late failure clamps downtime" `Quick
            test_late_failure_downtime_clamped;
          Alcotest.test_case "shorter checkpoints keep the plan" `Quick
            test_stochastic_checkpoint_shorter;
        ] );
      ( "platform events",
        [
          Alcotest.test_case "event interrupts the plan" `Quick
            test_platform_event_interrupts_plan;
          Alcotest.test_case "adaptive policy gets degraded params" `Quick
            test_platform_event_degrades_adaptive_policy;
          Alcotest.test_case "empty events are bit-identical" `Quick
            test_platform_empty_events_bit_identical;
          Alcotest.test_case "event past horizon ignored" `Quick
            test_platform_event_past_horizon_ignored;
          Alcotest.test_case "event during downtime deferred" `Quick
            test_platform_event_during_downtime_deferred;
        ] );
      ( "predictions",
        [
          Alcotest.test_case "proactive checkpoint banks work" `Quick
            test_prediction_proactive_banks_work;
          Alcotest.test_case "true positive averts a failure" `Quick
            test_prediction_averts_failure;
          Alcotest.test_case "failure during the proactive checkpoint" `Quick
            test_prediction_failure_during_proactive_ckpt;
          Alcotest.test_case "ignored predictions are free" `Quick
            test_prediction_ignored_is_free;
          Alcotest.test_case "absent and empty streams bit-identical" `Quick
            test_prediction_none_and_empty_bit_identical;
          Alcotest.test_case "cheap proactive checkpoints" `Quick
            test_prediction_proactive_c;
          Alcotest.test_case "window hook decides" `Quick
            test_prediction_window_hook_decides;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "proportion of work" `Quick test_proportion_metric;
          Alcotest.test_case "malformed policies rejected" `Quick
            test_malformed_policy_rejected;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "seeded matrix bit-identical" `Quick
            test_oracle_bit_identical;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "hot path budget" `Quick
            test_hot_path_allocation_budget;
        ] );
      ("properties", qcheck_tests);
    ]
