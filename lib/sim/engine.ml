type event =
  | Segment_saved of { start : float; finish : float; work : float }
  | Failure of { at : float; lost : float }
  | Gave_up of { at : float }
  | Platform_change of { at : float; survivors : int }
  | Prediction of { at : float; true_positive : bool }

type platform = { initial : int; events : Fault.Trace.platform_event list }

type breakdown = {
  working : float;
  checkpointing : float;
  recovering : float;
  down : float;
  lost : float;
  unused : float;
}

type outcome = {
  work_saved : float;
  checkpoints : int;
  failures : int;
  replans : int;
  replans_platform : int;
  predictions_true : int;
  predictions_false : int;
  proactive_checkpoints : int;
  breakdown : breakdown;
  events : event list;
}

(* The engine keeps two clocks:
   - [wall]: elapsed reservation time;
   - [exposed]: elapsed failure-exposed time (wall minus downtimes).
   Failure dates from the trace cursor live on the exposed clock, so a
   failure never strikes during a downtime, as the model requires.
   Platform events live on the wall clock: one that lands inside a
   downtime window takes effect at the re-plan that follows it.
   Predicted events live on the exposed clock like the failures they
   announce: a prediction cannot fire during a downtime.

   The run state is split by representation so that no update
   allocates: every float lives in one all-float record, which OCaml
   stores flat (unboxed), and every counter and flag in one record of
   immediates. The step functions below take these records, never a
   float, so calling them boxes nothing either. *)
type clocks = {
  horizon : float;
  c : float;  (** nominal checkpoint duration *)
  r : float;
  d : float;
  cp : float;  (** proactive checkpoint duration *)
  mutable wall : float;
  mutable exposed : float;
  mutable committed : float;  (** wall date of the last commit *)
  mutable saved : float;  (** breakdown: committed work *)
  mutable ckpt : float;  (** breakdown: completed checkpoints *)
  mutable recov : float;  (** breakdown: completed recoveries *)
  mutable down : float;  (** breakdown: downtime *)
  mutable lost : float;  (** breakdown: destroyed by failures *)
  mutable plan_start : float;  (** wall date the live plan was drawn at *)
  mutable first_overhead : float;  (** recovery opening the live plan *)
  mutable prev_off : float;  (** completion offset of the previous segment *)
  mutable shift : float;
      (** deviation of the actual checkpoint durations from the nominal
          C so far in the plan (stochastic-checkpoint mode; zero
          otherwise) *)
  mutable actual_c : float;  (** drawn duration of the in-flight checkpoint *)
  mutable seg_len : float;  (** actual length of the in-flight segment *)
  mutable completion : float;  (** wall date its checkpoint completes *)
  mutable work : float;  (** work the next {!commit} banks *)
}

type counters = {
  mutable ckpts : int;
  mutable fails : int;
  mutable replans : int;
  mutable replans_platform : int;
  mutable preds_true : int;
  mutable preds_false : int;
  mutable proactive : int;
  mutable recovering : bool;  (** the next plan starts with a recovery *)
  mutable first : bool;  (** the in-flight segment opens its plan *)
}

(* Where the step loop stands: drawing a plan, opening the next segment
   of the live plan, or racing the in-flight segment against the next
   failure, platform event and prediction. *)
type phase = Plan | Segment | Attempt | Done

(* The one failure step: the trace's next failure strikes now, destroying
   everything since the last commit; the downtime follows. Returns
   whether the reservation is over (no room left for a recovery and a
   checkpoint). *)
let fail s n cur ~record events =
  let fail_e = Fault.Trace.next_failure_exposed cur in
  let delta = fail_e -. s.exposed in
  s.wall <- s.wall +. delta;
  s.exposed <- fail_e;
  Fault.Trace.consume cur;
  n.fails <- n.fails + 1;
  let lost = s.wall -. s.committed in
  s.lost <- s.lost +. lost;
  if record then events := Failure { at = s.wall; lost } :: !events;
  (* A stochastic-checkpoint shift can push [wall] past the horizon
     before the failure strikes; the downtime share is then empty, not
     negative. *)
  s.down <- s.down +. Float.max 0.0 (Float.min s.d (s.horizon -. s.wall));
  s.wall <- s.wall +. s.d;
  n.recovering <- true;
  s.horizon -. s.wall < s.r +. s.c

(* The one commit step: a checkpoint completes now, banking [s.work].
   A segment checkpoint ([proactive = false]) closes the in-flight
   segment; a proactive one lasts [cp] from the instant its prediction
   fired. Both commit the plan's opening recovery with them. *)
let commit s n ~proactive ~record events =
  let len = if proactive then s.cp else s.seg_len in
  s.saved <- s.saved +. s.work;
  s.ckpt <- s.ckpt +. (if proactive then s.cp else s.actual_c);
  if n.first then begin
    (* The recovery (if any) is committed with the first checkpoint: a
       plan started by a later platform event continues from here
       without re-recovering. *)
    s.recov <- s.recov +. s.first_overhead;
    n.recovering <- false;
    n.first <- false
  end;
  n.ckpts <- n.ckpts + 1;
  if proactive then n.proactive <- n.proactive + 1;
  s.wall <- s.wall +. len;
  s.exposed <- s.exposed +. len;
  if record then begin
    let start = if proactive then s.committed else s.wall -. len in
    events := Segment_saved { start; finish = s.wall; work = s.work } :: !events
  end;
  s.committed <- s.wall

let run ?(record = false) ?ckpt_sampler ?platform ?predictions ?proactive_c
    ~params ~horizon ~policy trace =
  if horizon < 0.0 then invalid_arg "Engine.run: negative horizon";
  let c = params.Fault.Params.c
  and r = params.Fault.Params.r
  and d = params.Fault.Params.d in
  let cp =
    match proactive_c with
    | None -> c
    | Some v ->
        if not (Float.is_finite v) || v < 0.0 || v > c then
          invalid_arg "Engine.run: proactive_c must be finite in [0, C]";
        v
  in
  let initial =
    match platform with
    | None -> 1
    | Some p ->
        if p.initial < 1 then invalid_arg "Engine.run: platform initial < 1";
        Fault.Trace.validate_platform_events p.events;
        p.initial
  in
  (* Events at or past the horizon can never re-plan anything. *)
  let pending =
    ref
      (match platform with
      | None -> []
      | Some p ->
          List.filter (fun e -> Fault.Trace.event_at e < horizon) p.events)
  in
  (* Like platform events: predictions at or past the horizon can never
     matter (the fault they announce cannot strike inside the run). *)
  let pq =
    ref
      (match predictions with
      | None -> []
      | Some evs ->
          Fault.Predictor.validate_events evs;
          List.filter
            (fun (ev : Fault.Predictor.event) -> ev.Fault.Predictor.at < horizon)
            evs)
  in
  let cur = Fault.Trace.cursor trace in
  let s =
    {
      horizon; c; r; d; cp;
      wall = 0.0; exposed = 0.0; committed = 0.0;
      saved = 0.0; ckpt = 0.0; recov = 0.0; down = 0.0; lost = 0.0;
      plan_start = 0.0; first_overhead = 0.0; prev_off = 0.0; shift = 0.0;
      actual_c = 0.0; seg_len = 0.0; completion = 0.0; work = 0.0;
    }
  in
  let n =
    {
      ckpts = 0; fails = 0; replans = 0; replans_platform = 0;
      preds_true = 0; preds_false = 0; proactive = 0;
      recovering = false; first = false;
    }
  in
  let events = ref [] in
  let cur_policy = ref policy in
  let segs = ref [] in
  let phase = ref Plan in
  while !phase <> Done do
    match !phase with
    | Plan -> (
        (* Platform events due by now (including any that landed during
           the last downtime) take effect before the next plan is drawn:
           the params are degraded to the surviving node count and an
           adaptive policy re-compiles itself against them. *)
        let due = ref true in
        while !due do
          match !pending with
          | e :: rest when Fault.Trace.event_at e <= s.wall ->
              pending := rest;
              let survivors = Fault.Trace.event_survivors e in
              n.replans_platform <- n.replans_platform + 1;
              if record then
                events :=
                  Platform_change { at = Fault.Trace.event_at e; survivors }
                  :: !events;
              (match !cur_policy.Policy.adapt with
              | Some f ->
                  cur_policy :=
                    f (Fault.Params.degrade params ~initial ~survivors)
              | None -> ())
          | _ -> due := false
        done;
        let tleft = horizon -. s.wall in
        let plan = !cur_policy.Policy.plan ~tleft ~recovering:n.recovering in
        n.replans <- n.replans + 1;
        Policy.validate_plan ~params ~tleft ~recovering:n.recovering plan;
        match plan with
        | [] ->
            if record then events := Gave_up { at = s.wall } :: !events;
            phase := Done
        | _ ->
            s.plan_start <- s.wall;
            s.committed <- s.wall;
            s.first_overhead <- (if n.recovering then r else 0.0);
            s.prev_off <- 0.0;
            s.shift <- 0.0;
            n.first <- true;
            segs := plan;
            phase := Segment)
    | Segment -> (
        match !segs with
        | [] ->
            (* The plan completed in full. *)
            phase := Done
        | off :: rest ->
            segs := rest;
            let nominal_len = off -. s.prev_off in
            let actual_c =
              match ckpt_sampler with None -> c | Some f -> f ()
            in
            let shift' = s.shift +. (actual_c -. c) in
            s.actual_c <- actual_c;
            s.seg_len <- nominal_len +. (shift' -. s.shift);
            s.completion <- s.plan_start +. off +. shift';
            s.prev_off <- off;
            s.shift <- shift';
            phase := Attempt)
    | Attempt ->
        (* The next-event step: the in-flight checkpoint's completion
           races the next failure, the next platform event and the next
           prediction. Ignored predictions cost no time, so the step
           then repeats with the same clocks and the same drawn
           checkpoint duration until something observable happens. *)
        let fail_e = Fault.Trace.next_failure_exposed cur in
        let fail_wall = s.wall +. (fail_e -. s.exposed) in
        let next_event_wall =
          match !pending with
          | [] -> infinity
          | e :: _ -> Fault.Trace.event_at e
        in
        (* An overdue prediction (announced before the clocks got here,
           e.g. clamped to 0 or landed inside a downtime) fires
           immediately. *)
        let pred_e =
          match !pq with
          | [] -> infinity
          | ev :: _ -> Float.max ev.Fault.Predictor.at s.exposed
        in
        let pred_wall = s.wall +. (pred_e -. s.exposed) in
        if
          next_event_wall < fail_wall
          && next_event_wall < s.completion
          && next_event_wall <= pred_wall
        then begin
          (* A platform event interrupts the plan before this checkpoint
             completes (and before the next failure): advance both
             clocks to the event and re-plan, which consumes it. The
             in-flight span since the last commit is abandoned — it
             lands in the [unused] share. *)
          let delta = Float.max 0.0 (next_event_wall -. s.wall) in
          s.wall <- s.wall +. delta;
          s.exposed <- s.exposed +. delta;
          phase := Plan
        end
        else if pred_e < fail_e && pred_wall < s.completion then begin
          (* A prediction fires before this checkpoint completes and
             before the next failure. The policy's hook never sees
             [true_positive] — there is no oracle. *)
          match !pq with
          | [] -> assert false
          | ev :: rest ->
              pq := rest;
              let true_positive = ev.Fault.Predictor.true_positive in
              if true_positive then n.preds_true <- n.preds_true + 1
              else n.preds_false <- n.preds_false + 1;
              if record then
                events := Prediction { at = pred_wall; true_positive } :: !events;
              let since_commit = pred_wall -. s.committed in
              let overhead = if n.first then s.first_overhead else 0.0 in
              (* The bankable work: what has elapsed since the last
                 commit, net of the initial recovery, capped by the
                 segment's work share (a prediction landing inside the
                 in-flight nominal checkpoint cannot bank checkpoint time
                 as work — the excess is abandoned into [unused]). *)
              let seg_work = Float.max 0.0 (s.seg_len -. s.actual_c -. overhead) in
              let work =
                Float.min (Float.max 0.0 (since_commit -. overhead)) seg_work
              in
              let take =
                work > 0.0
                && pred_wall +. cp <= horizon
                &&
                match !cur_policy.Policy.on_prediction with
                | None -> false
                | Some f ->
                    f ~tleft:(horizon -. pred_wall) ~since_commit
                      ~window:ev.Fault.Predictor.window
              in
              (* Ignored (by the policy, or nothing to bank, or no room
                 left): zero time cost, the same step again. Taken: a
                 proactive checkpoint of [cp] from the firing instant,
                 exposed to failures, after which the policy re-plans
                 the remaining horizon from the fresh commit. *)
              if take then begin
                let delta = pred_e -. s.exposed in
                s.wall <- s.wall +. delta;
                s.exposed <- pred_e;
                if fail_e < s.exposed +. cp then
                  (* The announced (or another) fault strikes before the
                     proactive checkpoint completes. *)
                  phase := if fail s n cur ~record events then Done else Plan
                else begin
                  (* [work > 0] implies the initial recovery fully
                     elapsed before the prediction fired. *)
                  s.work <- work;
                  commit s n ~proactive:true ~record events;
                  phase := Plan
                end
              end
        end
        else if fail_e < s.exposed +. s.seg_len then
          (* Failure strikes before this checkpoint completes. *)
          phase := if fail s n cur ~record events then Done else Plan
        else if s.completion > horizon then begin
          (* Stochastic checkpoint overran the reservation: this
             checkpoint (and a fortiori the following ones) can no
             longer complete. *)
          if record then events := Gave_up { at = horizon } :: !events;
          phase := Done
        end
        else begin
          let overhead =
            s.actual_c +. (if n.first then s.first_overhead else 0.0)
          in
          s.work <- Float.max 0.0 (s.seg_len -. overhead);
          commit s n ~proactive:false ~record events;
          phase := Segment
        end
    | Done -> ()
  done;
  let breakdown =
    let accounted = s.saved +. s.ckpt +. s.recov +. s.down +. s.lost in
    let unused = horizon -. accounted in
    (* A downtime can overrun the horizon; clip it rather than report a
       negative unused share. *)
    if unused < 0.0 then
      {
        working = s.saved;
        checkpointing = s.ckpt;
        recovering = s.recov;
        down = Float.max 0.0 (s.down +. unused);
        lost = s.lost;
        unused = 0.0;
      }
    else
      {
        working = s.saved;
        checkpointing = s.ckpt;
        recovering = s.recov;
        down = s.down;
        lost = s.lost;
        unused;
      }
  in
  {
    work_saved = s.saved;
    checkpoints = n.ckpts;
    failures = n.fails;
    replans = n.replans;
    replans_platform = n.replans_platform;
    predictions_true = n.preds_true;
    predictions_false = n.preds_false;
    proactive_checkpoints = n.proactive;
    breakdown;
    events = List.rev !events;
  }

let proportion_of_work ~params ~horizon outcome =
  let c = params.Fault.Params.c in
  if horizon <= c then
    invalid_arg "Engine.proportion_of_work: horizon must exceed C";
  outcome.work_saved /. (horizon -. c)
