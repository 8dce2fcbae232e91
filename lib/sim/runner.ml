type result = {
  policy : string;
  horizon : float;
  traces : int;
  proportion : Numerics.Stats.summary;
  mean_work : float;
  mean_failures : float;
  mean_checkpoints : float;
  mean_proactive : float;
  mean_predictions_true : float;
  mean_predictions_false : float;
}

let evaluate ?ckpt_sampler ?platforms ?predictions ?proactive_c ~params
    ~horizon ~policy traces =
  let n = Array.length traces in
  if n = 0 then invalid_arg "Runner.evaluate: no traces";
  (match platforms with
  | Some ps when Array.length ps <> n ->
      invalid_arg "Runner.evaluate: platforms and traces length mismatch"
  | _ -> ());
  (match predictions with
  | Some ps when Array.length ps <> n ->
      invalid_arg "Runner.evaluate: predictions and traces length mismatch"
  | _ -> ());
  let prop = Numerics.Stats.acc_create () in
  let work = ref 0.0 and fails = ref 0 and ckpts = ref 0 in
  let proactive = ref 0 and pred_true = ref 0 and pred_false = ref 0 in
  for i = 0 to n - 1 do
    let platform = match platforms with Some ps -> Some ps.(i) | None -> None in
    let predictions =
      match predictions with Some ps -> Some ps.(i) | None -> None
    in
    let o =
      Engine.run ?ckpt_sampler ?platform ?predictions ?proactive_c ~params
        ~horizon ~policy traces.(i)
    in
    Numerics.Stats.acc_add prop (Engine.proportion_of_work ~params ~horizon o);
    work := !work +. o.Engine.work_saved;
    fails := !fails + o.Engine.failures;
    ckpts := !ckpts + o.Engine.checkpoints;
    proactive := !proactive + o.Engine.proactive_checkpoints;
    pred_true := !pred_true + o.Engine.predictions_true;
    pred_false := !pred_false + o.Engine.predictions_false
  done;
  let per_trace k = float_of_int k /. float_of_int n in
  {
    policy = policy.Policy.name;
    horizon;
    traces = n;
    proportion = Numerics.Stats.summarize prop;
    mean_work = !work /. float_of_int n;
    mean_failures = per_trace !fails;
    mean_checkpoints = per_trace !ckpts;
    mean_proactive = per_trace !proactive;
    mean_predictions_true = per_trace !pred_true;
    mean_predictions_false = per_trace !pred_false;
  }
