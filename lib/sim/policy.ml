type t = {
  name : string;
  plan : tleft:float -> recovering:bool -> float list;
  adapt : (Fault.Params.t -> t) option;
  on_prediction :
    (tleft:float -> since_commit:float -> window:float -> bool) option;
}

let make ?adapt ?on_prediction ~name plan = { name; plan; adapt; on_prediction }

let set_adapt p adapt = { p with adapt = Some adapt }

let set_on_prediction p f = { p with on_prediction = Some f }

(* Numerical slack for plan validation: offsets are produced by floating
   arithmetic, so exact comparisons would reject valid plans. *)
let eps = 1e-9

let plan_error fmt = Format.kasprintf invalid_arg fmt

(* One pass over the plan, at top level and with no float argument
   beyond the plan's own boxed offsets, so that checking a plan at every
   re-plan allocates nothing. *)
let rec check_plan ~params ~tleft ~recovering prev = function
  | [] -> ()
  | off :: rest ->
      let c = params.Fault.Params.c and r = params.Fault.Params.r in
      let base = if recovering then r else 0.0 in
      if off > tleft +. eps then
        plan_error "plan: checkpoint completion %g exceeds tleft %g" off tleft;
      if prev = 0.0 && off < base +. c -. eps then
        plan_error "plan: first checkpoint %g before base %g + C %g" off base c;
      if prev > 0.0 && off -. prev < c -. eps then
        plan_error "plan: segment [%g, %g] shorter than C = %g" prev off c;
      if off <= prev then plan_error "plan: offsets not increasing at %g" off;
      check_plan ~params ~tleft ~recovering off rest

let validate_plan ~params ~tleft ~recovering plan =
  check_plan ~params ~tleft ~recovering 0.0 plan

let no_checkpoint = make ~name:"NoCheckpoint" (fun ~tleft:_ ~recovering:_ -> [])

let usable ~params ~tleft ~recovering =
  if recovering then tleft -. params.Fault.Params.r else tleft

let single_final ~params =
  let c = params.Fault.Params.c in
  let plan ~tleft ~recovering =
    if usable ~params ~tleft ~recovering < c then [] else [ tleft ]
  in
  make ~name:"SingleFinal" plan

let single_at ~params ~offset_from_end =
  if offset_from_end < 0.0 then
    invalid_arg "Policy.single_at: offset_from_end must be nonnegative";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    if tleft -. base < c then []
    else begin
      (* Clamp so the checkpoint still fits after [base + c]. *)
      let off = Float.max (base +. c) (tleft -. offset_from_end) in
      [ Float.min off tleft ]
    end
  in
  make ~name:(Printf.sprintf "SingleAt(-%g)" offset_from_end) plan

let[@tail_mod_cons] rec equal_offsets ~base ~seg i n =
  if i >= n then []
  else (base +. (float_of_int (i + 1) *. seg)) :: equal_offsets ~base ~seg (i + 1) n

(* [count] equal segments filling [tleft], last checkpoint at the end.
   Shared by [equal_segments] and the threshold policies of lib/core. *)
let equal_plan ~params ~tleft ~recovering ~count =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let span = tleft -. base in
  if span < c || count < 1 then []
  else begin
    (* Each segment must be able to hold its checkpoint. *)
    let n = min count (int_of_float (floor (span /. c))) in
    let n = max n 1 in
    let seg = span /. float_of_int n in
    equal_offsets ~base ~seg 0 n
  end

let equal_segments ~params ~count =
  if count < 1 then invalid_arg "Policy.equal_segments: count < 1";
  let plan ~tleft ~recovering = equal_plan ~params ~tleft ~recovering ~count in
  make ~name:(Printf.sprintf "Equal(%d)" count) plan

let two_checkpoints ~params ~alpha =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Policy.two_checkpoints: alpha must lie in (0, 1)";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    let span = tleft -. base in
    if span < 2.0 *. c then
      (* No room for two checkpoints: degrade to a single final one. *)
      if span < c then [] else [ tleft ]
    else begin
      let first = base +. (alpha *. span) in
      let first = Float.max (base +. c) (Float.min first (tleft -. c)) in
      [ first; tleft ]
    end
  in
  make ~name:(Printf.sprintf "Two(%.3f)" alpha) plan

(* Checkpoints complete every [stride] after [last]; when the remaining
   stretch cannot hold a further full period, the final checkpoint
   completes exactly at [tleft]. Built front to back in one pass. *)
let[@tail_mod_cons] rec periodic_offsets ~tleft ~stride ~c last =
  let rem = tleft -. last in
  if rem <= stride +. c then
    (* Final (possibly short) segment, checkpoint at the end; if even a
       bare checkpoint does not fit, stop here. *)
    if rem < c then [] else [ tleft ]
  else
    let next = last +. stride in
    next :: periodic_offsets ~tleft ~stride ~c next

let periodic ~params ~period =
  if period <= 0.0 then invalid_arg "Policy.periodic: period must be positive";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    if tleft -. base < c then []
    else periodic_offsets ~tleft ~stride:(period +. c) ~c base
  in
  make ~name:(Printf.sprintf "Periodic(%g)" period) plan

let max_work ~params ~tleft ~recovering =
  let c = params.Fault.Params.c in
  let span = usable ~params ~tleft ~recovering in
  Float.max 0.0 (span -. c)
