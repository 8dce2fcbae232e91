(** Checkpointing policies.

    A policy is queried at the start of the reservation and again after
    every failure (once downtime has elapsed). Given the time left [tleft]
    and whether the execution must begin with a recovery, it returns its
    {e failure-free plan}: the increasing list of instants (offsets from
    now) at which its checkpoints would {e complete} if no failure struck.

    A well-formed plan for [(tleft, recovering)] satisfies, with
    [base = if recovering then r else 0]:
    - offsets are strictly increasing and every offset is [<= tleft];
    - the first offset is [>= base + c];
    - consecutive offsets differ by at least [c]
      (each segment must contain its own checkpoint).

    The empty plan means "nothing more can be saved": the engine then
    stops, losing any work after the last completed checkpoint. *)

type t = {
  name : string;
  plan : tleft:float -> recovering:bool -> float list;
  adapt : (Fault.Params.t -> t) option;
      (** How this policy reacts to a platform change: given the updated
          params (the degraded or restored failure rate), return the
          policy to continue the reservation with. [None] — the common
          case — means the policy is static: the engine keeps querying
          the same plan closure after a platform event. The returned
          policy should itself carry an [adapt] so later events re-plan
          too. *)
  on_prediction :
    (tleft:float -> since_commit:float -> window:float -> bool) option;
      (** How this policy reacts to a fired fault prediction: given the
          time left in the reservation, the time elapsed since the last
          committed checkpoint, and the prediction's window width,
          return [true] to take a proactive checkpoint now (banking the
          work accumulated since the last commit, then re-planning) or
          [false] to ignore the event. [None] — the common case —
          ignores every prediction. The hook never sees whether the
          prediction is a true positive: policies have no oracle. *)
}

val make :
  ?adapt:(Fault.Params.t -> t) ->
  ?on_prediction:(tleft:float -> since_commit:float -> window:float -> bool) ->
  name:string ->
  (tleft:float -> recovering:bool -> float list) ->
  t

val set_adapt : t -> (Fault.Params.t -> t) -> t
(** [set_adapt p f] is [p] re-planning through [f] on platform change —
    functional update, [p] itself is untouched. *)

val set_on_prediction :
  t -> (tleft:float -> since_commit:float -> window:float -> bool) -> t
(** [set_on_prediction p f] is [p] answering fired predictions with [f]
    — functional update, [p] itself is untouched. *)

val validate_plan :
  params:Fault.Params.t -> tleft:float -> recovering:bool -> float list -> unit
(** Raises [Invalid_argument] if the plan violates the contract above
    (with a small numerical tolerance). *)

(** {2 Generic geometric policies}

    Baselines that need no paper-specific machinery. *)

val no_checkpoint : t
(** Never checkpoints; saves nothing. Lower bound for sanity checks. *)

val single_final : params:Fault.Params.t -> t
(** "Strat1" of the paper's Section 4: one checkpoint completing exactly
    at the end of the remaining reservation. *)

val single_at : params:Fault.Params.t -> offset_from_end:float -> t
(** One checkpoint completing [offset_from_end] before the end (clamped so
    the plan stays feasible). [offset_from_end = 0] is {!single_final}.
    "Strat2" of Section 4.2. *)

val equal_segments : params:Fault.Params.t -> count:int -> t
(** Exactly [count] equal-length segments, each ending with a checkpoint,
    the last one completing at the end of the remaining reservation —
    regardless of [tleft]. Used by the Section 4.3 and Section 5 gain
    analyses. If fewer than [count] checkpoints fit, uses as many as fit. *)

val equal_plan :
  params:Fault.Params.t -> tleft:float -> recovering:bool -> count:int ->
  float list
(** The plan of [equal_segments ~params ~count] for [(tleft, recovering)]:
    at most [count] equal segments filling the time left after the
    initial recovery, the last checkpoint completing at [tleft]. Empty
    when not even one checkpoint fits or [count < 1]. Threshold policies
    call it on every re-plan without building a policy value. *)

val two_checkpoints : params:Fault.Params.t -> alpha:float -> t
(** "Strat2(α)" of Section 4.3: first checkpoint completes at
    [alpha * tleft], second at [tleft]. [alpha] is clamped to keep both
    segments feasible. *)

val periodic : params:Fault.Params.t -> period:float -> t
(** Fixed-period baseline: work [period], checkpoint, repeat; when the
    remaining length after a checkpoint is shorter than [period + c], a
    final checkpoint completes exactly at the end of the reservation.
    With [period = W_YD] this is the paper's YoungDaly strategy. *)

val max_work : params:Fault.Params.t -> tleft:float -> recovering:bool -> float
(** Work saved by a plan that completes in full: [tleft] minus the initial
    recovery (if any) minus one checkpoint — an upper bound used by
    metrics ([tleft - c] at reservation start). *)
