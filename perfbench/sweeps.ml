(* Sweep workloads: campaigns of paper figures, run the way a user runs
   them (Runner.run per figure over one shared table cache, one domain
   per CPU), and replayed sequentially from the same public calls in
   Runner.sweep's order for the per-layer split. *)

open Experiments

type workload = {
  figures : string list;
  n_traces : int;
  t_step : float;
  journaled : bool;  (** durable journal per figure, fsync per point *)
}

(* fig6 + fig9: lambda = 0.01, so a long reservation meets about 20
   failures and the engine does most of the work. *)
let engine =
  {
    figures = [ "fig6"; "fig9" ];
    n_traces = 1000;
    t_step = 200.0;
    journaled = true;
  }

(* fig4 + fig12: DP at quanta 0.5 to 10 at lambda = 0.001 and 0.0001,
   few traces: the table builds are nearly all of the run. *)
let tables =
  {
    figures = [ "fig4"; "fig12" ];
    n_traces = 20;
    t_step = 400.0;
    journaled = false;
  }

let specs w ~seed =
  List.map
    (fun id ->
      match Figures.find id with
      | None -> Emit.fail "unknown figure %s" id
      | Some s ->
          let s = Figures.scale ~n_traces:w.n_traces ~t_step:w.t_step s in
          { s with Spec.seed = Int64.add s.Spec.seed (Int64.of_int seed) })
    w.figures

(* One grid point, flattened so two runs compare bit for bit. *)
type point = { fig : string; c : float; strategy : string; p : Runner.point }

let bits = Int64.bits_of_float

let same a b =
  String.equal a.fig b.fig
  && bits a.c = bits b.c
  && String.equal a.strategy b.strategy
  && bits a.p.Runner.t = bits b.p.Runner.t
  && bits a.p.Runner.mean = bits b.p.Runner.mean
  && bits a.p.Runner.ci95 = bits b.p.Runner.ci95
  && bits a.p.Runner.mean_failures = bits b.p.Runner.mean_failures
  && bits a.p.Runner.mean_checkpoints = bits b.p.Runner.mean_checkpoints

let same_points xs ys =
  List.length xs = List.length ys && List.for_all2 same xs ys

let points_of_result (spec : Spec.t) (r : Runner.result) =
  List.concat_map
    (fun (cv : Runner.curve) ->
      Array.to_list
        (Array.map
           (fun p ->
             { fig = spec.Spec.id; c = cv.Runner.c; strategy = cv.Runner.name; p })
           cv.Runner.points))
    r.Runner.curves

let remove path = try Sys.remove path with Sys_error _ -> ()

let open_journals w specs ~dir ~tag =
  List.map
    (fun (s : Spec.t) ->
      if not w.journaled then None
      else begin
        let name = Printf.sprintf "%s-%s.journal" tag s.Spec.id in
        let path = Filename.concat dir name in
        remove path;
        Some (Robust.Journal.open_ ~path ~key:(Spec.fingerprint s) ())
      end)
    specs

let close_journals js =
  List.iter
    (Option.iter (fun j ->
         let path = Robust.Journal.path j in
         Robust.Journal.close j;
         remove path))
    js

let entry_of pt =
  {
    Robust.Journal.c = pt.c;
    strategy = pt.strategy;
    t = pt.p.Runner.t;
    mean = pt.p.Runner.mean;
    ci95 = pt.p.Runner.ci95;
    mean_failures = pt.p.Runner.mean_failures;
    mean_checkpoints = pt.p.Runner.mean_checkpoints;
  }

(* Every point of a figure is in its journal, with the same bits. *)
let journal_holds j pts =
  Robust.Journal.length j = List.length pts
  && List.for_all
       (fun pt ->
         match
           Robust.Journal.find j ~c:pt.c ~strategy:pt.strategy ~t:pt.p.Runner.t
         with
         | None -> false
         | Some e ->
             let x = entry_of pt in
             bits e.Robust.Journal.mean = bits x.Robust.Journal.mean
             && bits e.Robust.Journal.ci95 = bits x.Robust.Journal.ci95
             && bits e.Robust.Journal.mean_failures
                = bits x.Robust.Journal.mean_failures
             && bits e.Robust.Journal.mean_checkpoints
                = bits x.Robust.Journal.mean_checkpoints)
       pts

(* The `fixedlen` process started and run to exit with --version. *)
let cli_start ~exe =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe [| exe; "--version" |] null null Unix.stderr
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Emit.fail "%s --version failed" exe

(* Set-up a user pays before the first point: the `fixedlen` process
   started, the domain pool spawned (and joined once) and every figure's
   journal opened. The process start is timed by running the CLI to
   exit, since the campaigns here run in-process. *)
let setup w specs ~exe ~dir ~tag ~domains =
  let t0 = Span.now () in
  cli_start ~exe;
  let pool = Parallel.Pool.create ~domains () in
  ignore (Parallel.Pool.map pool ~f:Fun.id (Array.make domains ()));
  let js = open_journals w specs ~dir ~tag in
  (pool, js, Span.now () -. t0)

type rep = {
  points : point list;
  wall : float;  (** seconds from the first Runner.run to the last return *)
  setup_s : float;
  failed : int;  (** grid points that raised *)
  journal_ok : bool;
  stats : Strategy.Cache.stats;
}

(* One end-to-end campaign with a cold table cache. *)
let rep w specs ~exe ~dir ~tag ~domains =
  let pool, js, setup_s = setup w specs ~exe ~dir ~tag ~domains in
  let cache = Strategy.Cache.create () in
  let failed = ref 0 in
  let t0 = Span.now () in
  let results =
    List.map2
      (fun s j ->
        match Runner.run ~pool ?journal:j ~cache s with
        | r -> points_of_result s r
        | exception Runner.Sweep_failure { failed = f; _ } ->
            failed := !failed + f;
            [])
      specs js
  in
  let wall = Span.now () -. t0 in
  let journal_ok =
    List.for_all2
      (fun j pts -> match j with None -> true | Some j -> journal_holds j pts)
      js results
  in
  close_journals js;
  Parallel.Pool.shutdown pool;
  {
    points = List.concat results;
    wall;
    setup_s;
    failed = !failed;
    journal_ok;
    stats = Strategy.Cache.stats cache;
  }

(* Counters the sequential replay takes at the layer boundaries. *)
type replay = {
  r_points : point list;
  r_wall : float;
  evals : int;  (** single-trace evaluations *)
  sim_words : float;  (** minor words allocated inside Sim.Runner.evaluate *)
  failures : float;  (** failures summed over every evaluated trace *)
  built : int;
  dp_cells : int;
}

let dp_cells dp = 2 * Core.Dp.kmax dp * Core.Dp.horizon_quanta dp

type counters = {
  mutable n_evals : int;
  mutable words : float;
  mutable failed_sum : float;
  mutable cells : int;
  mutable req : int;
  mutable acc : point list;  (** newest first *)
}

(* One C block of a figure, in Runner.sweep's order: trace batch and
   prefetch, table build, then per grid point compile, evaluate and
   journal append, and the block's journal sync. *)
let replay_block ~span ~cache (spec : Spec.t) j k c =
  let dist = Spec.trace_dist spec in
  let grid = Spec.t_grid spec ~c in
  let params =
    Fault.Params.paper ~lambda:spec.Spec.lambda ~c ~d:spec.Spec.d
  in
  let horizon = grid.(Array.length grid - 1) in
  let block = Span.enter span ~req:k.req "experiments.block" in
  let traces =
    Span.time span ~parent:block "fault.trace" (fun () ->
        let seed = Runner.seed_for spec.Spec.seed ~c ~salt:0 in
        let traces = Fault.Trace.batch ~dist ~seed ~n:spec.Spec.n_traces in
        Array.iter (fun tr -> Fault.Trace.prefetch tr ~until:horizon) traces;
        traces)
  in
  let dp_quanta =
    List.filter_map
      (function Spec.Dynamic_programming { quantum } -> Some quantum | _ -> None)
      spec.Spec.strategies
  in
  let dp_table quantum = Strategy.dp_table cache ~params ~horizon ~quantum in
  let to_build = List.filter (fun q -> Result.is_error (dp_table q)) dp_quanta in
  Span.time span ~parent:block "core.build" (fun () ->
      Strategy.ensure cache ~params ~horizon ~dist spec.Spec.strategies);
  List.iter
    (fun quantum ->
      match dp_table quantum with
      | Ok dp -> k.cells <- k.cells + dp_cells dp
      | Error e -> Emit.fail "%s" (Strategy.error_message e))
    to_build;
  let point strategy t =
    let req = k.req in
    k.req <- req + 1;
    let policy =
      Span.time span ~parent:block ~req "experiments.compile" (fun () ->
          Strategy.compile_exn cache ~params ~horizon ~dist strategy)
    in
    let w0 = Gc.minor_words () in
    let r =
      Span.time span ~parent:block ~req "sim.eval" (fun () ->
          Sim.Runner.evaluate ~params ~horizon:t ~policy traces)
    in
    k.words <- k.words +. (Gc.minor_words () -. w0);
    let n = r.Sim.Runner.traces in
    k.n_evals <- k.n_evals + n;
    k.failed_sum <-
      k.failed_sum +. (r.Sim.Runner.mean_failures *. float_of_int n);
    let pr = r.Sim.Runner.proportion in
    let pt =
      {
        fig = spec.Spec.id;
        c;
        strategy = Spec.strategy_name strategy;
        p =
          {
            Runner.t;
            mean = pr.Numerics.Stats.mean;
            ci95 = pr.Numerics.Stats.ci95_half_width;
            mean_failures = r.Sim.Runner.mean_failures;
            mean_checkpoints = r.Sim.Runner.mean_checkpoints;
          };
      }
    in
    k.acc <- pt :: k.acc;
    Option.iter
      (fun j ->
        Span.time span ~parent:block ~req "robust.journal_append" (fun () ->
            Robust.Journal.append j (entry_of pt)))
      j
  in
  List.iter
    (fun strategy -> Array.iter (point strategy) grid)
    spec.Spec.strategies;
  Option.iter
    (fun j ->
      Span.time span ~parent:block "robust.journal_sync" (fun () ->
          Robust.Journal.sync j))
    j;
  Span.leave span block

(* The campaign re-run sequentially from public calls, block by block.
   [only] picks the C blocks to run, by figure id and block index. *)
let replay ~span ?(only = fun _ _ -> true) w specs ~dir ~tag =
  let cache = Strategy.Cache.create () in
  let js = open_journals w specs ~dir ~tag in
  let k =
    { n_evals = 0; words = 0.0; failed_sum = 0.0; cells = 0; req = 0; acc = [] }
  in
  let t0 = Span.now () in
  List.iter2
    (fun (spec : Spec.t) j ->
      List.iteri
        (fun bi c ->
          if only spec.Spec.id bi && Array.length (Spec.t_grid spec ~c) > 0
          then replay_block ~span ~cache spec j k c)
        spec.Spec.cs)
    specs js;
  let r_wall = Span.now () -. t0 in
  close_journals js;
  {
    r_points = List.rev k.acc;
    r_wall;
    evals = k.n_evals;
    sim_words = k.words;
    failures = k.failed_sum;
    built = Strategy.Cache.builds cache;
    dp_cells = k.cells;
  }

(* The end-to-end points restricted to the blocks [only] keeps. *)
let restrict specs only pts =
  let block_of (s : Spec.t) c =
    let rec go i = function
      | [] -> None
      | c' :: rest -> if bits c' = bits c then Some i else go (i + 1) rest
    in
    go 0 s.Spec.cs
  in
  List.filter
    (fun pt ->
      List.exists
        (fun (s : Spec.t) ->
          String.equal s.Spec.id pt.fig
          &&
          match block_of s pt.c with Some bi -> only s.Spec.id bi | None -> false)
        specs)
    pts
