(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--fixedlen PATH] [--dir DIR]

   Workloads: sweep-engine, sweep-tables, serve-sessions
   (README.md beside this file says why each exists). With --trace 0
   the run measures the end-to-end metrics with no tracing; with
   --trace 1 it re-runs the workload with a span around every call into
   a layer and prints the per-layer metrics instead, writing the spans
   to DIR as JSON lines. Either way the outputs are checked, and the
   last line of standard output is the JSON result. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--fixedlen PATH] [--dir DIR]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  fixedlen : string;  (** the built `fixedlen` CLI *)
  dir : string;  (** scratch files: journals, sockets, span logs *)
}

let parse_args () =
  let workload = ref "" and seed = ref None in
  let seconds = ref None and trace = ref None in
  let fixedlen = ref "_build/default/bin/main.exe" in
  let dir = ref ".bench_build/perfbench" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | "--fixedlen" :: v :: rest ->
        fixedlen := v;
        go rest
    | "--dir" :: v :: rest ->
        dir := v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
      {
        workload = !workload;
        seed;
        seconds;
        trace;
        fixedlen = !fixedlen;
        dir = !dir;
      }
  | _ -> usage ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* ------------------------------------------------------------------ *)
(* Metrics, in BENCHMARK.json order                                    *)

let end_to_end ~throughput ~p50_ms ~p99_ms ~ok_ratio ~setup_s ~peak_rss_mb =
  Emit.
    [
      metric "throughput" "1/s" throughput;
      metric "p50_ms" "ms" p50_ms;
      metric "p99_ms" "ms" p99_ms;
      metric "ok_ratio" "ratio" ok_ratio;
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" peak_rss_mb;
    ]

let per_layer_units =
  [
    ("sim.eval_s", "s");
    ("sim.trace_evals_per_s", "1/s");
    ("sim.minor_words_per_eval", "words");
    ("sim.failures_per_eval", "count");
    ("core.build_s", "s");
    ("core.tables_built", "count");
    ("core.dp_cells", "count");
    ("core.dp_cells_per_s", "1/s");
    ("experiments.cache_builds", "count");
    ("experiments.cache_hits", "count");
    ("experiments.cache_hit_ratio", "ratio");
    ("robust.journal_appends", "count");
    ("robust.journal_append_s", "s");
    ("robust.journal_append_p99_ms", "ms");
    ("fault.trace_s", "s");
    ("parallel.domains", "count");
    ("parallel.speedup", "ratio");
    ("serve.decode_us", "us");
    ("serve.session_us", "us");
    ("serve.fetch_us", "us");
    ("serve.answer_us", "us");
    ("serve.encode_us", "us");
    ("serve.write_us", "us");
    ("serve.batch_size", "count");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("busy_s", "s");
    ("trace_overhead", "ratio");
    ("host.calibration_mops", "1/us");
  ]

(* Every per-layer metric, 0 unless the workload measured it: a layer
   the workload bypasses reads 0. *)
let per_layer values =
  List.map
    (fun (name, unit_) ->
      Emit.metric name unit_
        (Option.value (List.assoc_opt name values) ~default:0.0))
    per_layer_units

let cache_metrics (before : Experiments.Strategy.Cache.stats)
    (after : Experiments.Strategy.Cache.stats) =
  let module C = Experiments.Strategy.Cache in
  let builds = float_of_int (after.C.s_builds - before.C.s_builds) in
  let hits = float_of_int (after.C.s_hits - before.C.s_hits) in
  [
    ("experiments.cache_builds", builds);
    ("experiments.cache_hits", hits);
    ("experiments.cache_hit_ratio", Emit.ratio hits (hits +. builds));
  ]

let no_stats =
  {
    Experiments.Strategy.Cache.s_builds = 0;
    s_hits = 0;
    s_evictions = 0;
    s_resident_tables = 0;
    s_resident_bytes = 0;
  }

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
    ( "gc.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

let check what ok =
  if not ok then prerr_endline ("perfbench: check failed: " ^ what);
  ok

(* Attempted and failed grid points over some repetitions. *)
let tally reps =
  List.fold_left
    (fun (att, fail) r ->
      let n = List.length r.Sweeps.points + r.Sweeps.failed in
      (att + n, fail + r.Sweeps.failed))
    (0, 0) reps

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

let sweep_e2e (host : Host.t) w a =
  let specs = Sweeps.specs w ~seed:a.seed in
  let domains = min 8 host.Host.nproc in
  (* Set-up is short next to a campaign, so each repetition is followed
     by a dozen set-ups alone, spread over the run like the campaigns. *)
  let setups = ref [] in
  let set_up_alone k =
    let pool, js, s =
      Sweeps.setup w specs ~exe:a.fixedlen ~dir:a.dir
        ~tag:(Printf.sprintf "setup%d" k)
        ~domains
    in
    Sweeps.close_journals js;
    Parallel.Pool.shutdown pool;
    setups := s :: !setups
  in
  (* Each repetition starts from a compacted heap, so its peak memory
     and its collections do not depend on what the previous one left. *)
  let rep k =
    Gc.compact ();
    let r =
      Sweeps.rep w specs ~exe:a.fixedlen ~dir:a.dir
        ~tag:(Printf.sprintf "rep%d" k)
        ~domains
    in
    setups := r.Sweeps.setup_s :: !setups;
    for i = 1 to 12 do
      set_up_alone i
    done;
    r
  in
  (* The first repetition pays for growing the heap and faulting in the
     code: it is checked but not timed. *)
  let first = rep 0 in
  let start = Span.now () in
  let rec timed acc k =
    let r = rep k in
    let acc = r :: acc in
    let elapsed = Span.now () -. start in
    if k < 3 || elapsed +. r.Sweeps.wall +. r.Sweeps.setup_s <= a.seconds then
      timed acc (k + 1)
    else List.rev acc
  in
  let reps = timed [] 1 in
  let all = first :: reps in
  (* One C block per figure, picked by the seed, replayed sequentially
     from public calls: its points must equal the end-to-end ones. *)
  let rng = Random.State.make [| a.seed |] in
  let picks =
    List.map
      (fun (s : Experiments.Spec.t) ->
        ( s.Experiments.Spec.id,
          Random.State.int rng (List.length s.Experiments.Spec.cs) ))
      specs
  in
  let only fig bi = List.assoc_opt fig picks = Some bi in
  let replayed =
    Sweeps.replay ~span:(Span.create ~on:false) ~only w specs ~dir:a.dir
      ~tag:"check"
  in
  let attempted, failed = tally all in
  let attempted = attempted + List.length replayed.Sweeps.r_points in
  let correct =
    check "no grid point failed" (failed = 0)
    && check "campaign produced points" (first.Sweeps.points <> [])
    && check "every repetition is bit-identical"
         (List.for_all
            (fun r -> Sweeps.same_points r.Sweeps.points first.Sweeps.points)
            reps)
    && check "journals hold every point"
         (List.for_all (fun r -> r.Sweeps.journal_ok) all)
    && check "sequential replay is bit-identical"
         (replayed.Sweeps.r_points <> []
         && Sweeps.same_points
              (Sweeps.restrict specs only first.Sweeps.points)
              replayed.Sweeps.r_points)
  in
  let walls = Array.of_list (List.map (fun r -> r.Sweeps.wall) reps) in
  let points = float_of_int (List.length first.Sweeps.points) in
  Printf.printf
    "sweep: %d timed repetitions of %.0f points on %d domain(s); walls (s):%s\n"
    (List.length reps) points domains
    (String.concat ""
       (List.map (Printf.sprintf " %.3f") (Array.to_list walls)));
  let metrics =
    end_to_end
      ~throughput:(Emit.median (Array.map (fun w -> points /. w) walls))
      ~p50_ms:(1e3 *. Emit.median walls)
      ~p99_ms:(1e3 *. Emit.tail (Emit.sorted walls))
      ~ok_ratio:
        (Emit.ratio (float_of_int (attempted - failed)) (float_of_int attempted))
      ~setup_s:(Emit.median (Array.of_list !setups))
      ~peak_rss_mb:(Host.peak_rss_mb 0)
  in
  (correct, attempted, failed, metrics)

let sweep_traced (host : Host.t) w a ~span =
  let specs = Sweeps.specs w ~seed:a.seed in
  let domains = min 8 host.Host.nproc in
  (* As in the untraced run, the campaign is timed on its second
     repetition: the first grows the heap. *)
  let rep tag = Sweeps.rep w specs ~exe:a.fixedlen ~dir:a.dir ~tag ~domains in
  let warm = rep "warm" in
  Gc.compact ();
  let e2e = rep "e2e" in
  let plain =
    Sweeps.replay ~span:(Span.create ~on:false) w specs ~dir:a.dir ~tag:"plain"
  in
  let g0 = Gc.quick_stat () in
  let traced = Sweeps.replay ~span w specs ~dir:a.dir ~tag:"traced" in
  let g1 = Gc.quick_stat () in
  let attempted, failed = tally [ warm; e2e ] in
  let attempted = attempted + List.length traced.Sweeps.r_points in
  let same_as_e2e pts = Sweeps.same_points e2e.Sweeps.points pts in
  let correct =
    check "no grid point failed" (failed = 0)
    && check "campaign produced points" (e2e.Sweeps.points <> [])
    && check "repetitions are bit-identical" (same_as_e2e warm.Sweeps.points)
    && check "journals hold every point"
         (warm.Sweeps.journal_ok && e2e.Sweeps.journal_ok)
    && check "traced replay is bit-identical"
         (same_as_e2e traced.Sweeps.r_points)
    && check "untraced replay is bit-identical"
         (same_as_e2e plain.Sweeps.r_points)
  in
  let total name = Span.total span name in
  let evals = float_of_int traced.Sweeps.evals in
  let eval_s = total "sim.eval" and build_s = total "core.build" in
  let cells = float_of_int traced.Sweeps.dp_cells in
  let appends = Span.durations span "robust.journal_append" in
  let busy = Span.busy span in
  let values =
    [
      ("sim.eval_s", eval_s);
      ("sim.trace_evals_per_s", Emit.ratio evals eval_s);
      ("sim.minor_words_per_eval", Emit.ratio traced.Sweeps.sim_words evals);
      ("sim.failures_per_eval", Emit.ratio traced.Sweeps.failures evals);
      ("core.build_s", build_s);
      ("core.tables_built", float_of_int traced.Sweeps.built);
      ("core.dp_cells", cells);
      ("core.dp_cells_per_s", Emit.ratio cells build_s);
      ("robust.journal_appends", float_of_int (Array.length appends));
      ( "robust.journal_append_s",
        total "robust.journal_append" +. total "robust.journal_sync" );
      ( "robust.journal_append_p99_ms",
        1e3 *. Emit.percentile (Emit.sorted appends) 0.99 );
      ("fault.trace_s", total "fault.trace");
      ("parallel.domains", float_of_int domains);
      ("parallel.speedup", Emit.ratio busy e2e.Sweeps.wall);
      ("busy_s", busy);
      ("trace_overhead", Emit.ratio traced.Sweeps.r_wall plain.Sweeps.r_wall);
      ("host.calibration_mops", host.Host.calibration);
    ]
    @ cache_metrics no_stats e2e.Sweeps.stats
    @ gc_delta g0 g1
  in
  Printf.printf
    "sweep traced: busy %.3f s of %.3f s traced wall; campaign %.3f s on %d \
     domain(s)\n"
    busy traced.Sweeps.r_wall e2e.Sweeps.wall domains;
  (correct, attempted, failed, per_layer values)

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)

module S = Serve_bench

let serve_prepare a ~nproc =
  let plats = Array.init S.platforms S.platform in
  let items = Array.init nproc (fun conn -> S.stream ~seed:a.seed ~conn) in
  let expected = Array.map (S.expected_answers plats) items in
  (plats, items, expected)

(* Set up several times, each with a fresh daemon, and keep the last one
   live for the load; the earlier ones only feed the set-up median. *)
let serve_set_up a ~nproc plats =
  let trials = 7 in
  let rec go k acc =
    let live = S.set_up ~exe:a.fixedlen ~dir:a.dir ~nproc plats in
    let acc = live.S.setup_s :: acc in
    if k + 1 < trials then begin
      S.close_live live;
      ignore (Daemon.stop live.S.daemon);
      go (k + 1) acc
    end
    else (live, Emit.median (Array.of_list acc))
  in
  go 0 []

type serve_run = {
  load : S.load;
  setup_s : float;
  rss_mb : float;
  pong : bool;
  drained : bool;
  summary : string;  (** the daemon's drain line *)
  before : Experiments.Strategy.Cache.stats;  (** after the warm pass *)
  after : Experiments.Strategy.Cache.stats;  (** after the load *)
}

let serve_live a ~nproc (plats, items, expected) =
  let live, setup_s = serve_set_up a ~nproc plats in
  let before = S.stats live.S.conns.(0) in
  let lconns =
    Array.mapi
      (fun ci wire ->
        {
          S.wire;
          payloads = Array.map (S.payload live.S.sids.(ci)) items.(ci);
          expected = expected.(ci);
          pending = Queue.create ();
          next = 0;
          dead = false;
        })
      live.S.conns
  in
  let load = S.run_load lconns ~seconds:a.seconds in
  let after = S.stats live.S.conns.(0) in
  (* Close the load connections first: they fill the worker's batch. *)
  S.close_live live;
  let pong = S.ping live.S.daemon in
  let rss_mb = Daemon.peak_rss_mb live.S.daemon in
  let summary, drained = Daemon.stop live.S.daemon in
  { load; setup_s; rss_mb; pong; drained; summary; before; after }

let serve_checks r =
  let l = r.load in
  check "every request answered with an Answer"
    (l.S.lost = 0 && l.S.answered = l.S.attempted)
  && check "every answer equals the in-process handler's" (l.S.wrong = 0)
  && check "daemon answers ping after the load" r.pong
  && check "daemon drained and exited 0" r.drained
  && check "drain reports failed=0"
       (Daemon.summary_field r.summary "failed" = Some 0)

let serve_e2e a ~nproc =
  let r = serve_live a ~nproc (serve_prepare a ~nproc) in
  let l = r.load in
  let windows = S.windows l ~seconds:a.seconds in
  Printf.printf
    "serve: %d requests over %d connection(s) in %.3f s; %d latency samples \
     in %d windows of %.1f s; drained %s\n"
    l.S.attempted nproc l.S.wall (Array.length l.S.latencies)
    (List.length windows) S.window_s r.summary;
  let across f = Emit.median (Array.of_list (List.map f windows)) in
  let metrics =
    end_to_end ~throughput:(across fst)
      ~p50_ms:(1e3 *. across (fun (_, lat) -> Emit.percentile lat 0.5))
      ~p99_ms:(1e3 *. across (fun (_, lat) -> Emit.tail lat))
      ~ok_ratio:
        (Emit.ratio (float_of_int l.S.answered) (float_of_int l.S.attempted))
      ~setup_s:r.setup_s ~peak_rss_mb:r.rss_mb
  in
  (serve_checks r, l.S.attempted, l.S.attempted - l.S.answered, metrics)

let serve_traced (host : Host.t) a ~nproc ~span =
  let ((plats, items, expected) as prepared) = serve_prepare a ~nproc in
  let r = serve_live a ~nproc prepared in
  let replay span =
    S.replay ~span ~plats ~items:items.(0) ~expected:expected.(0)
  in
  let plain = replay (Span.create ~on:false) in
  let g0 = Gc.quick_stat () in
  let traced = replay span in
  let g1 = Gc.quick_stat () in
  let l = r.load in
  let n = float_of_int traced.S.r_requests in
  let per_request name = 1e6 *. Span.total span name /. n in
  let busy = Span.busy span in
  let field = Daemon.summary_field r.summary in
  let values =
    [
      ("parallel.domains", float_of_int (S.daemon_workers ~nproc));
      (* In-process sequential cost of the requests the daemon answered,
         over the wall time the daemon took to answer them. *)
      ( "parallel.speedup",
        Emit.ratio (busy /. n *. float_of_int l.S.answered) l.S.wall );
      ("serve.decode_us", per_request "serve.decode");
      ("serve.session_us", per_request "serve.session");
      ("serve.fetch_us", per_request "serve.fetch");
      ("serve.answer_us", per_request "serve.answer");
      ("serve.encode_us", per_request "serve.encode");
      ("serve.write_us", per_request "serve.write");
      ( "serve.batch_size",
        match (field "requests", field "batches") with
        | Some q, Some b -> Emit.ratio (float_of_int q) (float_of_int b)
        | _ -> 0.0 );
      ("busy_s", busy);
      ("trace_overhead", Emit.ratio traced.S.r_wall plain.S.r_wall);
      ("host.calibration_mops", host.Host.calibration);
    ]
    @ cache_metrics r.before r.after
    @ gc_delta g0 g1
  in
  Printf.printf
    "serve traced: replay of %d requests, busy %.3f s; daemon drained %s\n"
    traced.S.r_requests busy r.summary;
  let correct =
    serve_checks r
    && check "replay answers equal the in-process handler's"
         (traced.S.r_wrong = 0 && plain.S.r_wrong = 0)
  in
  let attempted = l.S.attempted + (2 * traced.S.r_requests) in
  let failed =
    l.S.attempted - l.S.answered + traced.S.r_wrong + plain.S.r_wrong
  in
  (correct, attempted, failed, per_layer values)

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  mkdir_p a.dir;
  let host = Host.probe () in
  Printf.printf "host %s\n%!" (Host.to_json host);
  let nproc = host.Host.nproc in
  let span = Span.create ~on:true in
  let correct, attempted, failed, metrics =
    match (a.workload, a.trace) with
    | "sweep-engine", false -> sweep_e2e host Sweeps.engine a
    | "sweep-engine", true -> sweep_traced host Sweeps.engine a ~span
    | "sweep-tables", false -> sweep_e2e host Sweeps.tables a
    | "sweep-tables", true -> sweep_traced host Sweeps.tables a ~span
    | "serve-sessions", false -> serve_e2e a ~nproc
    | "serve-sessions", true -> serve_traced host a ~nproc ~span
    | w, _ ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  if a.trace then begin
    let path =
      Filename.concat a.dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" a.workload a.seed)
    in
    let header = Printf.sprintf "{\"host\": %s}" (Host.to_json host) in
    Span.write span path ~header;
    Printf.printf "spans written to %s\n" path
  end;
  Emit.emit ~correct ~attempted ~failed metrics
