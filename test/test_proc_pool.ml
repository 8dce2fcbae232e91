(* Tests for Parallel.Proc_pool: the fork-based supervised worker pool.
   These exercise real process machinery — fork, SIGKILL, pipes — so the
   scenarios are kept small and the timeouts short. *)

module P = Parallel.Proc_pool

let results_t = Alcotest.(array (result int string))

let to_strings outcomes =
  Array.map
    (function Ok v -> Ok v | Error e -> Error (Printexc.to_string e))
    outcomes

let test_matches_sequential () =
  P.with_pool ~workers:3 (fun pool ->
      let xs = Array.init 17 (fun i -> i) in
      let f ~attempt:_ _i x = (x * x) + 1 in
      let got = P.try_mapi pool ~f xs in
      let expected = Array.map (fun x -> Ok ((x * x) + 1)) xs in
      Alcotest.check results_t "ordered, complete" expected (to_strings got))

let test_float_results_bit_exact () =
  (* Marshal must round-trip float bits: the process backend may not
     perturb curves relative to the in-process one. *)
  P.with_pool ~workers:2 (fun pool ->
      let xs = [| 1.0 /. 3.0; Float.pi; 1e-300; 4.0 *. atan 1.0 |] in
      let got = P.try_map pool ~f:(fun x -> x /. 7.0) xs in
      Array.iteri
        (fun i x ->
          match got.(i) with
          | Ok v ->
              Alcotest.(check bool)
                (Printf.sprintf "bit-identical %d" i)
                true
                (Int64.equal (Int64.bits_of_float v)
                   (Int64.bits_of_float (x /. 7.0)))
          | Error _ -> Alcotest.fail "task failed")
        xs)

let test_task_failure_isolated () =
  P.with_pool ~workers:2 (fun pool ->
      let xs = Array.init 6 (fun i -> i) in
      let got =
        P.try_mapi pool xs ~f:(fun ~attempt:_ _i x ->
            if x = 3 then failwith "poisoned point" else x)
      in
      Array.iteri
        (fun i outcome ->
          match (i, outcome) with
          | 3, Error (P.Task_failed { index; detail }) ->
              Alcotest.(check int) "failed index" 3 index;
              Alcotest.(check bool) "carries the message" true
                (String.length detail > 0
                && String.index_opt detail 'p' <> None)
          | 3, _ -> Alcotest.fail "poisoned task did not fail"
          | i, Ok v -> Alcotest.(check int) "others unharmed" i v
          | _, Error e ->
              Alcotest.failf "healthy task failed: %s" (Printexc.to_string e))
        got)

let test_worker_crash_isolated () =
  (* A worker that dies outright (here: _exit, standing in for a
     segfault) costs one point, not the pool. *)
  P.with_pool ~workers:2 (fun pool ->
      let xs = Array.init 5 (fun i -> i) in
      let got =
        P.try_mapi pool xs ~f:(fun ~attempt:_ _i x ->
            if x = 2 then Unix._exit 42 else x)
      in
      Array.iteri
        (fun i outcome ->
          match (i, outcome) with
          | 2, Error (P.Worker_crashed { index; _ }) ->
              Alcotest.(check int) "crashed index" 2 index
          | 2, _ -> Alcotest.fail "crash not detected"
          | i, Ok v -> Alcotest.(check int) "others unharmed" i v
          | _, Error e ->
              Alcotest.failf "healthy task failed: %s" (Printexc.to_string e))
        got)

let test_hung_task_times_out () =
  P.with_pool ~workers:2 ~task_timeout:0.2 (fun pool ->
      let xs = Array.init 4 (fun i -> i) in
      let t0 = Unix.gettimeofday () in
      let got =
        P.try_mapi pool xs ~f:(fun ~attempt:_ _i x ->
            if x = 1 then
              while true do
                Unix.sleepf 3600.0
              done;
            x)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match got.(1) with
      | Error (P.Task_timeout { index; timeout; attempts }) ->
          Alcotest.(check int) "timed-out index" 1 index;
          Alcotest.(check (float 0.0)) "timeout echoed" 0.2 timeout;
          Alcotest.(check int) "attempts echoed" 1 attempts
      | _ -> Alcotest.fail "hung task did not time out");
      Array.iteri
        (fun i outcome ->
          if i <> 1 then
            match outcome with
            | Ok v -> Alcotest.(check int) "others unharmed" i v
            | Error e ->
                Alcotest.failf "healthy task failed: %s" (Printexc.to_string e))
        got;
      (* The watchdog must not stall the whole map behind the hang. *)
      Alcotest.(check bool) "killed promptly" true (elapsed < 30.0))

let test_hang_retried_on_fresh_dispatch () =
  (* attempt 0 hangs, attempt 1 succeeds: the watchdog kill must
     re-dispatch with a bumped attempt counter rather than giving up. *)
  P.with_pool ~workers:2 ~task_timeout:0.2 ~attempts:2 (fun pool ->
      let xs = Array.init 3 (fun i -> i) in
      let got =
        P.try_mapi pool xs ~f:(fun ~attempt _i x ->
            if x = 1 && attempt = 0 then
              while true do
                Unix.sleepf 3600.0
              done;
            x + 100)
      in
      let expected = Array.map (fun x -> Ok (x + 100)) xs in
      Alcotest.check results_t "recovered after re-dispatch" expected
        (to_strings got))

let test_should_stop_cancels_pending () =
  (* One worker, stop as soon as the first result lands: later tasks
     must settle as Cancelled without being dispatched. *)
  P.with_pool ~workers:1 (fun pool ->
      let stop = ref false in
      let got =
        P.try_mapi pool
          ~should_stop:(fun () -> !stop)
          ~on_result:(fun _ _ -> stop := true)
          ~f:(fun ~attempt:_ _i x -> x)
          (Array.init 8 (fun i -> i))
      in
      let ok = Array.length (Array.of_seq (Seq.filter Result.is_ok (Array.to_seq got))) in
      let cancelled =
        Array.fold_left
          (fun acc -> function Error P.Cancelled -> acc + 1 | _ -> acc)
          0 got
      in
      Alcotest.(check bool) "some work done" true (ok >= 1);
      Alcotest.(check int) "rest cancelled" (8 - ok) cancelled)

let test_on_result_runs_in_parent () =
  (* The supervisor (not the forked child) must see every settled value:
     this is what lets the runner journal from the parent. *)
  let parent = Unix.getpid () in
  P.with_pool ~workers:2 (fun pool ->
      let seen = ref [] in
      let got =
        P.try_mapi pool
          ~on_result:(fun i v ->
            Alcotest.(check int) "callback in parent" parent (Unix.getpid ());
            seen := (i, v) :: !seen)
          ~f:(fun ~attempt:_ _i x -> 2 * x)
          (Array.init 5 (fun i -> i))
      in
      Alcotest.(check int) "every result observed" 5 (List.length !seen);
      List.iter
        (fun (i, v) ->
          Alcotest.(check int) (Printf.sprintf "value %d" i) (2 * i) v;
          match got.(i) with
          | Ok v' -> Alcotest.(check int) "array agrees" v v'
          | Error _ -> Alcotest.fail "settled result errored")
        !seen)

let test_validation () =
  List.iter
    (fun thunk ->
      match thunk () with
      | (_ : P.t) -> Alcotest.fail "invalid pool accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> P.create ~workers:0 ());
      (fun () -> P.create ~task_timeout:0.0 ());
      (fun () -> P.create ~attempts:0 ());
    ];
  let pool = P.create ~workers:1 () in
  P.shutdown pool;
  match P.try_map pool ~f:Fun.id [| 1 |] with
  | _ -> Alcotest.fail "use after shutdown accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "proc_pool"
    [
      ( "supervised workers",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "float results bit-exact" `Quick
            test_float_results_bit_exact;
          Alcotest.test_case "task failure isolated" `Quick
            test_task_failure_isolated;
          Alcotest.test_case "worker crash isolated" `Quick
            test_worker_crash_isolated;
          Alcotest.test_case "hung task times out" `Quick
            test_hung_task_times_out;
          Alcotest.test_case "hang retried on fresh dispatch" `Quick
            test_hang_retried_on_fresh_dispatch;
          Alcotest.test_case "should_stop cancels pending" `Quick
            test_should_stop_cancels_pending;
          Alcotest.test_case "on_result runs in parent" `Quick
            test_on_result_runs_in_parent;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
