(* The serve workload: the `fixedlen serve` daemon in its own process,
   with warm tables, binary frames and one session per platform; a
   closed-loop load generator over nproc TCP connections; and the same
   seeded request stream replayed in-process through the server's public
   pieces for the per-layer split. *)

module P = Serve.Protocol
module W = Serve.Wire

let platforms = 32

(* Session queries each connection keeps in flight: at 64 the daemon,
   which drains up to 32 frames per connection per round, finds its
   next round waiting when it finishes one. At 16 it slept between
   rounds, and the run's throughput depended on how fast the host woke
   it. *)
let window = 64

(* Length of the in-process replay. *)
let replay_requests = 8192

let horizon = 500.0

let platform i =
  {
    P.plat_params =
      Fault.Params.paper ~lambda:0.001
        ~c:(10.0 +. (5.0 *. float_of_int i))
        ~d:0.0;
    plat_horizon = horizon;
    plat_quantum = 1.0;
  }

let query_of (p : P.platform) ~tleft ~kleft ~recovering =
  {
    P.params = p.P.plat_params;
    horizon = p.P.plat_horizon;
    quantum = p.P.plat_quantum;
    tleft;
    kleft;
    recovering;
  }

(* One seeded request: which platform, and the per-instant deltas. *)
type item = {
  plat : int;
  tleft : float;
  kleft : int option;
  recovering : bool;
}

let stream_length = 4096

let stream ~seed ~conn =
  let rng = Random.State.make [| seed; conn; 0x5e7e |] in
  Array.init stream_length (fun _ ->
      let plat = Random.State.int rng platforms in
      let tleft = 1.0 +. Random.State.float rng (horizon -. 1.0) in
      let recovering = Random.State.int rng 4 = 0 in
      let kleft =
        if recovering && Random.State.bool rng then
          Some (1 + Random.State.int rng 6)
        else None
      in
      { plat; tleft; kleft; recovering })

(* What the daemon must answer: the in-process handler's reply to the
   same full query. *)
let expected_answers plats items =
  let cache = Experiments.Strategy.Cache.create () in
  let handler = Serve.Handler.create ~cache () in
  Array.map
    (fun it ->
      let q =
        query_of plats.(it.plat) ~tleft:it.tleft ~kleft:it.kleft
          ~recovering:it.recovering
      in
      match Serve.Handler.handle handler (P.Query q) with
      | P.Answer a -> a
      | r -> Emit.fail "reference handler answered %s" (P.render_response r))
    items

let bits = Int64.bits_of_float

let same_answer (a : P.answer) (b : P.answer) =
  bits a.P.next = bits b.P.next
  && a.P.k = b.P.k
  && bits a.P.work = bits b.P.work

let session_query sid it =
  P.Session_query
    {
      P.sid;
      sq_tleft = it.tleft;
      sq_kleft = it.kleft;
      sq_recovering = it.recovering;
    }

(* The frame a connection sends for one item, given its session ids. *)
let payload sids it = P.request_to_binary (session_query sids.(it.plat) it)

(* Send every request, then read every reply, in order. *)
let pipeline conn reqs =
  W.send_many conn (List.map P.request_to_binary reqs);
  List.map
    (fun _ ->
      match W.recv conn with
      | Error e -> Emit.fail "set-up request: %s" (W.error_message e)
      | Ok s -> (
          match P.response_of_binary s with
          | Ok r -> r
          | Error msg -> Emit.fail "set-up reply: %s" msg))
    reqs

(* The load generator keeps one CPU busy, so the daemon gets the other
   nproc - 1 as worker loops, each multiplexing up to nproc connections.
   More workers than free CPUs would make the tail latency depend on
   how the scheduler and the accept race place connections, run by
   run. *)
let daemon_workers ~nproc = max 1 (nproc - 1)

(* A daemon that stops answering fails the run instead of hanging it:
   every read on a benchmark connection times out after 10 s. *)
let connect daemon =
  let c = Serve.Client.connect ~socket:(Daemon.endpoint daemon) in
  Unix.setsockopt_float (W.fd c) Unix.SO_RCVTIMEO 10.0;
  c

let ping daemon =
  let c = connect daemon in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () -> Serve.Client.request c P.Ping = Ok P.Pong)

type live = {
  daemon : Daemon.t;
  conns : W.conn array;
  sids : int array array;  (** per connection, per platform *)
  setup_s : float;
}

(* Daemon start until ready, the connections with their hello and
   session opens, and the warm pass that builds every table. *)
let set_up ~exe ~dir ~nproc plats =
  let t0 = Span.now () in
  let daemon =
    Daemon.start ~exe
      ~socket:(Filename.concat dir "serve.sock")
      [
        "--workers";
        string_of_int (daemon_workers ~nproc);
        "--batch";
        string_of_int nproc;
        "--queue";
        "16";
      ]
  in
  let conns =
    Array.init nproc (fun _ ->
        let c = connect daemon in
        (match Serve.Client.handshake c ~binary:true with
        | Ok true -> ()
        | Ok false -> Emit.fail "daemon refused the binary hello"
        | Error msg -> Emit.fail "handshake: %s" msg);
        c)
  in
  let open_sessions c =
    Array.of_list
      (List.map
         (function
           | P.Session sid -> sid
           | r -> Emit.fail "session-open answered %s" (P.render_response r))
         (pipeline c
            (List.map (fun p -> P.Session_open p) (Array.to_list plats))))
  in
  let sids = Array.map open_sessions conns in
  let warm ci c =
    let full p =
      session_query sids.(ci).(p)
        { plat = p; tleft = horizon; kleft = None; recovering = false }
    in
    let mine =
      List.filter (fun p -> p mod nproc = ci) (List.init platforms Fun.id)
    in
    List.iter
      (function
        | P.Answer _ -> ()
        | r -> Emit.fail "warm pass answered %s" (P.render_response r))
      (pipeline c (List.map full mine))
  in
  Array.iteri warm conns;
  { daemon; conns; sids; setup_s = Span.now () -. t0 }

let close_live l = Array.iter Serve.Client.close l.conns

let stats conn =
  match pipeline conn [ P.Stats ] with
  | [ P.Stats_reply s ] -> s
  | _ -> Emit.fail "stats request not answered"

type load = {
  attempted : int;
  answered : int;  (** replies that were an Answer *)
  wrong : int;  (** Answers that differ from the reference *)
  lost : int;  (** requests never answered *)
  latencies : float array;  (** seconds, send to reply *)
  done_at : float array;
      (** reply times, seconds since the warm-up ended (negative during it) *)
  wall : float;
}

(* Width of the windows the load is cut into: each window gives one
   throughput and one latency sample, and the run reports their medians,
   so a stall caused by another tenant of the host moves one window
   instead of the whole run. *)
let window_s = 0.5

(* Per window lying wholly inside the timed phase: (replies per second,
   sorted latencies in seconds). The warm-up before it and the drain
   after the deadline are left out. *)
let windows l ~seconds =
  let n = int_of_float (Float.floor (seconds /. window_s)) in
  let buckets = Array.init n (fun _ -> Emit.Samples.create ()) in
  Array.iteri
    (fun i at ->
      let b = int_of_float (Float.floor (at /. window_s)) in
      if b >= 0 && b < n then Emit.Samples.add buckets.(b) l.latencies.(i))
    l.done_at;
  Array.to_list
    (Array.map
       (fun b ->
         let lat = Emit.Samples.contents b in
         (float_of_int (Array.length lat) /. window_s, Emit.sorted lat))
       buckets)

type lconn = {
  wire : W.conn;
  payloads : string array;
  expected : P.answer array;
  pending : (int * float) Queue.t;  (** stream index, send time *)
  mutable next : int;
  mutable dead : bool;
}

(* Load before the timed phase: the first second or so of a load ran
   at about half the rate of the rest while the daemon's heap grew and
   the scheduler settled the two processes on their CPUs. *)
let warmup_s = 2.0

(* Closed loop: each connection keeps [window] requests in flight and
   sends the next as soon as replies come back, for [warmup_s] and then
   [seconds]; then it stops sending and drains what is still in flight,
   so no connection closes with requests outstanding.

   The generator polls instead of sleeping in [select], so it keeps its
   CPU and the daemon runs on the other. Sleeping, the two processes
   took turns on one CPU in some runs and ran side by side in others,
   and the throughput of a run changed by up to 1.7x with where the
   scheduler had put them. *)
let run_load conns ~seconds =
  let lat = Emit.Samples.create () and done_at = Emit.Samples.create () in
  let attempted = ref 0 and answered = ref 0 in
  let wrong = ref 0 and lost = ref 0 in
  let t_start = Span.now () in
  let timed_from = t_start +. warmup_s in
  let until = timed_from +. seconds in
  let give_up c =
    c.dead <- true;
    lost := !lost + Queue.length c.pending;
    Queue.clear c.pending
  in
  let refill c now =
    let k = window - Queue.length c.pending in
    if (not c.dead) && now < until && k > 0 then begin
      let idx = List.init k (fun j -> (c.next + j) mod stream_length) in
      c.next <- c.next + k;
      List.iter (fun i -> Queue.push (i, now) c.pending) idx;
      attempted := !attempted + k;
      try W.send_many c.wire (List.map (fun i -> c.payloads.(i)) idx)
      with Unix.Unix_error _ -> give_up c
    end
  in
  let receive c =
    match W.recv c.wire with
    | Error _ | (exception Unix.Unix_error _) -> give_up c
    | Ok s -> (
        let now = Span.now () in
        let i, sent = Queue.pop c.pending in
        Emit.Samples.add lat (now -. sent);
        Emit.Samples.add done_at (now -. timed_from);
        match P.response_of_binary s with
        | Ok (P.Answer a) ->
            incr answered;
            if not (same_answer a c.expected.(i)) then incr wrong
        | Ok _ | Error _ -> ())
  in
  Array.iter (fun c -> refill c t_start) conns;
  let last = ref t_start in
  let rec loop () =
    let busy =
      List.filter
        (fun c -> not (Queue.is_empty c.pending))
        (Array.to_list conns)
    in
    if busy <> [] then begin
      let ready =
        match List.filter (fun c -> W.buffered c.wire) busy with
        | _ :: _ as buffered -> buffered
        | [] -> (
            let fds = List.map (fun c -> W.fd c.wire) busy in
            match Unix.select fds [] [] 0.0 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
            | [], _, _ ->
                if Span.now () -. !last > 10.0 then begin
                  prerr_endline "perfbench: no reply within 10 s";
                  List.iter give_up busy
                end;
                []
            | fds, _, _ ->
                List.filter (fun c -> List.mem (W.fd c.wire) fds) busy)
      in
      List.iter
        (fun c ->
          receive c;
          while
            (not c.dead)
            && (not (Queue.is_empty c.pending))
            && W.buffered c.wire
          do
            receive c
          done;
          last := Span.now ();
          refill c !last)
        ready;
      loop ()
    end
  in
  loop ();
  {
    attempted = !attempted;
    answered = !answered;
    wrong = !wrong;
    lost = !lost;
    latencies = Emit.Samples.contents lat;
    done_at = Emit.Samples.contents done_at;
    wall = !last -. t_start;
  }

type replay = {
  r_wall : float;
  r_requests : int;
  r_wrong : int;  (** replies that were not the reference Answer *)
}

(* The request stream replayed in-process, following
   Server.answer_round: each round the client end of a socketpair writes
   a window of requests, and the server end decodes them, resolves their
   sessions, fetches the tables, answers the batch, encodes and writes
   the replies back, which the client end checks. *)
let replay ~span ~plats ~items ~expected =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client = W.of_fd ~mode:W.Binary a in
  let server = W.of_fd ~mode:W.Binary b in
  let cache = Experiments.Strategy.Cache.create () in
  let handler = Serve.Handler.create ~cache () in
  let table = Serve.Session.create ~capacity:1024 in
  let sids = Array.map (Serve.Session.open_ table) plats in
  (* One cache round trip: build on a miss, then look the table up. *)
  let fetch (p : P.platform) =
    Experiments.Strategy.ensure cache ~params:p.P.plat_params
      ~horizon:p.P.plat_horizon
      ~dist:
        (Fault.Trace.Exponential { rate = p.P.plat_params.Fault.Params.lambda })
      [ Experiments.Spec.Dynamic_programming { quantum = p.P.plat_quantum } ];
    match
      Experiments.Strategy.dp_table cache ~params:p.P.plat_params
        ~horizon:p.P.plat_horizon ~quantum:p.P.plat_quantum
    with
    | Ok _ -> ()
    | Error e -> Emit.fail "%s" (Experiments.Strategy.error_message e)
  in
  (* The untimed warm pass, as in the live set-up. *)
  Array.iter fetch plats;
  let decode ~round ~req =
    let decoded =
      Span.time span ~parent:round ~req "serve.decode" (fun () ->
          match W.recv server with
          | Error e -> Emit.fail "replay recv: %s" (W.error_message e)
          | Ok s -> P.request_of_binary s)
    in
    match decoded with
    | Ok (P.Session_query sq) -> (
        match
          Span.time span ~parent:round ~req "serve.session" (fun () ->
              Serve.Session.resolve table ~sid:sq.P.sid ~tleft:sq.P.sq_tleft
                ~recovering:sq.P.sq_recovering)
        with
        | None -> Emit.fail "replay: unknown session"
        | Some plat ->
            query_of plat ~tleft:sq.P.sq_tleft ~kleft:sq.P.sq_kleft
              ~recovering:sq.P.sq_recovering)
    | Ok _ -> Emit.fail "replay: unexpected request"
    | Error msg -> Emit.fail "replay decode: %s" msg
  in
  let platform_of (q : P.query) =
    {
      P.plat_params = q.P.params;
      plat_horizon = q.P.horizon;
      plat_quantum = q.P.quantum;
    }
  in
  let payloads = Array.map (payload sids) items in
  let wrong = ref 0 in
  let t0 = Span.now () in
  let base = ref 0 in
  while !base < replay_requests do
    let req = !base in
    let k = min window (replay_requests - req) in
    let item j = (req + j) mod stream_length in
    W.send_many client (List.init k (fun j -> payloads.(item j)));
    let round = Span.enter span ~req "serve.round" in
    let queries = List.init k (fun j -> decode ~round ~req:(req + j)) in
    List.iter
      (fun p -> Span.time span ~parent:round ~req "serve.fetch" (fun () -> fetch p))
      (List.sort_uniq compare (List.map platform_of queries));
    let replies =
      Span.time span ~parent:round ~req "serve.answer" (fun () ->
          Serve.Handler.handle_batch handler
            (List.map (fun q -> Ok (P.Query q)) queries))
    in
    let frames =
      Span.time span ~parent:round ~req "serve.encode" (fun () ->
          List.map P.response_to_binary replies)
    in
    Span.time span ~parent:round ~req "serve.write" (fun () ->
        W.send_many server frames);
    Span.leave span round;
    for j = 0 to k - 1 do
      match W.recv client with
      | Ok s -> (
          match P.response_of_binary s with
          | Ok (P.Answer a) when same_answer a expected.(item j) -> ()
          | _ -> incr wrong)
      | Error _ -> incr wrong
    done;
    base := req + k
  done;
  let r_wall = Span.now () -. t0 in
  Unix.close a;
  Unix.close b;
  { r_wall; r_requests = replay_requests; r_wrong = !wrong }
