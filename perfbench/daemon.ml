(* The daemon under test: the built `fixedlen serve` binary in its own
   process, its stdout read line by line for the listening and drain
   lines. *)

type t = {
  pid : int;
  out : Unix.file_descr;
  buf : Buffer.t;  (** stdout bytes not yet split into lines *)
  mutable reaped : bool;
  port : int;
}

(* Next complete stdout line, or [None] on EOF or when [deadline]
   (absolute, seconds) passes first. *)
let rec read_line t ~deadline =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear t.buf;
      Buffer.add_string t.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some line
  | None -> (
      let wait = deadline -. Unix.gettimeofday () in
      if wait <= 0.0 then None
      else
        match Unix.select [ t.out ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t ~deadline
        | [], _, _ -> None
        | _ -> (
            let chunk = Bytes.create 4096 in
            match Unix.read t.out chunk 0 4096 with
            | 0 -> None
            | n ->
                Buffer.add_subbytes t.buf chunk 0 n;
                read_line t ~deadline))

let prefix p s =
  String.length s >= String.length p
  && String.equal (String.sub s 0 (String.length p)) p

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Daemons not yet stopped: killed at exit, so a failed check never
   leaves one running. *)
let running = ref []
let () = at_exit (fun () -> List.iter kill_and_reap !running)

(* Spawn [exe serve ARGS --listen 127.0.0.1:0] and return once it has
   printed its TCP port: from then on the listening socket queues
   connections. *)
let start ~exe ~socket args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--socket"; socket; "--listen"; "127.0.0.1:0" ] @ args)
  in
  let pid = Unix.create_process exe argv null w Unix.stderr in
  running := pid :: !running;
  Unix.close w;
  Unix.close null;
  let t0 = { pid; out = r; buf = Buffer.create 256; reaped = false; port = 0 } in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_port () =
    match read_line t0 ~deadline with
    | None ->
        kill_and_reap pid;
        Unix.close r;
        Emit.fail "daemon did not report a TCP port"
    | Some line when prefix "serve: listening on tcp " line -> (
        match String.rindex_opt line ':' with
        | Some i ->
            int_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> wait_port ())
    | Some _ -> wait_port ()
  in
  let port = wait_port () in
  { t0 with port }

let endpoint t = Printf.sprintf "127.0.0.1:%d" t.port
let peak_rss_mb t = Host.peak_rss_mb t.pid

(* SIGTERM, then wait for the drain line and the exit. Returns the drain
   summary ("accepted=N shed=N requests=N ...") and whether the daemon
   exited 0. A daemon that does not drain within 30 s is killed. *)
let stop t =
  if t.reaped then ("", false)
  else begin
    t.reaped <- true;
    running := List.filter (fun p -> p <> t.pid) !running;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec drain_line () =
      match read_line t ~deadline with
      | None -> None
      | Some line when prefix "serve: drained " line ->
          Some (String.sub line 15 (String.length line - 15))
      | Some _ -> drain_line ()
    in
    let summary = drain_line () in
    let clean =
      match summary with
      | None ->
          kill_and_reap t.pid;
          false
      | Some _ -> (
          match Unix.waitpid [] t.pid with
          | _, Unix.WEXITED 0 -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
    in
    Unix.close t.out;
    (Option.value summary ~default:"", clean)
  end

(* [key=N] out of a drain summary. *)
let summary_field summary key =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] when String.equal k key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' summary)
