(* The host block: enough about the machine that numbers taken on two
   hosts are never compared blind. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])

let field lines key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.trim (String.sub line 0 i)) key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    lines

(* CPUs this process may run on, from the affinity list ("0-1,4"). *)
let nproc () =
  let count spec =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] ->
            ignore (int_of_string a);
            acc + 1
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | _ -> acc)
      0
      (String.split_on_char ',' spec)
  in
  let fallback = Domain.recommended_domain_count () in
  match field (read_lines "/proc/self/status") "Cpus_allowed_list" with
  | Some spec -> ( try max 1 (count spec) with Failure _ -> fallback)
  | None -> fallback

let cpu_model () =
  match field (read_lines "/proc/cpuinfo") "model name" with
  | Some m -> m
  | None -> "unknown"

(* VmHWM of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match field (read_lines path) "VmHWM" with
  | Some v -> (
      try Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0.0)
  | None -> 0.0

(* A fixed integer-and-float kernel, best of three: millions of loop
   iterations per second. It moves with the core's speed and the load
   other tenants put on it, not with this repository's code. *)
let calibration_mops () =
  let iters = 10_000_000 in
  let once () =
    let t0 = Unix.gettimeofday () in
    let x = ref 1 and acc = ref 0.0 in
    for _ = 1 to iters do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc +. sqrt (float_of_int !x)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if !acc < 0.0 then print_string "";
    float_of_int iters /. dt /. 1e6
  in
  List.fold_left max 0.0 [ once (); once (); once () ]

type t = {
  nproc : int;
  recommended_domains : int;
  ocaml : string;
  cpu : string;
  calibration : float;
}

let probe () =
  {
    nproc = nproc ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    cpu = cpu_model ();
    calibration = calibration_mops ();
  }

let to_json h =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domains\": %d, \"ocaml\": %s, \
     \"cpu_model\": %s, \"calibration_mops\": %.2f}"
    h.nproc h.recommended_domains (Emit.json_string h.ocaml)
    (Emit.json_string h.cpu) h.calibration
