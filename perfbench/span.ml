(* In-memory span log for the traced run.

   One span per call into a layer: name, start, end, parent span and
   request id. Spans live in growable arrays while the run measures and
   are written out as JSON lines once it is over, so recording costs a
   clock read and a few array stores. A disabled log records nothing and
   runs [f] directly: the untraced replay measures the same calls
   without the recording, which is what [trace_overhead] compares. *)

type t = {
  on : bool;
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable reqs : int array;
}

let create ~on =
  let cap = 1024 in
  {
    on;
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0.0;
    stops = Array.make cap 0.0;
    parents = Array.make cap (-1);
    reqs = Array.make cap (-1);
  }

let now = Unix.gettimeofday

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.0;
  t.stops <- extend t.stops 0.0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs (-1)

(* Open a span and return its id; [-1] when the log is off. *)
let enter t ?(parent = -1) ?(req = -1) name =
  if not t.on then -1
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.parents.(id) <- parent;
    t.reqs.(id) <- req;
    t.starts.(id) <- now ();
    t.stops.(id) <- nan;
    id
  end

let leave t id = if id >= 0 then t.stops.(id) <- now ()

let time t ?parent ?req name f =
  let id = enter t ?parent ?req name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

let duration t id = t.stops.(id) -. t.starts.(id)

(* Summed duration, in seconds, of the spans named [name]. *)
let total t name =
  let sum = ref 0.0 in
  for i = 0 to t.n - 1 do
    if String.equal t.names.(i) name then sum := !sum +. duration t i
  done;
  !sum

let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if String.equal t.names.(i) name then acc := duration t i :: !acc
  done;
  Array.of_list !acc

(* Summed duration of the root spans: the time the traced run was busy
   inside any layer call. *)
let busy t =
  let sum = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.parents.(i) < 0 then sum := !sum +. duration t i
  done;
  !sum

(* One JSON line per span, after a [header] line; times in microseconds
   from the first span's start. *)
let write t path ~header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      let origin = if t.n > 0 then t.starts.(0) else 0.0 in
      let us x = (x -. origin) *. 1e6 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%s,\"start_us\":%.1f,\"end_us\":%.1f,\
           \"parent\":%d,\"req\":%d}\n"
          i
          (Emit.json_string t.names.(i))
          (us t.starts.(i)) (us t.stops.(i)) t.parents.(i) t.reqs.(i)
      done)
