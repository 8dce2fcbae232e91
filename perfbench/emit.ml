(* Statistics helpers and the result line the benchmark ends with. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an already sorted array; 0 when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail of a sorted sample: its 99th percentile when at least ten
   samples lie beyond it; otherwise the highest percentile that has ten
   samples beyond it, and the median when that would be below it. *)
let tail a =
  let q = Float.min 0.99 (1.0 -. (10.0 /. float_of_int (Array.length a))) in
  if q <= 0.5 then median a else percentile a q

(* Growable float buffer for per-request samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

let ratio num den = if den > 0.0 then num /. den else 0.0

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e -> Buffer.add_char b '?'
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Human-readable lines first, then the one-line JSON result that must
   be the last line of standard output. A value that is not a finite
   number is a defect of the run: it prints as 0 and fails the run. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%-34s %18.6f %s\n" m.name m.value m.unit_)
    metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  let correct = correct && finite in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           let v = if Float.is_finite m.value then m.value else 0.0 in
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
             (json_string m.name) v (json_string m.unit_))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
