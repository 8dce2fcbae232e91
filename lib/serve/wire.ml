type mode = Text | Binary

type error = Closed | Torn of string

let error_message = function
  | Closed -> "connection closed"
  | Torn why -> "torn frame: " ^ why

let default_max_frame = 1 lsl 20
let hard_max_frame = 1 lsl 26
let min_max_frame = 4096

type conn = {
  fd : Unix.file_descr;
  mutable mode : mode;
  mutable max_frame : int;
  (* Read buffer: one [Unix.read] refills a whole segment's worth of
     bytes, so a frame costs O(1) syscalls instead of one per prefix
     byte. [pos, len) is the unread window. *)
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let of_fd ?(mode = Text) ?(max_frame = default_max_frame) fd =
  if max_frame < 1 || max_frame > hard_max_frame then
    invalid_arg "Wire.of_fd: max_frame out of range";
  { fd; mode; max_frame; buf = Bytes.create 8192; pos = 0; len = 0 }

let fd conn = conn.fd
let mode conn = conn.mode
let max_frame conn = conn.max_frame
let buffered conn = conn.pos < conn.len

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* A socket receive timeout (SO_RCVTIMEO) expiring mid-read. Raised out
   of [refill] and converted to [Torn] at every public read entry point,
   so a peer that stalls half way through a frame surfaces as a damaged
   connection, never as an exception escaping the caller's loop. *)
exception Stalled

let stall_guard f =
  try f ()
  with Stalled -> Error (Torn "receive timed out waiting for frame bytes")

let write_all fd bytes =
  let len = String.length bytes in
  let off = ref 0 in
  while !off < len do
    let n =
      restart_on_eintr (fun () ->
          Unix.write_substring fd bytes !off (len - !off))
    in
    off := !off + n
  done

(* [false] on EOF. A peer that reset the connection — it exited or
   closed with SO_LINGER 0 while bytes were still in flight — has closed
   it as surely as one that sent a FIN: ECONNRESET (and EPIPE) reads as
   end of stream, never as an exception escaping the caller's loop. *)
let refill conn =
  let n =
    try
      restart_on_eintr (fun () ->
          Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf))
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Stalled
    | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  conn.pos <- 0;
  conn.len <- n;
  n > 0

let rec read_byte conn =
  if conn.pos < conn.len then begin
    let c = Bytes.get conn.buf conn.pos in
    conn.pos <- conn.pos + 1;
    Some c
  end
  else if refill conn then read_byte conn
  else None

let rec peek_byte conn =
  if conn.pos < conn.len then Some (Bytes.get conn.buf conn.pos)
  else if refill conn then peek_byte conn
  else None

type read_result = Rok of string | Reof_start | Reof_mid

let read_exact conn n =
  let out = Bytes.create n in
  let rec go off =
    if off >= n then Rok (Bytes.unsafe_to_string out)
    else if conn.pos < conn.len then begin
      let take = min (conn.len - conn.pos) (n - off) in
      Bytes.blit conn.buf conn.pos out off take;
      conn.pos <- conn.pos + take;
      go (off + take)
    end
    else if refill conn then go off
    else if off = 0 then Reof_start
    else Reof_mid
  in
  go 0

(* binary framing: 4-byte LE length, payload, 8-byte LE fnv1a64 *)

let binary_frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len + 8) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.set_int64_le b (4 + len) (Numerics.Checksum.fnv1a64 payload);
  Bytes.unsafe_to_string b

let frame_for conn payload =
  if String.length payload > conn.max_frame then
    invalid_arg
      (Printf.sprintf "Wire.send: payload length %d exceeds max frame %d"
         (String.length payload) conn.max_frame);
  match conn.mode with
  | Text -> Robust.Durable.Framed.frame payload
  | Binary -> binary_frame payload

let send conn payload = write_all conn.fd (frame_for conn payload)

let send_many conn payloads =
  (* One write for the whole burst: framing per payload is unchanged,
     only the syscalls are amortized — a receiver cannot tell the
     difference, but a reply batch costs one [write] instead of one per
     frame. *)
  match payloads with
  | [] -> ()
  | [ payload ] -> send conn payload
  | payloads ->
      write_all conn.fd (String.concat "" (List.map (frame_for conn) payloads))

(* The decimal length prefix, ended by the separating space. Kept as the
   raw digit string so the final byte-for-byte comparison against
   [Framed.frame payload] also rejects non-canonical renderings (leading
   zeros) instead of silently normalising them. *)
let read_prefix conn =
  let buf = Buffer.create 8 in
  let rec go () =
    match read_byte conn with
    | None ->
        if Buffer.length buf = 0 then Error Closed
        else Error (Torn "eof inside length prefix")
    | Some ' ' when Buffer.length buf > 0 -> (
        let digits = Buffer.contents buf in
        match int_of_string_opt digits with
        | Some len when len >= 0 && len <= conn.max_frame -> Ok (digits, len)
        | Some len ->
            Error
              (Torn
                 (Printf.sprintf "frame length %d exceeds max frame %d" len
                    conn.max_frame))
        | None -> Error (Torn "unparseable length prefix"))
    | Some ('0' .. '9' as c) ->
        if Buffer.length buf >= 8 then Error (Torn "oversized length prefix")
        else begin
          Buffer.add_char buf c;
          go ()
        end
    | Some _ -> Error (Torn "non-digit in length prefix")
  in
  go ()

let recv_text conn =
  match read_prefix conn with
  | Error _ as e -> e
  | Ok (digits, len) -> (
      (* payload, then " <16-hex>\n". *)
      match read_exact conn (len + 18) with
      | Reof_start | Reof_mid -> Error (Torn "eof inside frame body")
      | Rok body ->
          let payload = String.sub body 0 len in
          let received = digits ^ " " ^ body in
          if String.equal received (Robust.Durable.Framed.frame payload) then
            Ok payload
          else Error (Torn "checksum mismatch"))

let recv_binary conn =
  match read_exact conn 4 with
  | Reof_start -> Error Closed
  | Reof_mid -> Error (Torn "eof inside frame header")
  | Rok header -> (
      let len = Int32.to_int (String.get_int32_le header 0) in
      if len < 0 then Error (Torn (Printf.sprintf "negative frame length %d" len))
      else if len > conn.max_frame then
        Error
          (Torn
             (Printf.sprintf "frame length %d exceeds max frame %d" len
                conn.max_frame))
      else
        match read_exact conn (len + 8) with
        | Reof_start | Reof_mid -> Error (Torn "eof inside frame body")
        | Rok body ->
            let payload = String.sub body 0 len in
            let sum = String.get_int64_le body len in
            if Int64.equal sum (Numerics.Checksum.fnv1a64 payload) then
              Ok payload
            else Error (Torn "checksum mismatch"))

let recv conn =
  stall_guard (fun () ->
      match conn.mode with Text -> recv_text conn | Binary -> recv_binary conn)

(* hello negotiation: 5 bytes each way, [mode byte; 4-byte LE max
   frame]. A text frame always opens with a decimal digit, so a
   non-digit first byte from a fresh connection is unambiguously a
   hello — legacy text clients never send one and are never asked
   to. *)

let hello_char = function Text -> 'T' | Binary -> 'B'

let client_hello conn ~mode ?max_frame () =
  let requested = match max_frame with None -> 0 | Some m -> m in
  if requested < 0 || requested > hard_max_frame then
    invalid_arg "Wire.client_hello: max_frame out of range";
  let hello = Bytes.create 5 in
  Bytes.set hello 0 (hello_char mode);
  Bytes.set_int32_le hello 1 (Int32.of_int requested);
  write_all conn.fd (Bytes.unsafe_to_string hello);
  stall_guard @@ fun () ->
  match peek_byte conn with
  | None -> Error Closed
  | Some '0' .. '9' ->
      (* A pre-negotiation server (or one shedding at admission)
         answered with a legacy text frame; leave it buffered for the
         caller's [recv] and stay in text mode. *)
      Ok false
  | Some _ -> (
      match read_exact conn 5 with
      | Reof_start | Reof_mid -> Error (Torn "eof inside hello ack")
      | Rok ack ->
          if not (Char.equal ack.[0] (hello_char mode)) then
            Error
              (Torn
                 (Printf.sprintf "hello ack mode %C, expected %C" ack.[0]
                    (hello_char mode)))
          else
            let granted = Int32.to_int (String.get_int32_le ack 1) in
            if granted < 1 || granted > hard_max_frame then
              Error
                (Torn
                   (Printf.sprintf "hello ack granted absurd max frame %d"
                      granted))
            else begin
              conn.mode <- mode;
              conn.max_frame <- granted;
              Ok true
            end)

let server_negotiate conn =
  stall_guard @@ fun () ->
  match peek_byte conn with
  | None -> Error Closed
  | Some '0' .. '9' -> Ok () (* legacy text client: nothing consumed *)
  | Some _ -> (
      match read_exact conn 5 with
      | Reof_start | Reof_mid -> Error (Torn "eof inside hello")
      | Rok hello -> (
          match hello.[0] with
          | ('T' | 'B') as m ->
              let requested = Int32.to_int (String.get_int32_le hello 1) in
              if requested < 0 then
                Error
                  (Torn
                     (Printf.sprintf "hello requested negative max frame %d"
                        requested))
              else begin
                (* The grant is clamped into [min_max_frame,
                   hard_max_frame]: a floor as well as a ceiling, because
                   the server must always be able to frame its own
                   replies — a 1-byte grant would make every answer an
                   oversized send and hand the client a remote crash. *)
                let granted =
                  if requested = 0 then default_max_frame
                  else min (max requested min_max_frame) hard_max_frame
                in
                let ack = Bytes.create 5 in
                Bytes.set ack 0 m;
                Bytes.set_int32_le ack 1 (Int32.of_int granted);
                match write_all conn.fd (Bytes.unsafe_to_string ack) with
                | exception
                    Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                    (* The peer hung up right after its hello. *)
                    Error Closed
                | () ->
                    conn.mode <- (if Char.equal m 'B' then Binary else Text);
                    conn.max_frame <- granted;
                    Ok ()
              end
          | c -> Error (Torn (Printf.sprintf "unknown hello mode byte %C" c))))
