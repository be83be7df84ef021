let request ~path ?(keepalive = false) () =
  Printf.sprintf
    "GET %s HTTP/1.1\r\nHost: netkernel.test\r\nUser-Agent: nk-ab\r\nAccept: */*\r\n%s\r\n"
    path
    (if keepalive then "Connection: keep-alive\r\n" else "Connection: close\r\n")

let response_header ~content_length ?(keepalive = false) () =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\nServer: nk-nginx\r\nContent-Type: text/html\r\nContent-Length: %d\r\n%s\r\n"
    content_length
    (if keepalive then "Connection: keep-alive\r\n" else "Connection: close\r\n")

(* ---- scanning a header block in place ----------------------------------- *)

(* Lines are split at '\n' and trimmed of [String.trim]'s whitespace, so a
   line reads the same wherever its bytes lie. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec skip_space s i stop =
  if i < stop && is_space s.[i] then skip_space s (i + 1) stop else i

let rec back_space s start j =
  if j > start && is_space s.[j - 1] then back_space s start (j - 1) else j

(* Index of the first [c] in [i, stop), or [stop]. *)
let rec index_in s i stop c =
  if i >= stop || s.[i] = c then i else index_in s (i + 1) stop c

let rec equal_ci_from s a name i =
  i >= String.length name
  || Char.lowercase_ascii s.[a + i] = Char.lowercase_ascii name.[i]
     && equal_ci_from s a name (i + 1)

(* [s.[a .. b)] equals [name], ASCII case ignored. *)
let equal_ci s a b name = b - a = String.length name && equal_ci_from s a name 0

(* A Content-Length value; 0 when it is not a number. *)
let length_value s a b =
  match int_of_string_opt (String.sub s a (b - a)) with Some n -> n | None -> 0

module Parser = struct
  type msg = {
    start_line : string;
    content_length : int;
    keepalive : bool;
    head : string;
    head_pos : int;
    head_len : int;
  }

  (* Between messages [remaining] is 0; inside a body it counts the bytes
     [body] still owes. [pending] holds the start of a header block whose
     end has not arrived; it is made at the first such block. *)
  type t = {
    mutable pending : Buffer.t option;
    mutable body : msg;
    mutable remaining : int;
  }

  let no_msg =
    { start_line = ""; content_length = 0; keepalive = true; head = ""; head_pos = 0;
      head_len = 0 }

  let create () = { pending = None; body = no_msg; remaining = 0 }

  let in_body t = t.remaining > 0

  let body_remaining t = t.remaining

  (* The header lines of a block, up to [stop]: every non-blank line needs a
     colon; the first Content-Length and the first Connection count. *)
  let rec header_lines s a stop ~start_line ~head_pos ~cl ~cl_seen ~ka ~ka_seen =
    if a >= stop then
      { start_line; content_length = cl; keepalive = ka; head = s; head_pos;
        head_len = stop - head_pos }
    else begin
      let eol = index_in s a stop '\n' in
      let la = skip_space s a eol in
      let lb = back_space s la eol in
      if la = lb then
        header_lines s (eol + 1) stop ~start_line ~head_pos ~cl ~cl_seen ~ka ~ka_seen
      else begin
        let colon = index_in s la lb ':' in
        if colon = lb then
          failwith ("http: malformed header line: " ^ String.sub s la (lb - la));
        let nb = back_space s la colon and va = skip_space s (colon + 1) lb in
        if (not cl_seen) && equal_ci s la nb "content-length" then
          header_lines s (eol + 1) stop ~start_line ~head_pos ~cl:(length_value s va lb)
            ~cl_seen:true ~ka ~ka_seen
        else if (not ka_seen) && equal_ci s la nb "connection" then
          header_lines s (eol + 1) stop ~start_line ~head_pos ~cl ~cl_seen
            ~ka:(not (equal_ci s va lb "close")) ~ka_seen:true
        else header_lines s (eol + 1) stop ~start_line ~head_pos ~cl ~cl_seen ~ka ~ka_seen
      end
    end

  (* The block [pos, pos + len) of [s], without its terminator. *)
  let parse_block s pos len =
    let stop = pos + len in
    let eol = index_in s pos stop '\n' in
    let la = skip_space s pos eol in
    let start_line = String.sub s la (back_space s la eol - la) in
    header_lines s (eol + 1) stop ~start_line ~head_pos:pos ~cl:0 ~cl_seen:false ~ka:true
      ~ka_seen:false

  (* Index just past the first "\r\n\r\n" in [s.[i .. n)], or -1. *)
  let rec find_end s i n =
    if i + 4 > n then -1
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      i + 4
    else find_end s (i + 1) n

  (* Byte [k] of [buf] followed by [s.[i ..]]. *)
  let joined buf s i k =
    let held = Buffer.length buf in
    if k < held then Buffer.nth buf k else s.[i + k - held]

  (* [find_end] across [buf] (which holds no terminator) followed by
     [s.[i .. n)], searched from [j] in that joined sequence; the result
     indexes [s]. *)
  let rec find_end_across buf s i n j =
    let held = Buffer.length buf in
    if j + 4 > held + n - i then -1
    else if
      joined buf s i j = '\r'
      && joined buf s i (j + 1) = '\n'
      && joined buf s i (j + 2) = '\r'
      && joined buf s i (j + 3) = '\n'
    then i + j + 4 - held
    else find_end_across buf s i n (j + 1)

  let finish_body t acc =
    let msg = t.body in
    t.body <- no_msg;
    msg :: acc

  let header_block t s pos len acc =
    let msg = parse_block s pos len in
    if msg.content_length > 0 then begin
      t.body <- msg;
      t.remaining <- msg.content_length;
      acc
    end
    else msg :: acc

  let hold t s i n =
    let buf =
      match t.pending with
      | Some buf -> buf
      | None ->
          let buf = Buffer.create 256 in
          t.pending <- Some buf;
          buf
    in
    Buffer.add_substring buf s i (n - i)

  (* [acc] collects completed messages, newest first. *)
  let rec feed_data t s i n acc =
    if i >= n then acc
    else if t.remaining > 0 then begin
      (* Real bytes inside a body still only count. *)
      let take = Int.min (n - i) t.remaining in
      t.remaining <- t.remaining - take;
      feed_data t s (i + take) n (if t.remaining = 0 then finish_body t acc else acc)
    end
    else
      match t.pending with
      | Some buf when Buffer.length buf > 0 -> (
          match find_end_across buf s i n (Int.max 0 (Buffer.length buf - 3)) with
          | -1 ->
              Buffer.add_substring buf s i (n - i);
              acc
          | e ->
              Buffer.add_substring buf s i (e - i);
              let block = Buffer.contents buf in
              Buffer.clear buf;
              feed_data t s e n (header_block t block 0 (String.length block - 4) acc))
      | Some _ | None -> (
          match find_end s i n with
          | -1 ->
              hold t s i n;
              acc
          | e -> feed_data t s e n (header_block t s i (e - 4 - i) acc))

  let rec feed_zeros t n acc =
    if n <= 0 then acc
    else if t.remaining = 0 then failwith "http: synthetic bytes inside a header block"
    else begin
      let take = Int.min n t.remaining in
      t.remaining <- t.remaining - take;
      feed_zeros t (n - take) (if t.remaining = 0 then finish_body t acc else acc)
    end

  let feed t payload =
    let acc =
      match payload with
      | Tcpstack.Types.Data s -> feed_data t s 0 (String.length s) []
      | Tcpstack.Types.Zeros n -> feed_zeros t n []
    in
    match acc with [] | [ _ ] -> acc | _ :: _ :: _ -> List.rev acc
end

let rec find_header s a stop name =
  if a >= stop then None
  else begin
    let eol = index_in s a stop '\n' in
    let la = skip_space s a eol in
    let lb = back_space s la eol in
    let colon = index_in s la lb ':' in
    if colon < lb && equal_ci s la (back_space s la colon) name then
      let va = skip_space s (colon + 1) lb in
      Some (String.sub s va (lb - va))
    else find_header s (eol + 1) stop name
  end

let header (msg : Parser.msg) name =
  let s = msg.Parser.head and stop = msg.Parser.head_pos + msg.Parser.head_len in
  (* The first line is the start line, not a header. *)
  find_header s (index_in s msg.Parser.head_pos stop '\n' + 1) stop name
