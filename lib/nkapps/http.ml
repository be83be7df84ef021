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

module Parser = struct
  type msg = {
    start_line : string;
    headers : (string * string) list;
    content_length : int;
    keepalive : bool;
  }

  type state = Headers | Body of { msg : msg; mutable remaining : int }

  type t = { buf : Buffer.t; mutable state : state }

  let create () = { buf = Buffer.create 256; state = Headers }

  let in_body t = match t.state with Body _ -> true | Headers -> false

  let body_remaining t = match t.state with Body b -> b.remaining | Headers -> 0

  let parse_headers block =
    match String.split_on_char '\n' block with
    | [] -> failwith "http: empty header block"
    | start_line :: rest ->
        let strip s =
          let s = if String.length s > 0 && s.[String.length s - 1] = '\r' then
              String.sub s 0 (String.length s - 1)
            else s
          in
          String.trim s
        in
        let headers =
          List.filter_map
            (fun line ->
              let line = strip line in
              if line = "" then None
              else
                match String.index_opt line ':' with
                | None -> failwith ("http: malformed header line: " ^ line)
                | Some i ->
                    Some
                      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                        String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
            rest
        in
        let find name = List.assoc_opt name headers in
        let content_length =
          match find "content-length" with
          | None -> 0
          | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
        in
        let keepalive =
          match find "connection" with
          | Some v -> String.lowercase_ascii v <> "close"
          | None -> true (* HTTP/1.1 default *)
        in
        { start_line = strip start_line; headers; content_length; keepalive }

  (* Find "\r\n\r\n" in the buffer; return its end offset. *)
  let find_headers_end buf =
    let s = Buffer.contents buf in
    let rec loop i =
      if i + 3 >= String.length s then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
        Some (i + 4)
      else loop (i + 1)
    in
    loop 0

  let feed t payload =
    let completed = ref [] in
    let feed_zeros n =
      let remaining = ref n in
      while !remaining > 0 do
        match t.state with
        | Headers -> failwith "http: synthetic bytes inside a header block"
        | Body b ->
            let take = Int.min !remaining b.remaining in
            b.remaining <- b.remaining - take;
            remaining := !remaining - take;
            if take = 0 then failwith "http: stray body bytes";
            if b.remaining = 0 then begin
              completed := b.msg :: !completed;
              t.state <- Headers
            end
      done
    in
    let rec consume_buffer () =
      match t.state with
      | Body b ->
          let have = Buffer.length t.buf in
          let take = Int.min have b.remaining in
          if take > 0 then begin
            let rest = Buffer.sub t.buf take (have - take) in
            Buffer.clear t.buf;
            Buffer.add_string t.buf rest;
            b.remaining <- b.remaining - take
          end;
          if b.remaining = 0 then begin
            completed := b.msg :: !completed;
            t.state <- Headers;
            if Buffer.length t.buf > 0 then consume_buffer ()
          end
      | Headers -> (
          match find_headers_end t.buf with
          | None -> ()
          | Some hend ->
              let all = Buffer.contents t.buf in
              let head = String.sub all 0 (hend - 4) in
              let rest = String.sub all hend (String.length all - hend) in
              Buffer.clear t.buf;
              Buffer.add_string t.buf rest;
              let msg = parse_headers head in
              if msg.content_length = 0 then begin
                completed := msg :: !completed;
                if Buffer.length t.buf > 0 then consume_buffer ()
              end
              else begin
                t.state <- Body { msg; remaining = msg.content_length };
                consume_buffer ()
              end)
    in
    (match payload with
    | Tcpstack.Types.Data s ->
        (* Real bytes inside a body still only count; route them through the
           body accounting first. *)
        let i = ref 0 in
        let n = String.length s in
        while !i < n do
          match t.state with
          | Body b when Buffer.length t.buf = 0 ->
              let take = Int.min (n - !i) b.remaining in
              b.remaining <- b.remaining - take;
              i := !i + take;
              if b.remaining = 0 then begin
                completed := b.msg :: !completed;
                t.state <- Headers
              end;
              if take = 0 then begin
                (* Body complete but stuck: treat the rest as new headers. *)
                Buffer.add_substring t.buf s !i (n - !i);
                i := n;
                consume_buffer ()
              end
          | Headers | Body _ ->
              Buffer.add_substring t.buf s !i (n - !i);
              i := n;
              consume_buffer ()
        done
    | Tcpstack.Types.Zeros n -> feed_zeros n);
    List.rev !completed
end

let header (msg : Parser.msg) name =
  List.assoc_opt (String.lowercase_ascii name) msg.Parser.headers
