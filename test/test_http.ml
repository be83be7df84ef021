(* HTTP codec unit tests. *)

module P = Nkapps.Http.Parser
module Types = Tcpstack.Types

let feed_all p payloads = List.concat_map (P.feed p) payloads

let simple_request () =
  let p = P.create () in
  let raw = Nkapps.Http.request ~path:"/index.html" () in
  match feed_all p [ Types.Data raw ] with
  | [ msg ] ->
      Alcotest.(check string) "start line" "GET /index.html HTTP/1.1" msg.P.start_line;
      Alcotest.(check int) "no body" 0 msg.P.content_length;
      Alcotest.(check bool) "non-keepalive" false msg.P.keepalive;
      Alcotest.(check (option string)) "host header" (Some "netkernel.test")
        (Nkapps.Http.header msg "Host")
  | other -> Alcotest.failf "expected 1 message, got %d" (List.length other)

let split_across_chunks () =
  let p = P.create () in
  let raw = Nkapps.Http.request ~path:"/a" ~keepalive:true () in
  let n = String.length raw in
  let one = String.sub raw 0 (n / 2) and two = String.sub raw (n / 2) (n - (n / 2)) in
  (match P.feed p (Types.Data one) with
  | [] -> ()
  | _ -> Alcotest.fail "half a request must not complete");
  match P.feed p (Types.Data two) with
  | [ msg ] -> Alcotest.(check bool) "keepalive" true msg.P.keepalive
  | _ -> Alcotest.fail "second half completes the request"

let response_with_synthetic_body () =
  let p = P.create () in
  let head = Nkapps.Http.response_header ~content_length:1000 () in
  (match P.feed p (Types.Data head) with
  | [] -> ()
  | _ -> Alcotest.fail "headers alone must not complete");
  (match P.feed p (Types.Zeros 400) with
  | [] -> ()
  | _ -> Alcotest.fail "partial body must not complete");
  Alcotest.(check bool) "in body" true (P.in_body p);
  Alcotest.(check int) "remaining" 600 (P.body_remaining p);
  match P.feed p (Types.Zeros 600) with
  | [ msg ] ->
      Alcotest.(check int) "content length" 1000 msg.P.content_length;
      Alcotest.(check string) "status line" "HTTP/1.1 200 OK" msg.P.start_line
  | _ -> Alcotest.fail "body completion yields the message"

let pipelined_messages () =
  let p = P.create () in
  let r1 = Nkapps.Http.request ~path:"/1" ~keepalive:true () in
  let r2 = Nkapps.Http.request ~path:"/2" ~keepalive:true () in
  match P.feed p (Types.Data (r1 ^ r2)) with
  | [ a; b ] ->
      Alcotest.(check string) "first" "GET /1 HTTP/1.1" a.P.start_line;
      Alcotest.(check string) "second" "GET /2 HTTP/1.1" b.P.start_line
  | other -> Alcotest.failf "expected 2 messages, got %d" (List.length other)

let body_then_next_header () =
  let p = P.create () in
  let head = Nkapps.Http.response_header ~content_length:10 ~keepalive:true () in
  let next = Nkapps.Http.response_header ~content_length:0 ~keepalive:false () in
  (* body bytes arrive as real data glued to the next response *)
  let msgs = feed_all p [ Types.Data (head ^ String.make 10 'b' ^ next) ] in
  match msgs with
  | [ a; b ] ->
      Alcotest.(check int) "first body" 10 a.P.content_length;
      Alcotest.(check bool) "second non-keepalive" false b.P.keepalive
  | other -> Alcotest.failf "expected 2 messages, got %d" (List.length other)

let malformed_raises () =
  let p = P.create () in
  match P.feed p (Types.Data "not http at all\r\nbroken line\r\n\r\n") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed headers must raise"

let zeros_in_headers_raise () =
  let p = P.create () in
  match P.feed p (Types.Zeros 64) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "synthetic bytes cannot form headers"

(* A response that arrives whole in one chunk is parsed where it lies:
   creating a parser and feeding it one 1,127-byte response (a 1 KB body
   glued to its head, as the HTTP server sends it) allocates only the
   message, its start line and the parser. *)
let parse_alloc () =
  let raw = Nkapps.Http.response_header ~content_length:1024 () ^ String.make 1024 'x' in
  Alcotest.(check int) "response bytes" 1127 (String.length raw);
  let chunk = Types.Data raw in
  let last = ref [] in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    last := P.feed (P.create ()) chunk
  done;
  let words = (Gc.minor_words () -. w0) /. 1_000.0 in
  (match !last with
  | [ msg ] -> Alcotest.(check int) "content length" 1024 msg.P.content_length
  | other -> Alcotest.failf "expected 1 message, got %d" (List.length other));
  if words > 100.0 then
    Alcotest.failf "%.1f minor words per parsed response, want <= 100" words

(* ---- one stream, every chunking ------------------------------------------ *)

(* A pipelined stream of requests and responses. A response body is real
   bytes (with terminators inside, which a body must not end on), a
   synthetic run, or empty; requests carry none. *)
type body = Empty | Real of int | Synthetic of int

type spec = { request : bool; path : string; keepalive : bool; body : body }

let body_len = function Empty -> 0 | Real n | Synthetic n -> n

let head_of sp =
  if sp.request then Nkapps.Http.request ~path:sp.path ~keepalive:sp.keepalive ()
  else
    Nkapps.Http.response_header ~content_length:(body_len sp.body) ~keepalive:sp.keepalive ()

(* A line without a colon just before the block's closing CRLF. *)
let break_head head =
  String.sub head 0 (String.length head - 2) ^ "broken line\r\n\r\n"

(* What a caller can observe of a message. *)
let view msg =
  ( msg.P.start_line,
    msg.P.content_length,
    msg.P.keepalive,
    Nkapps.Http.header msg "Host",
    Nkapps.Http.header msg "Connection" )

let expected sp =
  ( (if sp.request then "GET " ^ sp.path ^ " HTTP/1.1" else "HTTP/1.1 200 OK"),
    body_len sp.body,
    sp.keepalive,
    (if sp.request then Some "netkernel.test" else None),
    Some (if sp.keepalive then "keep-alive" else "close") )

(* The stream as maximal runs: adjacent real bytes merge into one [Data]. *)
let runs_of ?broken specs =
  let runs = ref [] and pending = Buffer.create 256 in
  let flush () =
    if Buffer.length pending > 0 then begin
      runs := Types.Data (Buffer.contents pending) :: !runs;
      Buffer.clear pending
    end
  in
  List.iteri
    (fun i sp ->
      let head = head_of sp in
      Buffer.add_string pending (if broken = Some i then break_head head else head);
      match sp.body with
      | Empty -> ()
      | Real n ->
          Buffer.add_string pending (String.init n (fun j -> "\r\n\r\nab".[j mod 6]))
      | Synthetic n ->
          flush ();
          runs := Types.Zeros n :: !runs)
    specs;
  flush ();
  List.rev !runs

let total runs = List.fold_left (fun acc r -> acc + Types.payload_len r) 0 runs

(* Offsets strictly inside or at the edges of every header terminator. *)
let terminator_offsets runs =
  let acc = ref [] and base = ref 0 in
  List.iter
    (fun r ->
      (match r with
      | Types.Data s ->
          String.iteri
            (fun i _ ->
              if i + 4 <= String.length s && String.sub s i 4 = "\r\n\r\n" then
                for k = 0 to 4 do
                  acc := (!base + i + k) :: !acc
                done)
            s
      | Types.Zeros _ -> ());
      base := !base + Types.payload_len r)
    runs;
  List.sort_uniq Int.compare !acc

(* Split the runs at absolute offsets (0 and the end are no cut). *)
let cut runs offsets =
  let offsets = List.sort_uniq Int.compare offsets in
  let piece r a b =
    match r with
    | Types.Data s -> Types.Data (String.sub s a (b - a))
    | Types.Zeros _ -> Types.Zeros (b - a)
  in
  let rec go base runs offsets acc =
    match runs with
    | [] -> List.rev acc
    | r :: rest ->
        let len = Types.payload_len r in
        let inside = List.filter (fun o -> o > base && o < base + len) offsets in
        let bounds = (0 :: List.map (fun o -> o - base) inside) @ [ len ] in
        let rec pieces = function
          | a :: (b :: _ as tl) -> piece r a b :: pieces tl
          | [ _ ] | [] -> []
        in
        go (base + len) rest offsets (List.rev_append (pieces bounds) acc)
  in
  go 0 runs offsets []

let feed_views chunks =
  let p = P.create () in
  let msgs = List.concat_map (P.feed p) chunks in
  if P.in_body p || P.body_remaining p <> 0 then failwith "parser left inside a body";
  List.map view msgs

(* Every chunking the property tries: the random cuts, each terminator
   offset alone, all of them at once, and byte by byte. *)
let chunkings runs cuts =
  let n = total runs in
  let ends = terminator_offsets runs in
  (runs :: cut runs cuts :: cut runs ends :: cut runs (List.init (Int.max 0 (n - 1)) succ)
   :: List.map (fun o -> cut runs [ o ]) ends)

let spec_gen =
  QCheck.Gen.(
    let* request = bool in
    let* keepalive = bool in
    let* path = map (fun i -> "/" ^ string_of_int i) (int_bound 999) in
    let* body =
      if request then return Empty
      else
        frequency
          [ (1, return Empty); (2, map (fun n -> Real n) (int_range 1 300));
            (2, map (fun n -> Synthetic n) (int_range 1 300)) ]
    in
    return { request; path; keepalive; body })

let stream_gen =
  QCheck.Gen.(
    let* specs = list_size (int_range 1 5) spec_gen in
    let* broken = int_bound (List.length specs - 1) in
    let n = total (runs_of specs) in
    let* cuts = list_size (int_bound 12) (int_range 0 n) in
    return (specs, broken, cuts))

let stream_arb =
  QCheck.make stream_gen ~print:(fun (specs, broken, cuts) ->
      Printf.sprintf "%d messages, broken #%d, cuts [%s]: %s" (List.length specs) broken
        (String.concat ";" (List.map string_of_int cuts))
        (String.concat " | "
           (List.map
              (fun sp ->
                Printf.sprintf "%s %s ka=%b body=%s"
                  (if sp.request then "req" else "resp")
                  sp.path sp.keepalive
                  (match sp.body with
                  | Empty -> "empty"
                  | Real n -> Printf.sprintf "real %d" n
                  | Synthetic n -> Printf.sprintf "zeros %d" n))
              specs)))

let chunking_qcheck =
  QCheck.Test.make ~name:"every chunking parses like one whole feed" ~count:200 stream_arb
    (fun (specs, _, cuts) ->
      let runs = runs_of specs in
      let want = List.map expected specs in
      List.for_all (fun chunks -> feed_views chunks = want) (chunkings runs cuts))

let malformed_qcheck =
  QCheck.Test.make ~name:"a malformed header line raises under every chunking" ~count:200
    stream_arb (fun (specs, broken, cuts) ->
      let runs = runs_of ~broken specs in
      List.for_all
        (fun chunks ->
          match feed_views chunks with exception Failure _ -> true | _ -> false)
        (chunkings runs cuts))

let tests =
  [
    Alcotest.test_case "simple request" `Quick simple_request;
    Alcotest.test_case "split across chunks" `Quick split_across_chunks;
    Alcotest.test_case "response with synthetic body" `Quick response_with_synthetic_body;
    Alcotest.test_case "pipelined messages" `Quick pipelined_messages;
    Alcotest.test_case "body then next header" `Quick body_then_next_header;
    Alcotest.test_case "malformed raises" `Quick malformed_raises;
    Alcotest.test_case "zeros in headers raise" `Quick zeros_in_headers_raise;
    Alcotest.test_case "parsing a whole response allocates <= 100 words" `Quick parse_alloc;
    QCheck_alcotest.to_alcotest chunking_qcheck;
    QCheck_alcotest.to_alcotest malformed_qcheck;
  ]
