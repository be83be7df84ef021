type pctl = {
  p_label : string;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
}

type t = {
  id : string;
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
  percentiles : pctl list;
}

let make ~id ~title ~headers ?(notes = []) ?(percentiles = []) rows =
  { id; title; headers; rows; notes; percentiles }

let percentiles_of ~label h =
  let p q = Nkutil.Histogram.percentile h q *. 1e3 in
  { p_label = label; p50_ms = p 50.0; p90_ms = p 90.0; p99_ms = p 99.0; p999_ms = p 99.9 }

let print fmt t =
  let all = t.headers :: t.rows in
  let ncols = List.fold_left (fun acc r -> Int.max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell)) row)
    all;
  let total_width =
    Array.fold_left ( + ) 0 widths + (3 * Int.max 0 (ncols - 1))
  in
  let line c = Format.fprintf fmt "%s@." (String.make (Int.max total_width 40) c) in
  Format.fprintf fmt "@.";
  line '=';
  Format.fprintf fmt "[%s] %s@." t.id t.title;
  line '=';
  let print_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Format.fprintf fmt " | ";
        Format.fprintf fmt "%-*s" widths.(i) cell)
      row;
    Format.fprintf fmt "@."
  in
  print_row t.headers;
  line '-';
  List.iter print_row t.rows;
  if t.notes <> [] then begin
    Format.fprintf fmt "@.";
    List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) t.notes
  end

let to_csv t =
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  (t.headers :: t.rows)
  |> List.map (fun row -> String.concat "," (List.map escape row))
  |> String.concat "\n"

let to_json t =
  let str s = "\"" ^ Nkmon.json_escape s ^ "\"" in
  let arr items = "[" ^ String.concat ", " items ^ "]" in
  let row r = arr (List.map str r) in
  (* Fixed decimals keep the rendering deterministic across runs. *)
  let pctl p =
    Printf.sprintf
      "{\"label\": %s, \"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": %.4f, \
       \"p999_ms\": %.4f}"
      (str p.p_label) p.p50_ms p.p90_ms p.p99_ms p.p999_ms
  in
  String.concat "\n"
    ([
       "{";
       Printf.sprintf "  \"id\": %s," (str t.id);
       Printf.sprintf "  \"title\": %s," (str t.title);
       Printf.sprintf "  \"headers\": %s," (row t.headers);
       Printf.sprintf "  \"rows\": %s," (arr (List.map row t.rows));
     ]
    @ (if t.percentiles = [] then []
       else
         [
           Printf.sprintf "  \"percentiles\": %s," (arr (List.map pctl t.percentiles));
         ])
    @ [ Printf.sprintf "  \"notes\": %s" (row t.notes); "}" ])

let cell_f ?(decimals = 1) v = Printf.sprintf "%.*f" decimals v

let cell_gbps v = Printf.sprintf "%.1f" v

let cell_krps v = Printf.sprintf "%.1fK" (v /. 1e3)

let cell_pct v = Printf.sprintf "%.0f%%" (v *. 100.0)

(* ---- virtual-time series rendered as one row each ----------------------- *)

let sparkline values =
  let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let peak = Array.fold_left Float.max 1e-9 values in
  String.init (Array.length values) (fun i ->
      let level = int_of_float (values.(i) /. peak *. 7.0) in
      ramp.(Int.max 0 (Int.min 7 level)))

let digits values =
  String.init (Array.length values) (fun i ->
      let v = Int.max 0 (Int.min 9 (int_of_float (Float.round values.(i)))) in
      Char.chr (Char.code '0' + v))

let bucket ~k ~duration series =
  let sums = Array.make k 0.0 and counts = Array.make k 0 in
  List.iter
    (fun (time, v) ->
      let i =
        Int.min (k - 1) (Int.max 0 (int_of_float (time /. duration *. float_of_int k)))
      in
      sums.(i) <- sums.(i) +. v;
      counts.(i) <- counts.(i) + 1)
    series;
  let out = Array.make k 0.0 in
  let prev = ref 0.0 in
  for i = 0 to k - 1 do
    if counts.(i) > 0 then prev := sums.(i) /. float_of_int counts.(i);
    out.(i) <- !prev
  done;
  out

let series_row name values render =
  let fmin = Array.fold_left Float.min infinity values in
  let fmax = Array.fold_left Float.max neg_infinity values in
  [ name; Printf.sprintf "%.2f" fmin; Printf.sprintf "%.2f" fmax; render values ]
