let table ?(filter = "") sources =
  let rows =
    List.filter
      (function
        | _host :: component :: _ -> String.starts_with ~prefix:filter component
        | _ -> false)
      (Nkobs.metric_rows sources)
  in
  (* Truncation must be visible in the snapshot itself: a trace ring that
     wrapped silently would make every downstream event count a lie. *)
  let notes =
    List.filter_map
      (fun (host, mon) ->
        let d = Nkmon.dropped_events mon in
        if d = 0 then None
        else Some (Printf.sprintf "host %s: trace ring dropped %d events" host d))
      sources
  in
  Report.make ~id:"stats" ~title:"Nkmon metrics" ~headers:Nkobs.row_headers ~notes rows
