(** Render host-tagged {!Nkmon} registries as a {!Report} table, so
    observability snapshots print and export exactly like experiment
    results. *)

val table : ?filter:string -> (string * Nkmon.t) list -> Report.t
(** The table [nk stats] prints: one host-tagged row per metric of every
    source ({!Nkobs.metric_rows} order). A single host is a one-element
    source list. [filter] keeps only rows whose component name starts
    with it (default "": keep everything). One note per source whose
    trace ring dropped events, so truncation shows up in the printed
    table; the [nkmon/trace/dropped_events] row carries the same count
    into the CSV. *)
