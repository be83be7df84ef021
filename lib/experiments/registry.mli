(** All paper reproductions by id, for the bench driver and the CLI. *)

type entry = {
  id : string;
  title : string;
  run : ?quick:bool -> unit -> Report.t;
}

val all : entry list
(** In paper order: use cases (Fig 7–10, Tables 2–3), microbenchmarks
    (Fig 11–12), evaluation (Fig 13–21, Tables 4–7). *)

val find : string -> entry option
