(** Deterministic (key-sorted) iteration over [Hashtbl].

    [Hashtbl.iter]/[Hashtbl.fold] visit entries in bucket order, which
    depends on insertion/removal history — any observable effect of that
    order is hidden nondeterminism. These wrappers snapshot the bindings,
    sort them with a caller-supplied key comparator and visit in ascending
    key order. nklint rule D2 enforces their use (or an explicit
    [(* nklint: ordered-ok *)] waiver) at every iteration site.

    Cost: O(n) snapshot + O(n log n) sort per call — fine for control-plane
    and reporting paths, which is where whole-table iteration happens. *)

val pair : ('a -> 'a -> int) -> ('b -> 'b -> int) -> 'a * 'b -> 'a * 'b -> int
(** Lexicographic comparator on pairs, for composite keys. *)

val triple :
  ('a -> 'a -> int) ->
  ('b -> 'b -> int) ->
  ('c -> 'c -> int) ->
  'a * 'b * 'c ->
  'a * 'b * 'c ->
  int

val bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings sorted by key (ascending). With duplicate bindings per key
    (from [Hashtbl.add]), the most recent one sorts first. *)

val fold :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** Folds in ascending key order (left fold). *)
