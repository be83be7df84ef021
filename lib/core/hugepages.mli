(** Shared hugepage region for application payloads (paper §4.5).

    One region is shared per VM–NSM tuple: GuestLib copies outgoing payload
    in and passes ⟨offset, size⟩ through NQEs; ServiceLib copies incoming
    payload in for the VM to read. The region is backed by a real [bytes]
    buffer managed by a first-fit allocator over coalesced free holes, so
    offsets in NQEs are genuine and the Fig 12 copy microbenchmark measures
    actual memory traffic. Synthetic ([Zeros]) payloads allocate extents
    but skip the byte copies. *)

type t

type extent = { offset : int; len : int }

val create : ?page_size:int -> ?pages:int -> ?mon:Nkmon.t -> ?region:string -> unit -> t
(** Defaults: 2 MB pages × 32. (The paper uses 128 pages; experiments that
    need more pass [~pages].) [region] names the instance in Nkmon
    ([hugepages/<region>/...] gauges, alloc/free trace events). *)

val capacity : t -> int

val bytes_in_use : t -> int

val allocations : t -> int
(** Number of live extents. *)

val alloc : t -> int -> extent option
(** [alloc t n] returns an extent of exactly [n] bytes, or [None] when no
    contiguous space fits (caller backpressures and retries). *)

val free : t -> extent -> unit
(** Return an extent. Freeing an extent that is not live raises
    [Invalid_argument] (catches double-frees in tests). *)

val write_payload : t -> extent -> Tcpstack.Types.payload -> unit
(** Copy a payload into an extent ([Zeros] writes nothing). The payload
    must fit. *)

val write_prefix : t -> extent -> string -> unit
(** Copy the first [extent.len] bytes of a string into the extent (a send
    that takes part of the caller's payload), with no intermediate copy. *)

val read_payload : t -> extent -> pos:int -> len:int -> synthetic:bool ->
  Tcpstack.Types.payload
(** Read [len] bytes starting at [pos] within the extent; returns [Zeros]
    without touching memory when [synthetic]. Real bytes are copied out:
    the region is mutable and its extents are reused, so a payload must
    not alias it. *)

val blit_between : src:t -> src_extent:extent -> dst:t -> dst_extent:extent -> len:int -> unit
(** Raw copy between regions (the shared-memory NSM's data path, §6.4). *)
