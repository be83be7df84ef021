type channel = { c2s : Nkutil.Byte_fifo.t; s2c : Nkutil.Byte_fifo.t }

module Key = struct
  type t = Addr.Flow.t * int

  let equal (fa, ia) (fb, ib) = ia = ib && Addr.Flow.equal fa fb
  let hash (f, i) = (Addr.Flow.hash f * 31) + i
end

module Table = Hashtbl.Make (Key)

type t = channel Table.t

let create () = Table.create 64

let register t ~flow ~isn =
  let ch = { c2s = Nkutil.Byte_fifo.create (); s2c = Nkutil.Byte_fifo.create () } in
  Table.replace t (flow, isn) ch;
  ch

let lookup t ~flow ~isn = Table.find_opt t (flow, isn)

let remove t ~flow ~isn = Table.remove t (flow, isn)
