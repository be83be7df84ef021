let nk_syscall = 500.0
let guest_epoll_wake = 900.0
let nqe_encode = 60.0
let nqe_decode = 60.0
let guest_poll = 80.0
let guest_interrupt = 1500.0
let guest_idle_window = 20e-6
let ce_poll_iter = 120.0
let ce_switch = 170.0
let ce_xshard = 60.0
let ce_poll_latency = 2e-7
let ce_ring_release_delay = 5e-6
let ce_rate_recheck_delay = 1e-5
let service_poll = 80.0
let hugepage_alloc = 100.0

(* per-byte copy in/out of hugepages *)
let hugepage_copy_base = 0.02

(* quadratic memory-pressure coefficient (Table 6) *)
let hugepage_copy_contention = 0.2

let wake_latency = 5e-7
let guest_sendbuf = 512 * 1024
let nsm_rwnd = 256 * 1024

type t = { ce_batch : int; nsm_zerocopy : bool; ce_hw_offload : bool }

let default = { ce_batch = 4; nsm_zerocopy = false; ce_hw_offload = false }

let hugepage_copy_cycles t pressure n =
  if t.nsm_zerocopy then
    (* page pinning / address translation only; no data movement, so no
       memory-bandwidth contention term *)
    float_of_int n *. 0.002
  else
    float_of_int n
    *. Sim.Pressure.hugepage_copy_cost pressure ~base:hugepage_copy_base
         ~contention:hugepage_copy_contention

let zerocopy t = { t with nsm_zerocopy = true }

let ce_offloaded t = { t with ce_hw_offload = true }
