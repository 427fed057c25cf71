(* The layer probe of the traced pass: microbenchmarks of the memory
   system's hot-path calls, the snapshot operations on the chaos
   victim's warm ladder image, the campaign's own set-up steps, and a
   chunked run of the chaos victim.  Every call is a public function
   timed from outside.  It runs on every workload's traced pass, so each
   per-layer metric exists on every workload; where a workload does not
   call a layer itself, its figure comes from here. *)

module Kernel = Roload_kernel.Kernel
module Snapshot = Roload_kernel.Snapshot
module Mmu = Roload_mem.Mmu
module Tlb = Roload_mem.Tlb
module Perm = Roload_mem.Perm
module Phys_mem = Roload_mem.Phys_mem
module Page_table = Roload_mem.Page_table
module Cache = Roload_cache.Cache
module Campaign = Roload_inject.Campaign
module Pass = Roload_passes.Pass

let reps = 7

(* Host ns per call of each function, [iters] calls per repetition: the
   median over [reps] repetitions, taken in turn so that host drift hits
   every function alike. *)
let ns_per_call ~iters fs =
  let samples = List.map (fun _ -> Array.make reps 0.) fs in
  for r = 0 to reps - 1 do
    List.iter2
      (fun f a ->
        let t0 = Host.now () in
        for _ = 1 to iters do
          f ()
        done;
        a.(r) <- (Host.now () -. t0) *. 1e9 /. float_of_int iters)
      fs samples
  done;
  List.map Host.median samples

let median_us ~n f =
  Host.median
    (Array.init n (fun _ ->
         let _, dt = Host.time f in
         dt *. 1e6))

type micro = {
  translate_ns : float;  (** D-TLB hit, plain load *)
  translate_roload_ns : float;  (** D-TLB hit, ld.ro with the page's key *)
  tlb_lookup_ns : float;
  cache_access_ns : float;  (** L1 hit *)
  read_u64_ns : float;
}

let roload_key = 5

(* One keyed read-only page behind a fresh Sv39 table and MMU; both
   translations must hit the D-TLB and agree on the physical address, or
   the probe itself is wrong. *)
let micro () =
  let mem = Phys_mem.create ~size:(1 lsl 20) in
  let next = ref 1 in
  let alloc_frame () =
    let f = !next in
    incr next;
    f
  in
  let pt = Page_table.create ~mem ~alloc_frame in
  let va = 0x40_0000 in
  let ppn = alloc_frame () in
  Page_table.map_page pt ~va ~ppn ~perms:Perm.ro ~user:true ~key:roload_key;
  let mmu =
    Mmu.create ~page_table:pt ~itlb_entries:32 ~dtlb_entries:32 ~roload_check_enabled:true
  in
  let pa access =
    match Mmu.translate mmu ~access va with
    | Ok t -> t.Mmu.pa
    | Error f -> failwith ("layer probe: " ^ Mmu.fault_to_string f)
  in
  if pa Perm.Load <> pa (Perm.Roload roload_key) then failwith "layer probe: ld.ro and ld disagree";
  let vpn = va lsr Page_table.page_shift in
  let tlb = Mmu.dtlb mmu in
  if Tlb.lookup tlb vpn = None then failwith "layer probe: D-TLB miss after warm-up";
  let cache = Cache.create ~name:"probe" Roload_cache.Hierarchy.default_l1_config in
  ignore (Cache.access cache ~addr:0x1000 ~write:false);
  let addr = ppn * Page_table.page_size in
  Phys_mem.write_u64 mem addr 0x0123_4567_89ab_cdefL;
  match
    ns_per_call ~iters:200_000
      [
        (fun () -> ignore (Sys.opaque_identity (Mmu.translate mmu ~access:Perm.Load va)));
        (fun () ->
          ignore (Sys.opaque_identity (Mmu.translate mmu ~access:(Perm.Roload roload_key) va)));
        (fun () -> ignore (Sys.opaque_identity (Tlb.lookup tlb vpn)));
        (fun () -> ignore (Sys.opaque_identity (Cache.access cache ~addr:0x1000 ~write:false)));
        (fun () -> ignore (Sys.opaque_identity (Phys_mem.read_u64 mem addr)));
      ]
  with
  | [ translate_ns; translate_roload_ns; tlb_lookup_ns; cache_access_ns; read_u64_ns ] ->
    { translate_ns; translate_roload_ns; tlb_lookup_ns; cache_access_ns; read_u64_ns }
  | _ -> assert false

type inject = {
  compile_victim_ms : float;
  baseline_ms : float;
  ladder_ms : float;
  capture_us : float;
  fork_us : float;
  restore_us : float;
  diff_us : float;
}

(* The campaign's set-up steps on the ICall victim, then the snapshot
   operations on the warm image its ladder captures half way through. *)
let inject () =
  let exe, compile_s = Host.time (fun () -> Campaign.compile_victim Pass.Icall) in
  let (baseline, _), baseline_s = Host.time (fun () -> Campaign.baseline_run_full exe) in
  let half = Int64.div baseline.Kernel.instructions 2L in
  let ladder, ladder_s = Host.time (fun () -> Campaign.build_ladder ~triggers:[ half ] exe) in
  let snap = List.assoc half ladder in
  let n = 31 in
  let fork_us = median_us ~n (fun () -> Snapshot.fork snap) in
  let machine, kernel, process = Snapshot.fork snap in
  let capture_us = median_us ~n (fun () -> Snapshot.capture ~machine ~kernel ~process) in
  let restore_us = median_us ~n (fun () -> Snapshot.restore snap ~machine ~kernel ~process) in
  (* diff against the same system run on to the end: the pages the
     second half of the run dirtied *)
  ignore (Kernel.run kernel process);
  let later = Snapshot.capture ~machine ~kernel ~process in
  if Snapshot.diff snap later = [] then failwith "layer probe: no page changed after the ladder";
  let diff_us = median_us ~n (fun () -> Snapshot.diff snap later) in
  {
    compile_victim_ms = compile_s *. 1e3;
    baseline_ms = baseline_s *. 1e3;
    ladder_ms = ladder_s *. 1e3;
    capture_us;
    fork_us;
    restore_us;
    diff_us;
  }

type datapath = {
  warmup_ms : float;  (** host ms of the first 1k instructions after boot *)
  ns_per_inst : float;  (** over one whole run in a single [Kernel.run] *)
  dp_insts : int;
  dp_minor_words : float;
  dp_promoted_words : float;
  dp_metrics : Roload_obs.Metrics.t;
}

(* The chaos victim: its first 1k instructions from boot (cold decode and
   trace caches), then a whole run in one call, as a campaign baseline
   runs it.  The whole run is not chunked: a short chunk leaves the
   traced engine too little fuel to enter its traces. *)
let datapath () =
  let exe = Campaign.compile_victim Pass.Icall in
  let warmup = ref nan and run_s = ref nan in
  ignore
    (Workloads.run_chunked ~limit:1_000L ~chunk:1_000 exe ~on_chunk:(fun dt _ -> warmup := dt));
  let g0 = Host.gc () in
  let o, m = Workloads.run_chunked ~chunk:max_int exe ~on_chunk:(fun dt _ -> run_s := dt) in
  let g = Host.gc_diff g0 (Host.gc ()) in
  let insts = Int64.to_int o.Kernel.instructions in
  {
    warmup_ms = !warmup *. 1e3;
    ns_per_inst = !run_s *. 1e9 /. float_of_int insts;
    dp_insts = insts;
    dp_minor_words = g.Host.minor_words;
    dp_promoted_words = g.Host.promoted_words;
    dp_metrics = m;
  }

(* Per-cell host times of a small chaos campaign, for workloads that run
   no campaign of their own. *)
let cells () =
  let _, op_ms, retries =
    Workloads.timed_campaign (fun hook ->
        Campaign.run
          { Campaign.default_config with
            seed = 1L; count = 40; jobs = Some 1; sabotage = Some hook })
  in
  (op_ms, retries)

type t = {
  micro : micro;
  inject : inject;
  datapath : datapath;
  probe_cells_ms : float array;
  probe_retries : int;
}

let run () =
  let micro = micro () in
  let inject = inject () in
  let datapath = datapath () in
  let probe_cells_ms, probe_retries = cells () in
  { micro; inject; datapath; probe_cells_ms; probe_retries }
