(* Whole-system snapshots: the per-layer images (machine, kernel,
   process) captured at one instant, plus what the fork path needs to
   rebuild an address space over the forked memory (executable, kernel
   config, page-table root).

   A runner boots a workload once, pauses it, captures, and forks any
   number of variants from the warm image instead of re-booting each
   from reset: physical pages are shared copy-on-write, so a fork costs
   O(touched pages), not O(memory size). *)

module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Page_table = Roload_mem.Page_table
module Mmu = Roload_mem.Mmu
module Phys_mem = Roload_mem.Phys_mem

type t = {
  sn_machine : Machine.image;
  sn_kernel : Kernel.image;
  sn_process : Process.image;
  sn_exe : Roload_obj.Exe.t;
  sn_kconfig : Kernel.config;
  sn_root_ppn : int;
}

let capture ~machine ~kernel ~process =
  {
    sn_machine = Machine.snapshot machine;
    sn_kernel = Kernel.snapshot kernel;
    sn_process = Process.snapshot process;
    sn_exe = Process.exe process;
    sn_kconfig = Kernel.config kernel;
    sn_root_ppn = Page_table.root_ppn (Process.page_table process);
  }

(* Put the {e same} objects back into the captured state.  Identities
   are preserved (including compiled traces), so resumed execution is
   byte-identical to the original run. *)
let restore t ~machine ~kernel ~process =
  Machine.restore machine t.sn_machine;
  Kernel.restore kernel t.sn_kernel;
  Process.restore process t.sn_process

(* A fresh, fully independent system in the captured state.  The page
   table already lives inside the forked memory; only the walker and the
   MMU (seeded from the captured TLB/fault state) are rebuilt. *)
let fork t =
  let machine = Machine.fork t.sn_machine in
  let kernel = Kernel.fork t.sn_kernel ~machine ~config:t.sn_kconfig in
  let mem = Machine.mem machine in
  let page_table =
    Page_table.with_root ~mem ~root_ppn:t.sn_root_ppn ~alloc_frame:(fun () ->
        Kernel.alloc_frame kernel)
  in
  let mconfig = Machine.config machine in
  let mmu =
    Mmu.create ~page_table ~itlb_entries:mconfig.Config.itlb_entries
      ~dtlb_entries:mconfig.Config.dtlb_entries
      ~roload_check_enabled:mconfig.Config.roload_processor
  in
  (match Machine.mmu_image t.sn_machine with
  | Some im -> Mmu.restore mmu im
  | None -> ());
  let process = Process.fork t.sn_process ~exe:t.sn_exe ~page_table ~mmu ~phys:mem in
  Kernel.adopt kernel process;
  (machine, kernel, process)

let mem_image t = Machine.mem_image t.sn_machine

(* The differential-state comparator: page-by-page diff with the first
   differing byte of each page — the silent-corruption localizer of
   chaos verdicts. *)
let diff a b = Phys_mem.diff_images (mem_image a) (mem_image b)
