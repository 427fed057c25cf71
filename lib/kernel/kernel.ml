(* The kernel: frame allocation, the program loader (which applies the
   executable's section keys to page-table entries), syscall servicing —
   including the key-aware mmap/mprotect — and trap triage.

   Two kernel variants exist, mirroring the paper's system matrix:
   [roload_kernel = false] is the stock kernel (no key plumbing, no ROLoad
   fault triage); [roload_kernel = true] is the modified kernel of §III-B.
   Kernel work is charged to the machine's cycle counter through a small
   cost model so the "processor+kernel modified" system of §V-B shows its
   (tiny) load-time key-setup overhead as a measurement, not an
   assumption. *)

module Perm = Roload_mem.Perm
module Page_table = Roload_mem.Page_table
module Mmu = Roload_mem.Mmu
module Phys_mem = Roload_mem.Phys_mem
module Machine = Roload_machine.Machine
module Cpu = Roload_machine.Cpu
module Trap = Roload_machine.Trap
module Config = Roload_machine.Config
module Exe = Roload_obj.Exe
module Reg = Roload_isa.Reg

type config = {
  roload_kernel : bool;
  syscall_cycles : int; (* trap entry/exit + dispatch *)
  page_map_cycles : int; (* per page mapped by the loader/mmap *)
  page_key_cycles : int; (* extra per page whose key is set (modified kernel) *)
  fault_cycles : int; (* page-fault handling before the process dies *)
  context_switch_cycles : int; (* scheduler: save/restore + address-space swap *)
  queue_cycles_per_waiter : int;
      (* request-device contention: serialization charged per hand-out for
         every other live worker assigned to the same shard *)
}

let default_config =
  {
    roload_kernel = true;
    syscall_cycles = 80;
    page_map_cycles = 25;
    page_key_cycles = 2;
    fault_cycles = 400;
    context_switch_cycles = 120;
    queue_cycles_per_waiter = 4;
  }

let stock_kernel_config = { default_config with roload_kernel = false }

(* ---- the process table ----

   A task is the scheduler's view of a process: its saved register file,
   its lifecycle state, and the request it is currently serving (if any).
   The classic states apply — ready, blocked in wait(), zombie (exited
   but unreaped), reaped. *)

type task_state =
  | Task_ready
  | Task_waiting (* blocked in wait(); pc still points at the ecall *)
  | Task_waiting_req (* blocked in read_request until a redelivery or drain *)
  | Task_zombie of int (* terminal status awaiting a parent's wait() *)
  | Task_reaped

(* A supervised worker's birth certificate: a pristine clone of its
   address space taken at fork time, plus the registers/pc it was born
   with.  Reincarnation clones a fresh address space from [b_proc] (the
   template itself is never scheduled and never mutated), so a restart
   starts from exactly the state the first incarnation did — tamper
   applied to a dead incarnation's PTEs/TLB/globals dies with it. *)
type birth = {
  b_proc : Process.t;
  b_regs : int64 array;
  b_pc : int;
}

type task = {
  pid : int;
  parent : int; (* 0 for the root task, which has no parent *)
  mutable proc : Process.t; (* replaced wholesale on reincarnation *)
  t_regs : int64 array; (* saved register file (32 slots) *)
  mutable t_pc : int;
  mutable t_state : task_state;
  mutable t_inflight : int; (* request id being served; -1 when none *)
  mutable t_req_start : int64; (* cycle stamp when the request was handed out *)
  mutable t_asid : int;
      (* trace-table owner; starts as pid, refreshed on reincarnation
         because compiled traces capture the MMU of the address space
         they were compiled under and ASIDs must never be reused *)
  mutable t_restarts : int; (* reincarnations consumed by this pid *)
  mutable t_birth : birth option; (* present iff forked under supervision *)
}

(* Supervision policy for forked workers: [max_restarts] bounds
   per-worker reincarnations; [deadline_cycles] > 0 arms the per-request
   watchdog (a worker whose inflight request is older than the deadline
   is killed at the next scheduler entry — deterministic, because cycle
   counts at kernel entries are exact across engines). *)
type supervision = {
  max_restarts : int;
  deadline_cycles : int64; (* 0 = no deadline watchdog *)
}

type t = {
  machine : Machine.t;
  config : config;
  mutable next_frame : int;
  mutable current : Process.t option;
  mutable syscall_count : int;
  (* multi-process state (empty/unused in single-process runs) *)
  mutable tasks : task list; (* pid-ascending; the round-robin order *)
  mutable next_pid : int;
  mutable scheduled : task option; (* whose registers live in the CPU *)
  console : Buffer.t; (* interleaved write() output of every task *)
  (* the simulated request-source device, sharded: pending ids live in
     per-shard FIFO queues (id mod shards); workers pull from their own
     shard first and steal in deterministic order when it runs dry *)
  mutable req_stream : int array; (* payloads, by request id *)
  mutable req_queues : int Queue.t array; (* pending ids per shard *)
  mutable req_done : int; (* requests completed *)
  mutable req_latencies : int64 array; (* by request id; -1 = unfinished *)
  (* per-request delivery accounting (at-least-once bookkeeping) *)
  mutable req_handouts : int array;
  mutable req_redeliveries : int array;
  mutable req_completions : int array;
  mutable req_has_result : bool array; (* an explicit ack committed a result *)
  mutable req_result : int64 array; (* first committed result *)
  mutable req_diverged : bool array; (* a later ack committed a different result *)
  mutable inflight_count : int; (* handed out, not yet acked *)
  mutable handouts_total : int; (* hand-outs across all requests (trigger clock) *)
  mutable committed_sum : int64; (* fold of first results, mod 1_000_003 *)
  mutable supervision : supervision option;
  mutable restart_count : int; (* reincarnations across all pids *)
  mutable req_hook : (int * (t -> unit)) option;
      (* one-shot chaos trigger: fires inside read_request just before
         hand-out number [at] (deterministic across engines) *)
  (* frames shared read-only across address spaces after fork, with the
     number of address spaces referencing them (only entries >= 2 are
     kept); mprotect splits a shared frame before granting write access *)
  frame_refs : (int, int) Hashtbl.t;
}

exception Out_of_frames

let create ~machine ~config =
  (* frame 0 stays unused so a PPN of 0 is never valid *)
  {
    machine;
    config;
    next_frame = 1;
    current = None;
    syscall_count = 0;
    tasks = [];
    next_pid = 1;
    scheduled = None;
    console = Buffer.create 256;
    req_stream = [||];
    req_queues = [||];
    req_done = 0;
    req_latencies = [||];
    req_handouts = [||];
    req_redeliveries = [||];
    req_completions = [||];
    req_has_result = [||];
    req_result = [||];
    req_diverged = [||];
    inflight_count = 0;
    handouts_total = 0;
    committed_sum = 0L;
    supervision = None;
    restart_count = 0;
    req_hook = None;
    frame_refs = Hashtbl.create 64;
  }

let machine t = t.machine
let config t = t.config
let syscall_count t = t.syscall_count

(* ---- snapshots ----

   The kernel itself only owns two counters; the scheduled process and
   the machine snapshot at their own layers.  [fork] builds a sibling
   kernel over a forked machine; [adopt] installs a forked process
   without the pc/sp reset (and cache flush) [schedule] performs — the
   forked CPU and caches already hold the captured state. *)

type image = {
  ik_next_frame : int;
  ik_syscall_count : int;
}

let snapshot t = { ik_next_frame = t.next_frame; ik_syscall_count = t.syscall_count }

let restore t img =
  t.next_frame <- img.ik_next_frame;
  t.syscall_count <- img.ik_syscall_count

let fork img ~machine ~config =
  {
    machine;
    config;
    next_frame = img.ik_next_frame;
    current = None;
    syscall_count = img.ik_syscall_count;
    tasks = [];
    next_pid = 1;
    scheduled = None;
    console = Buffer.create 256;
    req_stream = [||];
    req_queues = [||];
    req_done = 0;
    req_latencies = [||];
    req_handouts = [||];
    req_redeliveries = [||];
    req_completions = [||];
    req_has_result = [||];
    req_result = [||];
    req_diverged = [||];
    inflight_count = 0;
    handouts_total = 0;
    committed_sum = 0L;
    supervision = None;
    restart_count = 0;
    req_hook = None;
    frame_refs = Hashtbl.create 64;
  }

let adopt t process =
  t.current <- Some process;
  Machine.attach_mmu t.machine (Process.mmu process)

(* Events ride the machine's tracer; the kernel and CPU share one
   timeline (kernel work is charged to the machine cycle counter). *)
let emit t ev =
  match Machine.tracer t.machine with
  | None -> ()
  | Some tr -> Roload_obs.Tracer.emit tr ev

let charge t cycles = Cpu.add_cycles (Machine.cpu t.machine) cycles

let alloc_frame t =
  let mem = Machine.mem t.machine in
  let frames = Phys_mem.size mem / Page_table.page_size in
  if t.next_frame >= frames then raise Out_of_frames;
  let f = t.next_frame in
  t.next_frame <- t.next_frame + 1;
  Phys_mem.zero_frame mem f;
  f

(* ---------- loader ---------- *)

let effective_key t key = if t.config.roload_kernel then key else 0

let map_fresh_page t process ~va ~perms ~key =
  let ppn = alloc_frame t in
  Page_table.map_page (Process.page_table process) ~va ~ppn ~perms ~user:true
    ~key:(effective_key t key);
  Process.account_mapped process 1;
  charge t t.config.page_map_cycles;
  if t.config.roload_kernel && key <> 0 then charge t t.config.page_key_cycles;
  ppn

let load t exe =
  let mem = Machine.mem t.machine in
  let page_table = Page_table.create ~mem ~alloc_frame:(fun () -> alloc_frame t) in
  let machine_config = Machine.config t.machine in
  let mmu =
    Mmu.create ~page_table ~itlb_entries:machine_config.Config.itlb_entries
      ~dtlb_entries:machine_config.Config.dtlb_entries
      ~roload_check_enabled:machine_config.Config.roload_processor
  in
  let brk_start = ref 0 in
  let process = Process.create ~exe ~page_table ~mmu ~phys:mem ~brk:0 in
  (* map segments page by page, copying data *)
  List.iter
    (fun (seg : Exe.segment) ->
      let npages = Exe.segment_pages seg in
      for i = 0 to npages - 1 do
        let va = seg.Exe.vaddr + (i * Page_table.page_size) in
        let ppn = map_fresh_page t process ~va ~perms:seg.Exe.perms ~key:seg.Exe.key in
        let data_off = i * Page_table.page_size in
        let remaining = String.length seg.Exe.data - data_off in
        if remaining > 0 then begin
          let chunk = min remaining Page_table.page_size in
          Phys_mem.write_string mem ~addr:(ppn * Page_table.page_size)
            (String.sub seg.Exe.data data_off chunk)
        end
      done;
      brk_start := max !brk_start (seg.Exe.vaddr + (npages * Page_table.page_size)))
    exe.Exe.segments;
  Process.init_brk process !brk_start;
  (* map the stack *)
  let stack_base = Process.stack_top - (Process.stack_pages * Page_table.page_size) in
  for i = 0 to Process.stack_pages - 1 do
    ignore
      (map_fresh_page t process ~va:(stack_base + (i * Page_table.page_size)) ~perms:Perm.rw
         ~key:0)
  done;
  process

(* Install the process on the machine and initialize its CPU state. *)
let schedule t process =
  t.current <- Some process;
  Machine.set_mmu t.machine (Some (Process.mmu process));
  let cpu = Machine.cpu t.machine in
  Cpu.set_pc cpu (Process.exe process).Exe.entry;
  Cpu.set cpu Reg.sp (Int64.of_int (Process.stack_top - 64))

(* ---------- syscalls ---------- *)

(* Unwind a partially mapped fresh region: unmap whatever got mapped and
   roll the page accounting back, so a failed brk/mmap is all-or-nothing
   as far as the address space and the accounting are concerned.  The
   data frames already allocated leak — this kernel never frees frames,
   and intermediate page-table frames allocated along the way may since
   have become live for other mappings — which wastes simulated physical
   memory but can never alias a future mapping. *)
let unwind_fresh_range process ~first_va ~npages ~accounting =
  let page_table = Process.page_table process in
  let mapped, peak = accounting in
  for i = 0 to npages - 1 do
    let va = first_va + (i * Page_table.page_size) in
    match Page_table.walk page_table va with
    | Ok _ ->
      Page_table.unmap_page page_table ~va;
      Mmu.invalidate (Process.mmu process) ~va
    | Error (Page_table.Not_mapped | Page_table.Bad_alignment) -> ()
  done;
  Process.rollback_accounting process ~mapped ~peak

let handle_brk t process new_brk =
  let old_brk = Process.brk process in
  if new_brk <= old_brk then old_brk
  else begin
    let first = Roload_util.Bits.align_up old_brk Page_table.page_size in
    let last = Roload_util.Bits.align_up new_brk Page_table.page_size in
    let n = (last - first) / Page_table.page_size in
    let accounting = Process.accounting process in
    (try
       for i = 0 to n - 1 do
         ignore
           (map_fresh_page t process ~va:(first + (i * Page_table.page_size)) ~perms:Perm.rw
              ~key:0)
       done;
       Process.set_brk process new_brk
     with Out_of_frames ->
       (* failed grows leave no half-mapped pages behind *)
       unwind_fresh_range process ~first_va:first ~npages:n ~accounting);
    Process.brk process
  end

let handle_mmap t process ~len ~prot ~key =
  if len <= 0 then Syscall.einval
  else if key <> 0 && not t.config.roload_kernel then Syscall.enosys
  else begin
    let npages = (len + Page_table.page_size - 1) / Page_table.page_size in
    match Process.alloc_mmap_region process npages with
    | None -> Syscall.enomem (* the region would cross the stack guard *)
    | Some addr -> (
      let accounting = Process.accounting process in
      try
        for i = 0 to npages - 1 do
          ignore
            (map_fresh_page t process ~va:(addr + (i * Page_table.page_size))
               ~perms:(Syscall.perms_of_prot prot) ~key)
        done;
        addr
      with Out_of_frames ->
        unwind_fresh_range process ~first_va:addr ~npages ~accounting;
        Process.retract_mmap_region process ~addr ~npages;
        Syscall.enomem)
  end

(* Copy-on-mprotect: a frame shared read-only across address spaces
   (fork) must be split before any process gains write access to it, or
   the writes would leak into the sibling address spaces.  Returns true
   when it installed a private copy (with the final perms/key). *)
let split_shared_frame t process ~va ~pte ~perms ~key =
  let ppn = Roload_mem.Pte.ppn pte in
  match Hashtbl.find_opt t.frame_refs ppn with
  | Some refs when refs >= 2 ->
    let fresh = alloc_frame t in
    Phys_mem.copy_frame (Machine.mem t.machine) ~src:ppn ~dst:fresh;
    Page_table.map_page (Process.page_table process) ~va ~ppn:fresh ~perms ~user:true ~key;
    if refs = 2 then Hashtbl.remove t.frame_refs ppn
    else Hashtbl.replace t.frame_refs ppn (refs - 1);
    charge t t.config.page_map_cycles;
    true
  | _ -> false

let handle_mprotect t process ~addr ~len ~prot ~key =
  if addr land (Page_table.page_size - 1) <> 0 || len < 0 then Syscall.einval
  else if key <> 0 && not t.config.roload_kernel then Syscall.enosys
  else begin
    let npages = (len + Page_table.page_size - 1) / Page_table.page_size in
    let page_table = Process.page_table process in
    (* validate the whole range up front: mprotect is all-or-nothing, so
       a failing call must leave every PTE exactly as it was *)
    let valid = ref true in
    for i = 0 to npages - 1 do
      match Page_table.walk page_table (addr + (i * Page_table.page_size)) with
      | Ok _ -> ()
      | Error (Page_table.Not_mapped | Page_table.Bad_alignment) -> valid := false
    done;
    if not !valid then Syscall.einval
    else begin
      let perms = Syscall.perms_of_prot prot in
      for i = 0 to npages - 1 do
        let va = addr + (i * Page_table.page_size) in
        let split =
          perms.Perm.w
          &&
          match Page_table.walk page_table va with
          | Ok { pte; _ } ->
            split_shared_frame t process ~va ~pte ~perms ~key:(effective_key t key)
          | Error _ -> false
        in
        if not split then begin
          (match Page_table.set_perms page_table ~va ~perms with
          | Ok () -> ()
          | Error _ -> assert false (* validated above *));
          if t.config.roload_kernel then
            match Page_table.set_key page_table ~va ~key with
            | Ok () -> ()
            | Error _ -> assert false
        end;
        if t.config.roload_kernel then charge t t.config.page_key_cycles;
        Mmu.invalidate (Process.mmu process) ~va
      done;
      0
    end
  end

let handle_write t process ~buf ~len =
  if len < 0 then Syscall.einval
  else begin
    (* copy out through the page table; an unmapped byte anywhere in the
       buffer fails the whole write with EFAULT — nothing is copied and
       no copy cycles are charged *)
    match Process.read_bytes process ~va:buf ~len with
    | s ->
      Process.append_output process s;
      Buffer.add_string t.console s;
      charge t (len / 16);
      len
    | exception Not_found -> Syscall.efault
  end

let handle_syscall t process =
  let cpu = Machine.cpu t.machine in
  let arg r = Int64.to_int (Cpu.get cpu r) in
  charge t t.config.syscall_cycles;
  t.syscall_count <- t.syscall_count + 1;
  let num = arg Reg.a7 in
  let ret =
    if num = Syscall.sys_exit then begin
      Process.set_status process (Process.Exited (arg Reg.a0));
      0
    end
    else if num = Syscall.sys_write then handle_write t process ~buf:(arg Reg.a1) ~len:(arg Reg.a2)
    else if num = Syscall.sys_brk then handle_brk t process (arg Reg.a0)
    else if num = Syscall.sys_mmap then
      handle_mmap t process ~len:(arg Reg.a1) ~prot:(arg Reg.a2) ~key:(arg Reg.a4)
    else if num = Syscall.sys_mprotect then
      handle_mprotect t process ~addr:(arg Reg.a0) ~len:(arg Reg.a1) ~prot:(arg Reg.a2)
        ~key:(arg Reg.a3)
    else Syscall.enosys
  in
  emit t (Roload_obs.Event.Syscall { number = num; name = Syscall.name num; ret });
  Cpu.set cpu Reg.a0 (Int64.of_int ret);
  (* resume after the ecall (ecall is never compressed) *)
  Cpu.set_pc cpu (Cpu.pc cpu + 4)

(* ---------- trap triage ---------- *)

(* The fault path of the modified kernel (§III-B): ROLoad faults are
   distinguished from benign load faults and the process is killed with a
   SIGSEGV carrying the triage detail.  The stock kernel cannot decode the
   new fault class; it reports a plain access violation. *)
let signal_of_trap t (trap : Trap.t) : Signal.t option =
  match trap with
  | Trap.Ecall -> None
  | Trap.Breakpoint -> None
  | Trap.Illegal_instruction { pc; info } -> Some (Signal.Sigill { pc; info })
  | Trap.Misaligned_access { va; _ } -> Some (Signal.Sigbus { va })
  | Trap.Fetch_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Fetch }))
  | Trap.Load_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Load }))
  | Trap.Store_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Store }))
  | Trap.Roload_page_fault { pc; va; key_requested; page_key; page_perms } ->
    if t.config.roload_kernel then
      Some
        (Signal.Sigsegv
           (Signal.Roload_violation { va; pc; key_requested; page_key; page_perms }))
    else
      (* stock kernel: same mechanical outcome (the access did fault), but
         without the dedicated triage *)
      Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Load }))

let triage_kind (signal : Signal.t) =
  match signal with
  | Signal.Sigill _ -> "sigill"
  | Signal.Sigbus _ -> "sigbus"
  | Signal.Sigsegv (Signal.Roload_violation _) -> "roload"
  | Signal.Sigsegv (Signal.Access_violation _) -> "segv"
  | Signal.Sigkill _ -> "kill"

let trap_pc (trap : Trap.t) =
  match trap with
  | Trap.Ecall | Trap.Breakpoint -> 0
  | Trap.Illegal_instruction { pc; _ }
  | Trap.Misaligned_access { pc; _ }
  | Trap.Fetch_page_fault { pc; _ }
  | Trap.Load_page_fault { pc; _ }
  | Trap.Store_page_fault { pc; _ }
  | Trap.Roload_page_fault { pc; _ } ->
    pc

(* ---------- run loop ---------- *)

type run_limit = { max_instructions : int64 }

let no_limit = { max_instructions = Int64.max_int }

type run_outcome = {
  status : Process.status;
  instructions : int64;
  cycles : int64;
  peak_kib : int;
  output : string;
}

let outcome_of t process =
  let cpu = Machine.cpu t.machine in
  {
    status = Process.status process;
    instructions = Cpu.instret cpu;
    cycles = Cpu.cycles cpu;
    peak_kib = Process.peak_kib process;
    output = Process.output process;
  }

(* Run the scheduled process until it exits, is killed, or hits a
   caller-supplied stop condition (used by the attack tooling to pause at
   a chosen pc). *)
let run ?(limit = no_limit) ?stop_at_pc t process =
  let cpu = Machine.cpu t.machine in
  let rec loop () =
    if Process.status process <> Process.Running then outcome_of t process
    else
      let remaining = Int64.sub limit.max_instructions (Cpu.instret cpu) in
      if Int64.compare remaining 0L <= 0 then outcome_of t process
      else
        (* hand the machine a fuel budget so it can run whole blocks
           between kernel checks *)
        let fuel =
          if Int64.compare remaining (Int64.of_int max_int) >= 0 then max_int
          else Int64.to_int remaining
        in
        match Machine.run_steps ?stop_at_pc ~fuel t.machine with
        | Machine.Exhausted -> loop () (* limit re-checked above *)
        | Machine.Stop_pc -> outcome_of t process
        | Machine.Trap Trap.Ecall ->
          handle_syscall t process;
          loop ()
        | Machine.Trap Trap.Breakpoint ->
          (* treat ebreak as an abort: kill the process *)
          emit t (Roload_obs.Event.Fault_triage { kind = "sigill"; pc = Cpu.pc cpu });
          Process.set_status process
            (Process.Killed (Signal.Sigill { pc = Cpu.pc cpu; info = "ebreak" }));
          outcome_of t process
        | Machine.Trap trap -> (
          charge t t.config.fault_cycles;
          match signal_of_trap t trap with
          | Some signal ->
            emit t
              (Roload_obs.Event.Fault_triage
                 { kind = triage_kind signal; pc = trap_pc trap });
            Process.set_status process (Process.Killed signal);
            outcome_of t process
          | None -> loop ())
  in
  loop ()

(* Convenience: load, schedule, run. *)
let exec ?(limit = no_limit) t exe =
  let process = load t exe in
  schedule t process;
  let outcome = run ~limit t process in
  (process, outcome)

(* ---------- multi-process scheduling ---------- *)

let console t = Buffer.contents t.console

let set_requests ?(shards = 1) t payloads =
  let shards = max 1 shards in
  let n = Array.length payloads in
  t.req_stream <- Array.copy payloads;
  t.req_queues <- Array.init shards (fun _ -> Queue.create ());
  for id = 0 to n - 1 do
    Queue.push id t.req_queues.(id mod shards)
  done;
  t.req_done <- 0;
  t.req_latencies <- Array.make n (-1L);
  t.req_handouts <- Array.make n 0;
  t.req_redeliveries <- Array.make n 0;
  t.req_completions <- Array.make n 0;
  t.req_has_result <- Array.make n false;
  t.req_result <- Array.make n 0L;
  t.req_diverged <- Array.make n false;
  t.inflight_count <- 0;
  t.handouts_total <- 0;
  t.committed_sum <- 0L

let requests_served t = t.req_done

let request_latencies t =
  Array.of_seq (Seq.filter (fun l -> l >= 0L) (Array.to_seq t.req_latencies))

(* Per-request delivery record (the availability table's raw material). *)
type request_record = {
  rr_payload : int;
  rr_handouts : int;
  rr_redeliveries : int;
  rr_completions : int;
  rr_result : int64 option; (* first explicitly committed result *)
  rr_diverged : bool; (* a later ack committed a different result *)
  rr_latency : int64; (* hand-out -> first completion, cycles; -1 = never *)
}

let request_records t =
  Array.init (Array.length t.req_stream) (fun id ->
      {
        rr_payload = t.req_stream.(id);
        rr_handouts = t.req_handouts.(id);
        rr_redeliveries = t.req_redeliveries.(id);
        rr_completions = t.req_completions.(id);
        rr_result = (if t.req_has_result.(id) then Some t.req_result.(id) else None);
        rr_diverged = t.req_diverged.(id);
        rr_latency = t.req_latencies.(id);
      })

let server_checksum t = t.committed_sum
let set_supervision t sup = t.supervision <- sup
let restarts_total t = t.restart_count
let set_request_hook t ~at hook = t.req_hook <- Some (max 0 at, hook)

let task_statuses t = List.map (fun tk -> (tk.pid, Process.status tk.proc)) t.tasks
let task_restarts t = List.map (fun tk -> (tk.pid, tk.t_restarts)) t.tasks
let find_task t pid = List.find_opt (fun tk -> tk.pid = pid) t.tasks
let task_process t pid = Option.map (fun tk -> tk.proc) (find_task t pid)

let task_inflight t pid =
  match find_task t pid with Some tk -> tk.t_inflight | None -> -1

let worker_pids t =
  List.filter_map (fun tk -> if tk.parent <> 0 then Some tk.pid else None) t.tasks

let kill_task t ~pid ~info =
  match find_task t pid with
  | Some tk
    when (match tk.t_state with Task_zombie _ | Task_reaped -> false | _ -> true)
         && Process.status tk.proc = Process.Running ->
    Process.set_status tk.proc (Process.Killed (Signal.Sigkill { info }));
    true
  | _ -> false

(* Fork the parent's address space inside the same physical memory.
   Writable pages get a fresh frame holding a copy of the parent's
   ("copy on fork"; [Phys_mem.copy_frame] makes that copy O(1) on the
   host, deferring the byte copy to the first store); read-only pages — text, rodata, the GFPT —
   share the parent's frame under a reference count, so the PA-keyed
   decode/block caches stay warm across the fork and a later
   mprotect-to-writable knows to split the frame first. *)
let clone_address_space t parent =
  let mem = Machine.mem t.machine in
  let parent_pt = Process.page_table parent in
  let page_table = Page_table.create ~mem ~alloc_frame:(fun () -> alloc_frame t) in
  Page_table.iter_mappings parent_pt ~f:(fun ~va ~pte ->
      let ppn = Roload_mem.Pte.ppn pte in
      let child_ppn =
        if Roload_mem.Pte.writable pte then begin
          let fresh = alloc_frame t in
          Phys_mem.copy_frame mem ~src:ppn ~dst:fresh;
          fresh
        end
        else begin
          (match Hashtbl.find_opt t.frame_refs ppn with
          | Some n -> Hashtbl.replace t.frame_refs ppn (n + 1)
          | None -> Hashtbl.replace t.frame_refs ppn 2);
          ppn
        end
      in
      let key = Roload_mem.Pte.key pte in
      Page_table.map_page page_table ~va ~ppn:child_ppn
        ~perms:(Roload_mem.Pte.perms pte) ~user:(Roload_mem.Pte.user pte) ~key;
      charge t t.config.page_map_cycles;
      if t.config.roload_kernel && key <> 0 then charge t t.config.page_key_cycles);
  page_table

let clone_process t parent =
  let page_table = clone_address_space t parent in
  let machine_config = Machine.config t.machine in
  let mmu =
    Mmu.create ~page_table ~itlb_entries:machine_config.Config.itlb_entries
      ~dtlb_entries:machine_config.Config.dtlb_entries
      ~roload_check_enabled:machine_config.Config.roload_processor
  in
  let child =
    Process.fork (Process.snapshot parent) ~exe:(Process.exe parent) ~page_table ~mmu
      ~phys:(Machine.mem t.machine)
  in
  Process.clear_output child;
  child

let new_task t ~pid ~parent proc ~regs ~pc =
  let tk =
    {
      pid;
      parent;
      proc;
      t_regs = Array.copy regs;
      t_pc = pc;
      t_state = Task_ready;
      t_inflight = -1;
      t_req_start = 0L;
      t_asid = pid;
      t_restarts = 0;
      t_birth = None;
    }
  in
  t.tasks <- t.tasks @ [ tk ];
  tk

(* Register an already-loaded process as the root task of a scheduler
   run, reusing [schedule]'s pc/sp setup. *)
let spawn_root t process =
  schedule t process;
  let cpu = Machine.cpu t.machine in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let tk = new_task t ~pid ~parent:0 process ~regs:(Cpu.regs cpu) ~pc:(Cpu.pc cpu) in
  (* bind the machine's live compiled-trace table to this address space *)
  Machine.switch_context t.machine ~asid:pid ~mmu:(Process.mmu process);
  t.scheduled <- Some tk

let context_switch t tk =
  match t.scheduled with
  | Some cur when cur == tk -> ()
  | prev ->
    let cpu = Machine.cpu t.machine in
    (match prev with
    | Some cur ->
      Array.blit (Cpu.regs cpu) 0 cur.t_regs 0 32;
      cur.t_pc <- Cpu.pc cpu
    | None -> ());
    Array.blit tk.t_regs 0 (Cpu.regs cpu) 0 32;
    Cpu.set_pc cpu tk.t_pc;
    Machine.switch_context t.machine ~asid:tk.t_asid ~mmu:(Process.mmu tk.proc);
    t.scheduled <- Some tk;
    t.current <- Some tk.proc;
    charge t t.config.context_switch_cycles

(* How many requests are still queued across every shard. *)
let pending_requests t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.req_queues

(* Wake every task blocked in read_request: a redelivery gave them work,
   or the stream drained and they must observe the -1. *)
let wake_req_waiters t =
  List.iter
    (fun tk -> if tk.t_state = Task_waiting_req then tk.t_state <- Task_ready)
    t.tasks

(* Ack the request [tk] is serving.  The first completion stamps the
   latency and counts the request served; an explicit ack ([result])
   additionally commits the result into the device's order-independent
   checksum (first committed result wins — later duplicates only set the
   divergence flag).  Implicit acks (next read_request, clean exit)
   carry no result. *)
let ack_request t tk ~result =
  if tk.t_inflight >= 0 then begin
    let id = tk.t_inflight in
    tk.t_inflight <- -1;
    t.inflight_count <- t.inflight_count - 1;
    let first = t.req_completions.(id) = 0 in
    t.req_completions.(id) <- t.req_completions.(id) + 1;
    if first then begin
      let latency = Int64.sub (Cpu.cycles (Machine.cpu t.machine)) tk.t_req_start in
      t.req_latencies.(id) <- latency;
      t.req_done <- t.req_done + 1;
      emit t
        (Roload_obs.Event.Request_done { pid = tk.pid; id; latency = Int64.to_int latency })
    end;
    (match result with
    | Some r ->
      if not t.req_has_result.(id) then begin
        t.req_has_result.(id) <- true;
        t.req_result.(id) <- r;
        let m = 1_000_003L in
        let r' = Int64.rem (Int64.add (Int64.rem r m) m) m in
        t.committed_sum <- Int64.rem (Int64.add t.committed_sum r') m
      end
      else if t.req_result.(id) <> r then t.req_diverged.(id) <- true
    | None -> ());
    if pending_requests t = 0 && t.inflight_count = 0 then wake_req_waiters t
  end

(* A dead worker's un-acked request goes back to its shard queue
   (at-least-once delivery); anyone blocked on an empty device is woken
   to pick it up. *)
let requeue_inflight t tk =
  if tk.t_inflight >= 0 then begin
    let id = tk.t_inflight in
    tk.t_inflight <- -1;
    t.inflight_count <- t.inflight_count - 1;
    t.req_redeliveries.(id) <- t.req_redeliveries.(id) + 1;
    let shards = Array.length t.req_queues in
    if shards > 0 then Queue.push id t.req_queues.(id mod shards);
    emit t
      (Roload_obs.Event.Request_redelivered { id; attempt = t.req_redeliveries.(id) });
    wake_req_waiters t
  end

let make_zombie t tk status_code =
  tk.t_state <- Task_zombie status_code;
  match find_task t tk.parent with
  | Some p when p.t_state = Task_waiting -> p.t_state <- Task_ready
  | _ -> ()

(* Terminal path for a clean exit: the inflight request (if any) is
   implicitly acked — the worker finished the work, it just exited
   before asking for more. *)
let finish_task t tk status_code =
  ack_request t tk ~result:None;
  make_zombie t tk status_code

(* Reincarnate a supervised worker in place: fresh address space cloned
   from the birth template, registers/pc reset to the birth record, same
   pid (the parent's wait() accounting and the pid-ascending task order
   are untouched).  The ASID is refreshed — compiled traces capture the
   MMU they were lowered under, and the dead incarnation's table must
   never run against the new address space. *)
let reincarnate t tk b =
  tk.t_restarts <- tk.t_restarts + 1;
  t.restart_count <- t.restart_count + 1;
  tk.proc <- clone_process t b.b_proc;
  Array.blit b.b_regs 0 tk.t_regs 0 32;
  tk.t_pc <- b.b_pc;
  tk.t_state <- Task_ready;
  tk.t_inflight <- -1;
  tk.t_asid <- t.next_pid;
  t.next_pid <- t.next_pid + 1;
  (* defeat [context_switch]'s same-task short-circuit: the next dispatch
     of this task must install the fresh MMU, not the dead one *)
  (match t.scheduled with Some cur when cur == tk -> t.scheduled <- None | _ -> ());
  charge t t.config.context_switch_cycles;
  emit t (Roload_obs.Event.Worker_restart { pid = tk.pid; restarts = tk.t_restarts })

(* Death by signal/kill: redeliver the un-acked inflight request, then
   either reincarnate (supervised, budget left) or zombify through the
   normal wait ABI. *)
let task_dead t tk status_code =
  requeue_inflight t tk;
  match (tk.t_birth, t.supervision) with
  | Some b, Some sup when tk.t_restarts < sup.max_restarts -> reincarnate t tk b
  | _ -> make_zombie t tk status_code

(* Sweep for tasks killed outside their own execution (the deadline
   watchdog, an external chaos kill) and for a clean-exit status set by
   a hook; runs at every scheduler entry, before picking. *)
let reap_external t =
  List.iter
    (fun tk ->
      match tk.t_state with
      | Task_ready | Task_waiting | Task_waiting_req -> (
        match Process.status tk.proc with
        | Process.Running -> ()
        | Process.Killed sg ->
          emit t (Roload_obs.Event.Fault_triage { kind = triage_kind sg; pc = tk.t_pc });
          task_dead t tk (-1)
        | Process.Exited code -> finish_task t tk code)
      | Task_zombie _ | Task_reaped -> ())
    t.tasks

(* The deadline watchdog: mark overdue workers killed; [reap_external]
   processes the deaths.  Checked at scheduler entries only, so the kill
   points are instret/cycle-exact across engines. *)
let check_deadlines t =
  match t.supervision with
  | Some { deadline_cycles; _ } when deadline_cycles > 0L ->
    let now = Cpu.cycles (Machine.cpu t.machine) in
    List.iter
      (fun tk ->
        match tk.t_state with
        | (Task_ready | Task_waiting | Task_waiting_req)
          when tk.t_inflight >= 0
               && Process.status tk.proc = Process.Running
               && Int64.compare (Int64.sub now tk.t_req_start) deadline_cycles > 0 ->
          Process.set_status tk.proc (Process.Killed (Signal.Sigkill { info = "deadline" }))
        | _ -> ())
      t.tasks
  | _ -> ()

(* Write the 8-byte little-endian wait() status, all-or-nothing: an
   unmapped byte anywhere in the buffer means no write at all (the
   caller returns EFAULT without reaping the child). *)
let write_wait_status tk ~va status =
  match
    ignore (Process.translate tk.proc va);
    ignore (Process.translate tk.proc (va + 7))
  with
  | () ->
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int status);
    Process.kernel_write_bytes tk.proc ~va (Bytes.to_string b);
    true
  | exception Not_found -> false

type sched_decision =
  | Keep (* the task keeps the CPU inside its quantum *)
  | Switch (* the task blocked or exited: schedule someone else *)

(* Syscall servicing under the scheduler.  exit/fork/wait/read_request
   are scheduler-aware; everything else behaves exactly as in a
   single-process run.  A blocking wait() deliberately does not advance
   the pc: the task re-executes the ecall when it is woken. *)
let handle_syscall_mp t tk =
  let cpu = Machine.cpu t.machine in
  let arg r = Int64.to_int (Cpu.get cpu r) in
  charge t t.config.syscall_cycles;
  t.syscall_count <- t.syscall_count + 1;
  let num = arg Reg.a7 in
  let finish ret =
    emit t (Roload_obs.Event.Syscall { number = num; name = Syscall.name num; ret });
    Cpu.set cpu Reg.a0 (Int64.of_int ret);
    Cpu.set_pc cpu (Cpu.pc cpu + 4)
  in
  if num = Syscall.sys_exit then begin
    let code = arg Reg.a0 in
    Process.set_status tk.proc (Process.Exited code);
    emit t (Roload_obs.Event.Syscall { number = num; name = Syscall.name num; ret = 0 });
    finish_task t tk code;
    Switch
  end
  else if num = Syscall.sys_fork then begin
    let child_proc = clone_process t tk.proc in
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    (* the child resumes after the ecall with a0 = 0 *)
    let child =
      new_task t ~pid ~parent:tk.pid child_proc ~regs:(Cpu.regs cpu) ~pc:(Cpu.pc cpu + 4)
    in
    child.t_regs.(Reg.to_int Reg.a0) <- 0L;
    (* under supervision, capture the child's birth certificate: a second
       pristine clone of the parent's address space plus the birth
       registers, so a crashed incarnation can be restarted from exactly
       this state no matter what was tampered in the meantime *)
    (match t.supervision with
    | Some _ ->
      child.t_birth <-
        Some { b_proc = clone_process t tk.proc; b_regs = Array.copy child.t_regs;
               b_pc = child.t_pc }
    | None -> ());
    finish pid;
    Keep
  end
  else if num = Syscall.sys_wait then begin
    let status_va = arg Reg.a0 in
    let child_of c = c.parent = tk.pid in
    let zombie =
      List.find_opt
        (fun c -> child_of c && match c.t_state with Task_zombie _ -> true | _ -> false)
        t.tasks
    in
    match zombie with
    | Some child ->
      let status = match child.t_state with Task_zombie s -> s | _ -> assert false in
      if status_va <> 0 && not (write_wait_status tk ~va:status_va status) then begin
        finish Syscall.efault;
        Keep
      end
      else begin
        child.t_state <- Task_reaped;
        finish child.pid;
        Keep
      end
    | None ->
      let alive =
        List.exists
          (fun c ->
            child_of c
            &&
            match c.t_state with
            | Task_ready | Task_waiting | Task_waiting_req -> true
            | Task_zombie _ | Task_reaped -> false)
          t.tasks
      in
      if alive then begin
        tk.t_state <- Task_waiting;
        Switch
      end
      else begin
        finish Syscall.echild;
        Keep
      end
  end
  else if num = Syscall.sys_read_request then begin
    (* asking for the next request implicitly acks the previous one *)
    ack_request t tk ~result:None;
    (* the chaos trigger fires here, once, just before hand-out [at] —
       the hand-out counter is the deterministic request-count clock *)
    (match t.req_hook with
    | Some (at, hook) when t.handouts_total >= at ->
      t.req_hook <- None;
      hook t
    | _ -> ());
    if Process.status tk.proc <> Process.Running then begin
      (* the hook killed the calling task mid-syscall *)
      (match Process.status tk.proc with
      | Process.Killed sg ->
        emit t (Roload_obs.Event.Fault_triage { kind = triage_kind sg; pc = Cpu.pc cpu });
        task_dead t tk (-1)
      | Process.Exited code -> finish_task t tk code
      | Process.Running -> ());
      Switch
    end
    else begin
      let shards = Array.length t.req_queues in
      if shards = 0 then begin
        finish (-1);
        Keep
      end
      else begin
        let own = tk.pid mod shards in
        (* own shard first, then steal in deterministic scan order *)
        let rec pick i =
          if i >= shards then None
          else
            let s = (own + i) mod shards in
            if Queue.is_empty t.req_queues.(s) then pick (i + 1)
            else Some (Queue.pop t.req_queues.(s), s)
        in
        match pick 0 with
        | Some (id, shard) ->
          t.req_handouts.(id) <- t.req_handouts.(id) + 1;
          t.handouts_total <- t.handouts_total + 1;
          tk.t_inflight <- id;
          t.inflight_count <- t.inflight_count + 1;
          tk.t_req_start <- Cpu.cycles cpu;
          (* modeled shard contention: hand-out serializes against every
             other live worker assigned to the same shard *)
          let waiters =
            List.fold_left
              (fun acc w ->
                if
                  w != tk && w.parent <> 0
                  && w.pid mod shards = shard
                  && (match w.t_state with
                     | Task_ready | Task_waiting_req -> true
                     | Task_waiting | Task_zombie _ | Task_reaped -> false)
                  && Process.status w.proc = Process.Running
                then acc + 1
                else acc)
              0 t.tasks
          in
          charge t (t.config.queue_cycles_per_waiter * waiters);
          finish t.req_stream.(id);
          Keep
        | None ->
          if t.inflight_count > 0 then begin
            (* a dead worker may still return its request: block without
               advancing the pc and re-execute the ecall when woken *)
            tk.t_state <- Task_waiting_req;
            Switch
          end
          else begin
            finish (-1);
            Keep
          end
      end
    end
  end
  else if num = Syscall.sys_complete_request then begin
    if tk.t_inflight < 0 then finish Syscall.einval
    else begin
      ack_request t tk ~result:(Some (Cpu.get cpu Reg.a0));
      finish 0
    end;
    Keep
  end
  else if num = Syscall.sys_server_checksum then begin
    finish (Int64.to_int t.committed_sum);
    Keep
  end
  else begin
    let ret =
      if num = Syscall.sys_write then
        handle_write t tk.proc ~buf:(arg Reg.a1) ~len:(arg Reg.a2)
      else if num = Syscall.sys_brk then handle_brk t tk.proc (arg Reg.a0)
      else if num = Syscall.sys_mmap then
        handle_mmap t tk.proc ~len:(arg Reg.a1) ~prot:(arg Reg.a2) ~key:(arg Reg.a4)
      else if num = Syscall.sys_mprotect then
        handle_mprotect t tk.proc ~addr:(arg Reg.a0) ~len:(arg Reg.a1) ~prot:(arg Reg.a2)
          ~key:(arg Reg.a3)
      else Syscall.enosys
    in
    finish ret;
    Keep
  end

(* Round-robin over the ready tasks, preempting on a fuel quantum
   ([time_slice] retired instructions).  Deterministic by construction:
   the machine is instret-exact across engines, so the preemption points
   — and therefore the whole interleaving — are identical under
   single/block/traced execution. *)
let run_all ?(limit = no_limit) ?(time_slice = 20_000) t =
  let cpu = Machine.cpu t.machine in
  let time_slice = max 1 time_slice in
  let root =
    match t.tasks with
    | tk :: _ -> tk
    | [] -> invalid_arg "Kernel.run_all: no tasks (spawn_root/exec_all first)"
  in
  let cursor = ref 0 in
  (* next ready task after the cursor pid, wrapping: t.tasks is
     pid-ascending, so the first match is the round-robin choice *)
  let pick_next () =
    let ready = List.filter (fun tk -> tk.t_state = Task_ready) t.tasks in
    match List.find_opt (fun tk -> tk.pid > !cursor) ready with
    | Some tk -> Some tk
    | None -> ( match ready with tk :: _ -> Some tk | [] -> None)
  in
  let rec loop tk quantum_end =
    let remaining = Int64.sub limit.max_instructions (Cpu.instret cpu) in
    if Int64.compare remaining 0L <= 0 then () (* out of global budget *)
    else begin
      let slice = Int64.sub quantum_end (Cpu.instret cpu) in
      if Int64.compare slice 0L <= 0 then begin
        cursor := tk.pid;
        next ()
      end
      else begin
        let fuel64 = if Int64.compare slice remaining < 0 then slice else remaining in
        let fuel =
          if Int64.compare fuel64 (Int64.of_int max_int) >= 0 then max_int
          else Int64.to_int fuel64
        in
        match Machine.run_steps ~fuel t.machine with
        | Machine.Exhausted -> loop tk quantum_end (* budgets re-checked above *)
        | Machine.Stop_pc -> assert false (* run_all never passes stop_at_pc *)
        | Machine.Trap Trap.Ecall -> (
          match handle_syscall_mp t tk with
          | Keep -> loop tk quantum_end
          | Switch -> next ())
        | Machine.Trap Trap.Breakpoint ->
          emit t (Roload_obs.Event.Fault_triage { kind = "sigill"; pc = Cpu.pc cpu });
          Process.set_status tk.proc
            (Process.Killed (Signal.Sigill { pc = Cpu.pc cpu; info = "ebreak" }));
          task_dead t tk (-1);
          next ()
        | Machine.Trap trap -> (
          charge t t.config.fault_cycles;
          match signal_of_trap t trap with
          | Some signal ->
            emit t
              (Roload_obs.Event.Fault_triage
                 { kind = triage_kind signal; pc = trap_pc trap });
            Process.set_status tk.proc (Process.Killed signal);
            task_dead t tk (-1);
            next ()
          | None -> loop tk quantum_end)
      end
    end
  and next () =
    check_deadlines t;
    reap_external t;
    match pick_next () with
    | None -> () (* every task terminal, or everyone blocked: stop *)
    | Some tk ->
      cursor := tk.pid;
      context_switch t tk;
      loop tk (Int64.add (Cpu.instret cpu) (Int64.of_int time_slice))
  in
  next ();
  outcome_of t root.proc

(* Convenience: load, register as root, schedule everything. *)
let exec_all ?(limit = no_limit) ?time_slice t exe =
  let process = load t exe in
  spawn_root t process;
  let outcome = run_all ~limit ?time_slice t in
  (process, outcome)
