(* The attack runner: pause the victim at [attack_point], corrupt memory
   through the attacker's writable-memory primitive, resume, and classify
   the outcome.

   This module is scheme-agnostic: it works on a linked executable and
   its symbol table, and detects whether the ICall transformation was
   applied by looking for GFPT symbols (function-pointer values then hold
   GFPT-slot addresses, and the attacker adapts accordingly — the
   strongest available strategy per scheme). *)

module Machine = Roload_machine.Machine
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Signal = Roload_kernel.Signal
module Exe = Roload_obj.Exe

type run_config = {
  machine_config : Roload_machine.Config.t;
  kernel_config : Kernel.config;
}

let default_run_config =
  { machine_config = Roload_machine.Config.default;
    kernel_config = Kernel.default_config }

let gfpt_symbol_for exe func =
  let suffix = "$" ^ func in
  let is_gfpt (name, _) =
    String.length name > 7
    && String.sub name 0 7 = "__gfpt$"
    && String.length name > String.length suffix
    && String.sub name
         (String.length name - String.length suffix)
         (String.length suffix)
       = suffix
  in
  match List.find_opt is_gfpt exe.Exe.symbols with
  | Some (name, _) -> Some name
  | None -> None

(* The address an attacker writes into a function-pointer slot to make
   it "point at" [func]: the raw code address normally, or the GFPT slot
   address when the ICall transformation is active (pointers then hold
   GFPT addresses, and using anything else is even easier to catch). *)
let fptr_value_for exe func =
  match gfpt_symbol_for exe func with
  | Some sym -> Exe.find_symbol_exn exe sym
  | None -> Exe.find_symbol_exn exe func

let corrupt exe process (kind : Attack.kind) =
  let addr name = Exe.find_symbol_exn exe name in
  let obj_addr () = Int64.to_int (Process.read_u64 process ~va:(addr "g")) in
  match kind with
  | Attack.Vtable_injection ->
    (* forge a fake vtable in writable memory, then swing the vptr *)
    let fake = addr "fake_vtable" in
    let gadget = Int64.of_int (addr "gadget") in
    for slot = 0 to 3 do
      Process.attacker_write_u64 process ~va:(fake + (8 * slot)) gadget
    done;
    Process.attacker_write_u64 process ~va:(obj_addr ()) (Int64.of_int fake)
  | Attack.Vtable_corruption_reuse ->
    (* swing the vptr at another hierarchy's legitimate vtable *)
    Process.attacker_write_u64 process ~va:(obj_addr ())
      (Int64.of_int (addr "__vt$Logger"))
  | Attack.Fptr_overwrite ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (addr "gadget"))
  | Attack.Fptr_type_confusion ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (fptr_value_for exe "logger"))
  | Attack.Pointee_reuse_same_key ->
    Process.attacker_write_u64 process ~va:(addr "callback")
      (Int64.of_int (fptr_value_for exe "evil_twin"))

let classify (outcome : Kernel.run_outcome) =
  let contains_marker m =
    let out = outcome.Kernel.output and n = String.length m in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = m || go (i + 1))
    in
    go 0
  in
  match outcome.Kernel.status with
  | Process.Exited code
    when code = Victim.exit_gadget || code = Victim.exit_logger
         || code = Victim.exit_twin || code = Victim.exit_typeconf
         || contains_marker Victim.marker_gadget
         || contains_marker Victim.marker_logger
         || contains_marker Victim.marker_twin
         || contains_marker Victim.marker_typeconf ->
    Attack.Hijacked
  | Process.Exited _ -> Attack.No_effect
  | Process.Killed sg -> (
    (* one shared decoder for fault classes (also used by roload-fuzz) *)
    match Trapclass.classify_signal sg with
    | Trapclass.Roload_fault -> Attack.Blocked_roload
    | k -> Attack.Blocked_other (Trapclass.kind_name k))
  | Process.Running -> Attack.Blocked_other "instruction limit"

(* Boot the victim and pause it at [attack_point], still running. *)
let boot_to_attack_point ~config ~exe =
  let machine = Machine.create config.machine_config in
  let kernel = Kernel.create ~machine ~config:config.kernel_config in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  let stop = Exe.find_symbol_exn exe "attack_point" in
  let paused =
    Kernel.run ~stop_at_pc:stop
      ~limit:{ Kernel.max_instructions = 10_000_000L }
      kernel process
  in
  (match paused.Kernel.status with
  | Process.Running -> ()
  | Process.Exited _ | Process.Killed _ ->
    failwith "attack runner: victim ended before the attack point");
  (machine, kernel, process)

(* Apply the attack primitive to a paused victim, finish, classify. *)
let strike ~exe kernel process kind =
  (try corrupt exe process kind
   with Process.Attack_blocked reason ->
     failwith ("attack runner: primitive unexpectedly blocked: " ^ reason));
  classify (Kernel.run ~limit:{ Kernel.max_instructions = 10_000_000L } kernel process)

let run ?(config = default_run_config) ~exe kind =
  let _, kernel, process = boot_to_attack_point ~config ~exe in
  strike ~exe kernel process kind

(* Snapshot-seeded corpus: boot the victim once, pause at the attack
   point, capture a copy-on-write snapshot, and fork one variant per
   attack kind instead of re-booting from reset for each.  The boot
   prefix is deterministic, so every verdict equals [run]'s. *)
let run_corpus ?(config = default_run_config) ~exe () =
  let machine, kernel, process = boot_to_attack_point ~config ~exe in
  let snap = Roload_kernel.Snapshot.capture ~machine ~kernel ~process in
  List.map
    (fun kind ->
      let _, fk, fp = Roload_kernel.Snapshot.fork snap in
      (kind, strike ~exe fk fp kind))
    Attack.all_kinds
