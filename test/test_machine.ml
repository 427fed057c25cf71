(* Machine tests: ALU semantics (golden + properties against reference
   definitions), executor behaviour, timing counters. *)

module Alu = Roload_machine.Alu
module Inst = Roload_isa.Inst
module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Cpu = Roload_machine.Cpu

let check_i64 = Alcotest.(check int64)

let test_alu_golden () =
  check_i64 "add wrap" Int64.min_int (Alu.op Inst.Add Int64.max_int 1L);
  check_i64 "slt true" 1L (Alu.op Inst.Slt (-1L) 0L);
  check_i64 "sltu: -1 is huge" 0L (Alu.op Inst.Sltu (-1L) 0L);
  check_i64 "sra sign" (-1L) (Alu.op Inst.Sra (-1L) 63L);
  check_i64 "srl logical" 1L (Alu.op Inst.Srl Int64.min_int 63L);
  check_i64 "sll shamt masked" 2L (Alu.op Inst.Sll 1L 65L);
  (* W-forms truncate to 32 bits and sign-extend *)
  check_i64 "addw wrap" (-2147483648L) (Alu.op_w Inst.Addw 2147483647L 1L);
  check_i64 "sllw" (-2147483648L) (Alu.op_w Inst.Sllw 1L 31L);
  check_i64 "srlw zero-extends 32" 1L (Alu.op_w Inst.Srlw 0x80000000L 31L)

let test_div_edge_cases () =
  (* RISC-V: div by zero -> -1, rem by zero -> dividend *)
  check_i64 "div/0" (-1L) (Alu.mulop Inst.Div 42L 0L);
  check_i64 "rem/0" 42L (Alu.mulop Inst.Rem 42L 0L);
  check_i64 "divu/0" (-1L) (Alu.mulop Inst.Divu 42L 0L);
  check_i64 "remu/0" 42L (Alu.mulop Inst.Remu 42L 0L);
  (* signed overflow: MIN / -1 -> MIN, rem -> 0 *)
  check_i64 "min/-1" Int64.min_int (Alu.mulop Inst.Div Int64.min_int (-1L));
  check_i64 "min rem -1" 0L (Alu.mulop Inst.Rem Int64.min_int (-1L))

let test_mulh_golden () =
  (* (2^63 - 1)^2 = 0x3FFFFFFFFFFFFFFF0000000000000001 *)
  check_i64 "mulhu max*max" 0xFFFFFFFFFFFFFFFEL
    (Alu.mulhu (-1L) (-1L)) (* (2^64-1)^2 >> 64 = 2^64 - 2 *);
  check_i64 "mulh -1*-1" 0L (Alu.mulh (-1L) (-1L));
  check_i64 "mulh max*max" 0x3FFFFFFFFFFFFFFFL (Alu.mulh Int64.max_int Int64.max_int);
  check_i64 "mulhsu -1 * maxu" (-1L) (Alu.mulhsu (-1L) (-1L))

(* property: mulhu agrees with a 32-bit-limb reference on products of
   32-bit values (where the high word is computable directly) *)
let prop_mulhu_small =
  QCheck.Test.make ~count:1000 ~name:"mulhu of 32-bit values is 0"
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) -> Alu.mulhu (Int64.of_int a) (Int64.of_int b) = 0L)

let prop_div_rem_identity =
  QCheck.Test.make ~count:1000 ~name:"a = div*b + rem (b <> 0, no overflow)"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      QCheck.assume (b <> 0L);
      QCheck.assume (not (a = Int64.min_int && b = -1L));
      let d = Alu.mulop Inst.Div a b and r = Alu.mulop Inst.Rem a b in
      Int64.add (Int64.mul d b) r = a)

let prop_mulh_shift_identity =
  QCheck.Test.make ~count:1000 ~name:"mulh(a, 2^k) = a >> (64-k) arithmetic-ish"
    QCheck.(pair int64 (int_range 1 62))
    (fun (a, k) ->
      (* a * 2^k as 128-bit: high word = a >> (64-k) arithmetically *)
      Alu.mulh a (Int64.shift_left 1L k) = Int64.shift_right a (64 - k))

(* property: W-forms equal truncating the 64-bit op to 32 bits *)
let prop_addw_truncates =
  QCheck.Test.make ~count:1000 ~name:"addw = sext32 (add)"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      Alu.op_w Inst.Addw a b = Int64.of_int32 (Int64.to_int32 (Int64.add a b)))

(* executor-level: counters advance; x0 stays zero *)
let test_x0_hardwired () =
  let cpu = Cpu.create () in
  Cpu.set cpu Roload_isa.Reg.zero 42L;
  check_i64 "x0 ignores writes" 0L (Cpu.get cpu Roload_isa.Reg.zero);
  Cpu.set cpu Roload_isa.Reg.a0 7L;
  check_i64 "a0 written" 7L (Cpu.get cpu Roload_isa.Reg.a0)

let test_machine_requires_mmu () =
  let m = Machine.create Config.default in
  match Machine.step m with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "step without an address space must fail"

let test_config_rows () =
  let rows = Config.rows Config.default in
  Alcotest.(check bool) "has ISA row" true (List.mem_assoc "ISA" rows);
  Alcotest.(check bool) "roload on by default" true Config.default.Config.roload_processor;
  Alcotest.(check bool) "baseline has no roload" false Config.baseline.Config.roload_processor

(* Boot is O(touched pages): physical memory starts as the shared zero
   page, so creating a 64 MiB machine allocates page pointers and the
   cache/TLB models, not 64 MiB of zeroed pages.  Host allocation is
   deterministic for a given build, unlike wall-clock time or RSS. *)
let test_boot_allocation () =
  let before = Gc.allocated_bytes () in
  ignore (Machine.create Config.default);
  let bytes = Gc.allocated_bytes () -. before in
  if bytes >= 1048576. then
    Alcotest.failf "Machine.create allocated %.0f KiB (gate: < 1 MiB)" (bytes /. 1024.)

let suite =
  [
    Alcotest.test_case "alu golden" `Quick test_alu_golden;
    Alcotest.test_case "division edge cases" `Quick test_div_edge_cases;
    Alcotest.test_case "mulh golden" `Quick test_mulh_golden;
    Alcotest.test_case "x0 hardwired" `Quick test_x0_hardwired;
    Alcotest.test_case "machine needs address space" `Quick test_machine_requires_mmu;
    Alcotest.test_case "config rows" `Quick test_config_rows;
    Alcotest.test_case "boot allocates under 1 MiB" `Quick test_boot_allocation;
    Seeded.to_alcotest prop_mulhu_small;
    Seeded.to_alcotest prop_div_rem_identity;
    Seeded.to_alcotest prop_mulh_shift_identity;
    Seeded.to_alcotest prop_addw_truncates;
  ]
