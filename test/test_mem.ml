(* Memory-subsystem tests: physical memory, PTEs (key field), the Sv39
   walker, the TLB, and the MMU's ROLoad condition. *)

module Phys_mem = Roload_mem.Phys_mem
module Perm = Roload_mem.Perm
module Pte = Roload_mem.Pte
module Page_table = Roload_mem.Page_table
module Tlb = Roload_mem.Tlb
module Mmu = Roload_mem.Mmu

let page = Page_table.page_size

let make_env () =
  let mem = Phys_mem.create ~size:(4 * 1024 * 1024) in
  let next = ref 1 in
  let alloc_frame () =
    let f = !next in
    incr next;
    Phys_mem.fill mem ~addr:(f * page) ~len:page '\000';
    f
  in
  let pt = Page_table.create ~mem ~alloc_frame in
  (mem, pt)

let test_phys_mem () =
  let mem = Phys_mem.create ~size:65536 in
  Phys_mem.write_u64 mem 128 0x1122334455667788L;
  Alcotest.(check int64) "u64 rt" 0x1122334455667788L (Phys_mem.read_u64 mem 128);
  Alcotest.(check int) "byte LE" 0x88 (Phys_mem.read_u8 mem 128);
  Alcotest.(check int) "u16 LE" 0x7788 (Phys_mem.read_u16 mem 128);
  Phys_mem.write_string mem ~addr:1000 "hello";
  Alcotest.(check string) "string rt" "hello" (Phys_mem.read_string mem ~addr:1000 ~len:5);
  Alcotest.check_raises "oob" (Phys_mem.Out_of_range 65536) (fun () ->
      ignore (Phys_mem.read_u8 mem 65536))

(* The shared zero page is never written: heavy stores into one memory
   (every page, every access width, whole-frame copies of dirty pages)
   leave a second fresh memory reading all zeros, and two fresh memories
   have nothing to diff. *)
let test_zero_page_shared_immutable () =
  let size = 8 * Phys_mem.page_bytes in
  let a = Phys_mem.create ~size in
  let b = Phys_mem.create ~size in
  let zeros = String.make size '\000' in
  Alcotest.(check int) "fresh memories do not differ" 0
    (List.length (Phys_mem.diff_images (Phys_mem.snapshot a) (Phys_mem.snapshot b)));
  for p = 0 to 7 do
    let base = p * Phys_mem.page_bytes in
    Phys_mem.write_u8 a base 0xAB;
    Phys_mem.write_u16 a (base + 2) 0xBEEF;
    Phys_mem.write_u32 a (base + 8) 0x12345678;
    Phys_mem.write_u64 a (min (size - 8) (base + Phys_mem.page_bytes - 4)) (-1L);
    Phys_mem.fill a ~addr:(base + 64) ~len:100 'x'
  done;
  Phys_mem.copy_frame a ~src:3 ~dst:4;
  Phys_mem.write_string a ~addr:(4 * Phys_mem.page_bytes) "dirty";
  Phys_mem.zero_frame a 5;
  Phys_mem.write_u8 a (5 * Phys_mem.page_bytes) 1;
  Alcotest.(check bool) "the written memory is not zero" true
    (Phys_mem.read_string a ~addr:0 ~len:size <> zeros);
  Alcotest.(check string) "a second fresh memory still reads zeros" zeros
    (Phys_mem.read_string b ~addr:0 ~len:size);
  Alcotest.(check string) "a memory created afterwards reads zeros" zeros
    (Phys_mem.read_string (Phys_mem.create ~size) ~addr:0 ~len:size);
  Alcotest.check_raises "zero_frame out of range"
    (Phys_mem.Out_of_range (8 * Phys_mem.page_bytes)) (fun () -> Phys_mem.zero_frame a 8);
  Alcotest.check_raises "copy_frame out of range"
    (Phys_mem.Out_of_range (-Phys_mem.page_bytes)) (fun () ->
      Phys_mem.copy_frame a ~src:(-1) ~dst:0)

(* Model-based property: random operation sequences against a flat
   [Bytes] reference.  Addresses cluster at page edges so multi-byte
   stores straddle pages; whole-frame zero/copy, snapshot, restore and
   fork interleave with the stores, so every copy-on-write path (fresh
   zero page, frame shared by [copy_frame], page shared with an image)
   is taken.  After every step the whole memory is read back against the
   model, and every retained image is diffed against the first one and
   checked against the model's page-level diff. *)
let prop_phys_mem_model =
  let pages = 6 in
  let pb = Phys_mem.page_bytes in
  let size = pages * pb in
  let open QCheck.Gen in
  let addr w =
    map2
      (fun p off -> min (size - w) ((p * pb) + off))
      (int_bound (pages - 1))
      (oneof [ int_bound 9; map (fun d -> pb - 1 - d) (int_bound 9); int_bound (pb - 1) ])
  in
  let op =
    frequency
      [
        (3, map2 (fun a v -> `W8 (a, v)) (addr 1) (int_bound 255));
        (3, map2 (fun a v -> `W16 (a, v)) (addr 2) (int_bound 0xFFFF));
        (3, map2 (fun a v -> `W32 (a, v)) (addr 4) (int_bound 0x3FFFFFFF));
        (3, map2 (fun a v -> `W64 (a, Int64.of_int v)) (addr 8) int);
        ( 2,
          int_range 1 (pb + 40) >>= fun len ->
          map2 (fun a c -> `Str (a, String.make len c)) (addr len) printable );
        ( 2,
          int_range 0 (2 * pb) >>= fun len ->
          map2 (fun a c -> `Fill (a, len, c)) (addr len) char );
        (2, map2 (fun a b -> `Flip (a, b)) (addr 8) (int_bound 63));
        (2, map (fun p -> `Zero p) (int_bound (pages - 1)));
        (2, map2 (fun s d -> `Copy (s, d)) (int_bound (pages - 1)) (int_bound (pages - 1)));
        (1, return `Snapshot);
        (1, map (fun i -> `Restore i) nat);
        (1, map (fun i -> `Fork i) nat);
      ]
  in
  let print_op = function
    | `W8 (a, v) -> Printf.sprintf "w8 %#x %#x" a v
    | `W16 (a, v) -> Printf.sprintf "w16 %#x %#x" a v
    | `W32 (a, v) -> Printf.sprintf "w32 %#x %#x" a v
    | `W64 (a, v) -> Printf.sprintf "w64 %#x %#Lx" a v
    | `Str (a, s) -> Printf.sprintf "str %#x len %d" a (String.length s)
    | `Fill (a, n, c) -> Printf.sprintf "fill %#x len %d %C" a n c
    | `Flip (a, b) -> Printf.sprintf "flip %#x bit %d" a b
    | `Zero p -> Printf.sprintf "zero %d" p
    | `Copy (s, d) -> Printf.sprintf "copy %d->%d" s d
    | `Snapshot -> "snapshot"
    | `Restore i -> Printf.sprintf "restore %d" i
    | `Fork i -> Printf.sprintf "fork %d" i
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      (list_size (int_range 1 40) op)
  in
  (* the model's page-level diff, in [diff_images]'s format *)
  let model_diff a b =
    List.filter_map
      (fun p ->
        let rec first off =
          if off = pb then None
          else if Bytes.get a ((p * pb) + off) <> Bytes.get b ((p * pb) + off) then
            Some off
          else first (off + 1)
        in
        Option.map
          (fun off ->
            let addr = (p * pb) + off in
            {
              Phys_mem.page = p;
              addr;
              a_byte = Char.code (Bytes.get a addr);
              b_byte = Char.code (Bytes.get b addr);
            })
          (first 0))
      (List.init pages Fun.id)
  in
  QCheck.Test.make ~count:200 ~name:"Phys_mem = flat Bytes model (CoW, zero page, frames)"
    arb (fun ops ->
      let mem = ref (Phys_mem.create ~size) in
      let model = ref (Bytes.make size '\000') in
      (* (image, model at capture), oldest first; the first is pristine *)
      let images = ref [ (Phys_mem.snapshot !mem, Bytes.copy !model) ] in
      let pick i = List.nth !images (i mod List.length !images) in
      let set_le addr width v =
        for k = 0 to width - 1 do
          Bytes.set !model (addr + k)
            (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
        done
      in
      let step = function
        | `W8 (a, v) -> Phys_mem.write_u8 !mem a v; set_le a 1 (Int64.of_int v)
        | `W16 (a, v) -> Phys_mem.write_u16 !mem a v; set_le a 2 (Int64.of_int v)
        | `W32 (a, v) -> Phys_mem.write_u32 !mem a v; set_le a 4 (Int64.of_int v)
        | `W64 (a, v) -> Phys_mem.write_u64 !mem a v; set_le a 8 v
        | `Str (a, s) ->
          Phys_mem.write_string !mem ~addr:a s;
          Bytes.blit_string s 0 !model a (String.length s)
        | `Fill (a, n, c) ->
          Phys_mem.fill !mem ~addr:a ~len:n c;
          Bytes.fill !model a n c
        | `Flip (a, b) ->
          Phys_mem.flip_bit !mem ~addr:a ~bit:b;
          set_le a 8 (Int64.logxor (Bytes.get_int64_le !model a) (Int64.shift_left 1L b))
        | `Zero p ->
          Phys_mem.zero_frame !mem p;
          Bytes.fill !model (p * pb) pb '\000'
        | `Copy (s, d) ->
          Phys_mem.copy_frame !mem ~src:s ~dst:d;
          Bytes.blit !model (s * pb) !model (d * pb) pb
        | `Snapshot -> images := !images @ [ (Phys_mem.snapshot !mem, Bytes.copy !model) ]
        | `Restore i ->
          let img, m = pick i in
          Phys_mem.restore !mem img;
          model := Bytes.copy m
        | `Fork i ->
          let img, m = pick i in
          mem := Phys_mem.fork img;
          model := Bytes.copy m
      in
      let consistent () =
        Phys_mem.read_string !mem ~addr:0 ~len:size = Bytes.to_string !model
        && List.for_all
             (fun a ->
               Phys_mem.read_u64 !mem a = Bytes.get_int64_le !model a
               && Phys_mem.read_u32 !mem a = Int32.to_int (Bytes.get_int32_le !model a) land 0xFFFFFFFF
               && Phys_mem.read_u16 !mem a = Bytes.get_uint16_le !model a)
             [ 0; pb - 3; pb - 1; (2 * pb) - 6; size - 8 ]
        &&
        let base, base_model = List.hd !images in
        List.for_all
          (fun (img, m) -> Phys_mem.diff_images base img = model_diff base_model m)
          !images
      in
      List.for_all (fun o -> step o; consistent ()) ops)

let test_pte_fields () =
  let pte = Pte.make ~ppn:0x1234 ~perms:Perm.ro ~user:true ~key:777 in
  Alcotest.(check bool) "valid" true (Pte.valid pte);
  Alcotest.(check bool) "leaf" true (Pte.is_leaf pte);
  Alcotest.(check bool) "readable" true (Pte.readable pte);
  Alcotest.(check bool) "not writable" false (Pte.writable pte);
  Alcotest.(check int) "ppn" 0x1234 (Pte.ppn pte);
  Alcotest.(check int) "key" 777 (Pte.key pte);
  let pte2 = Pte.with_key pte 42 in
  Alcotest.(check int) "with_key" 42 (Pte.key pte2);
  Alcotest.(check int) "ppn preserved" 0x1234 (Pte.ppn pte2);
  let table = Pte.make_table ~ppn:9 in
  Alcotest.(check bool) "table not leaf" false (Pte.is_leaf table)

(* the key lives in the reserved top-10 PTE bits (paper §III-A) *)
let test_pte_key_position () =
  let pte = Pte.make ~ppn:1 ~perms:Perm.ro ~user:true ~key:0x3FF in
  let raw = Pte.to_int64 pte in
  Alcotest.(check int64) "top 10 bits" 0x3FFL (Int64.shift_right_logical raw 54)

let test_walk_and_map () =
  let _mem, pt = make_env () in
  let va = 0x40000000 in
  Page_table.map_page pt ~va ~ppn:0x55 ~perms:Perm.rw ~user:true ~key:3;
  (match Page_table.walk pt va with
  | Ok { pte; steps; level; _ } ->
    Alcotest.(check int) "ppn" 0x55 (Pte.ppn pte);
    Alcotest.(check int) "key" 3 (Pte.key pte);
    Alcotest.(check int) "leaf level" 0 level;
    Alcotest.(check int) "3-level walk" 3 steps
  | Error _ -> Alcotest.fail "expected mapping");
  (match Page_table.walk pt (va + page) with
  | Error Page_table.Not_mapped -> ()
  | Error Page_table.Bad_alignment | Ok _ -> Alcotest.fail "next page must be unmapped");
  Alcotest.(check int) "translate" ((0x55 * page) lor 0x123)
    (Page_table.translate_exn pt (va lor 0x123));
  Alcotest.(check int) "mapped pages" 1 (Page_table.mapped_pages pt);
  Page_table.unmap_page pt ~va;
  match Page_table.walk pt va with
  | Error Page_table.Not_mapped -> ()
  | Error Page_table.Bad_alignment | Ok _ -> Alcotest.fail "unmap failed"

let test_set_key_and_perms () =
  let _mem, pt = make_env () in
  let va = 0x10000 in
  Page_table.map_page pt ~va ~ppn:2 ~perms:Perm.rw ~user:true ~key:0;
  (match Page_table.set_key pt ~va ~key:99 with Ok () -> () | Error _ -> Alcotest.fail "set_key");
  (match Page_table.set_perms pt ~va ~perms:Perm.ro with Ok () -> () | Error _ -> Alcotest.fail "set_perms");
  match Page_table.walk pt va with
  | Ok { pte; _ } ->
    Alcotest.(check int) "new key" 99 (Pte.key pte);
    Alcotest.(check bool) "now read-only" false (Pte.writable pte)
  | Error _ -> Alcotest.fail "walk"

let test_tlb_lru () =
  let tlb = Tlb.create ~name:"test" ~entries:2 in
  let p n = Pte.make ~ppn:n ~perms:Perm.rw ~user:true ~key:0 in
  Tlb.insert tlb ~vpn:1 ~pte:(p 1);
  Tlb.insert tlb ~vpn:2 ~pte:(p 2);
  Alcotest.(check bool) "hit 1" true (Tlb.lookup tlb 1 <> None);
  (* inserting a third entry must evict vpn 2 (least recently used) *)
  Tlb.insert tlb ~vpn:3 ~pte:(p 3);
  Alcotest.(check bool) "1 survives" true (Tlb.lookup tlb 1 <> None);
  Alcotest.(check bool) "2 evicted" true (Tlb.lookup tlb 2 = None);
  Alcotest.(check bool) "3 present" true (Tlb.lookup tlb 3 <> None);
  let st = Tlb.stats tlb in
  Alcotest.(check int) "misses counted" 1 st.Tlb.misses;
  Tlb.invalidate tlb ~vpn:3;
  Alcotest.(check bool) "3 invalidated" true (Tlb.lookup tlb 3 = None);
  Tlb.flush tlb;
  Alcotest.(check int) "flushed empty" 0 (Tlb.occupancy tlb)

let make_mmu ?(roload = true) pt =
  Mmu.create ~page_table:pt ~itlb_entries:4 ~dtlb_entries:4 ~roload_check_enabled:roload

let test_mmu_basic () =
  let _mem, pt = make_env () in
  let va = 0x20000 in
  Page_table.map_page pt ~va ~ppn:7 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu pt in
  (match Mmu.translate mmu ~access:Perm.Load va with
  | Ok { pa; tlb_hit; walk_steps } ->
    Alcotest.(check int) "pa" (7 * page) pa;
    Alcotest.(check bool) "first is miss" false tlb_hit;
    Alcotest.(check int) "walk steps" 3 walk_steps
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (match Mmu.translate mmu ~access:Perm.Load va with
  | Ok { tlb_hit; walk_steps; _ } ->
    Alcotest.(check bool) "second is hit" true tlb_hit;
    Alcotest.(check int) "no walk" 0 walk_steps
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* store allowed on rw, fetch denied *)
  (match Mmu.translate mmu ~access:Perm.Store va with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  match Mmu.translate mmu ~access:Perm.Fetch va with
  | Error (Mmu.Page_fault _) -> ()
  | Error (Mmu.Roload_fault _) | Ok _ -> Alcotest.fail "fetch of rw page must fault"

let test_mmu_roload_conditions () =
  let _mem, pt = make_env () in
  let ro_keyed = 0x30000 and ro_plain = 0x31000 and rw = 0x32000 and rx = 0x33000 in
  Page_table.map_page pt ~va:ro_keyed ~ppn:3 ~perms:Perm.ro ~user:true ~key:7;
  Page_table.map_page pt ~va:ro_plain ~ppn:4 ~perms:Perm.ro ~user:true ~key:0;
  Page_table.map_page pt ~va:rw ~ppn:5 ~perms:Perm.rw ~user:true ~key:7;
  Page_table.map_page pt ~va:rx ~ppn:6 ~perms:Perm.rx ~user:true ~key:7;
  let mmu = make_mmu pt in
  let roload key va = Mmu.translate mmu ~access:(Perm.Roload key) va in
  (* matching key on a read-only page: allowed *)
  (match roload 7 ro_keyed with Ok _ -> () | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* wrong key: the new fault class, carrying triage detail *)
  (match roload 9 ro_keyed with
  | Error (Mmu.Roload_fault { key_requested = 9; page_key = 7; _ }) -> ()
  | _ -> Alcotest.fail "wrong key must raise a ROLoad fault");
  (* key 0 page with key-0 request: allowed (default rodata) *)
  (match roload 0 ro_plain with Ok _ -> () | Error f -> Alcotest.fail (Mmu.fault_to_string f));
  (* writable page: denied even with a matching key *)
  (match roload 7 rw with
  | Error (Mmu.Roload_fault { page_perms; _ }) ->
    Alcotest.(check bool) "writable" true page_perms.Perm.w
  | _ -> Alcotest.fail "writable pointee must fault");
  (* executable page: denied (the separate-code motivation) *)
  (match roload 7 rx with
  | Error (Mmu.Roload_fault _) -> ()
  | _ -> Alcotest.fail "executable page must fault");
  (* an ordinary load of the same pages is fine *)
  match Mmu.translate mmu ~access:Perm.Load rw with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f)

let test_mmu_roload_disabled () =
  let _mem, pt = make_env () in
  let rw = 0x40000 in
  Page_table.map_page pt ~va:rw ~ppn:3 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu ~roload:false pt in
  (* without the check logic, Roload degrades to Load *)
  match Mmu.translate mmu ~access:(Perm.Roload 5) rw with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Mmu.fault_to_string f)

let test_mmu_invalidate () =
  let _mem, pt = make_env () in
  let va = 0x50000 in
  Page_table.map_page pt ~va ~ppn:3 ~perms:Perm.rw ~user:true ~key:0;
  let mmu = make_mmu pt in
  (match Mmu.translate mmu ~access:Perm.Load va with Ok _ -> () | Error _ -> Alcotest.fail "t");
  (* change the mapping under the TLB's feet, then invalidate *)
  (match Page_table.set_perms pt ~va ~perms:Perm.ro with Ok () -> () | Error _ -> ());
  Mmu.invalidate mmu ~va;
  match Mmu.translate mmu ~access:Perm.Store va with
  | Error (Mmu.Page_fault _) -> ()
  | _ -> Alcotest.fail "store after downgrade must fault"

(* property: the PTE field encoding round-trips *)
let prop_pte_roundtrip =
  QCheck.Test.make ~count:500 ~name:"PTE fields round-trip"
    QCheck.(triple (int_bound 0xFFFFF) (int_bound 1023) bool)
    (fun (ppn, key, writable) ->
      let perms = if writable then Perm.rw else Perm.ro in
      let pte = Pte.make ~ppn ~perms ~user:true ~key in
      Pte.ppn pte = ppn && Pte.key pte = key && Pte.writable pte = writable
      && Pte.valid pte && Pte.user pte)

(* property: TLB-cached translation agrees with a direct walk *)
let prop_tlb_walk_agree =
  QCheck.Test.make ~count:100 ~name:"MMU translation = direct walk"
    QCheck.(small_list (pair (int_bound 255) (int_bound 3)))
    (fun pages ->
      let _mem, pt = make_env () in
      let mmu = make_mmu pt in
      let mapped = Hashtbl.create 16 in
      List.iter
        (fun (slot, k) ->
          let va = 0x100000 + (slot * page) in
          if not (Hashtbl.mem mapped va) then begin
            Page_table.map_page pt ~va ~ppn:(100 + slot) ~perms:Perm.rw ~user:true ~key:k;
            Hashtbl.add mapped va (100 + slot)
          end)
        pages;
      Hashtbl.fold
        (fun va ppn acc ->
          acc
          &&
          (* translate twice: miss path then hit path must agree *)
          match (Mmu.translate mmu ~access:Perm.Load va, Mmu.translate mmu ~access:Perm.Load va) with
          | Ok a, Ok b -> a.Mmu.pa = ppn * page && b.Mmu.pa = a.Mmu.pa
          | _ -> false)
        mapped true)

(* property: [Tlb.rehit]'s documented contract — replaying a hit through a
   captured handle, with [lookup] as the fallback on refusal, is
   observably identical to always calling [lookup]: same PTE, same
   hit/miss counters, and the same LRU state afterwards (probed by
   running an identical eviction-heavy tail on a twin TLB).  The op
   sequence interleaves inserts, lookups and invalidates over a small vpn
   space so handles regularly go stale through both recycling and
   invalidation. *)
let prop_tlb_rehit_exact_accounting =
  let apply t = function
    | `Fill (vpn, key) -> (
      (* model an MMU fill: insert only on a miss — [insert] itself does
         not dedupe, real callers never insert a cached vpn *)
      match Tlb.lookup t vpn with
      | Some _ -> ()
      | None ->
        Tlb.insert t ~vpn ~pte:(Pte.make ~ppn:(vpn + 100) ~perms:Perm.ro ~user:true ~key))
    | `Lookup vpn -> ignore (Tlb.lookup t vpn)
    | `Invalidate vpn -> Tlb.invalidate t ~vpn
  in
  let op =
    QCheck.Gen.(
      int_bound 11 >>= fun vpn ->
      frequency
        [ (4, map (fun k -> `Fill (vpn, k)) (int_bound 3));
          (3, return (`Lookup vpn));
          (1, return (`Invalidate vpn)) ])
  in
  let print_op = function
    | `Fill (v, k) -> Printf.sprintf "fill %d/k%d" v k
    | `Lookup v -> Printf.sprintf "lkp %d" v
    | `Invalidate v -> Printf.sprintf "inv %d" v
  in
  let arb =
    QCheck.make
      ~print:(fun (a, vpn, b) ->
        Printf.sprintf "[%s] vpn=%d [%s]"
          (String.concat "; " (List.map print_op a))
          vpn
          (String.concat "; " (List.map print_op b)))
      QCheck.Gen.(triple (list_size (int_bound 20) op) (int_bound 11) (list_size (int_bound 20) op))
  in
  QCheck.Test.make ~count:300 ~name:"Tlb.rehit = lookup (accounting, LRU, fallback)" arb
    (fun (before, vpn, between) ->
      let a = Tlb.create ~name:"a" ~entries:4 in
      let b = Tlb.create ~name:"b" ~entries:4 in
      List.iter (fun o -> apply a o; apply b o) before;
      let handle = Tlb.peek a ~vpn in
      List.iter (fun o -> apply a o; apply b o) between;
      let via_rehit =
        match handle with
        | None -> Tlb.lookup a vpn
        | Some h -> (
          match Tlb.rehit a ~vpn h with
          | Some pte -> Some pte
          | None -> Tlb.lookup a vpn)
      in
      let via_lookup = Tlb.lookup b vpn in
      let stats_eq () =
        let sa = Tlb.stats a and sb = Tlb.stats b in
        sa.Tlb.hits = sb.Tlb.hits && sa.Tlb.misses = sb.Tlb.misses
      in
      via_rehit = via_lookup
      && stats_eq ()
      && Tlb.occupancy a = Tlb.occupancy b
      (* same LRU state: an eviction-heavy tail behaves identically *)
      && List.for_all
           (fun probe ->
             Tlb.insert a ~vpn:(probe + 50)
               ~pte:(Pte.make ~ppn:probe ~perms:Perm.ro ~user:true ~key:0);
             Tlb.insert b ~vpn:(probe + 50)
               ~pte:(Pte.make ~ppn:probe ~perms:Perm.ro ~user:true ~key:0);
             List.for_all (fun v -> Tlb.lookup a v = Tlb.lookup b v) [ vpn; probe + 50 ]
             && stats_eq ())
           [ 0; 1; 2; 3; 4; 5 ])

let suite =
  [
    Alcotest.test_case "physical memory" `Quick test_phys_mem;
    Alcotest.test_case "pte fields" `Quick test_pte_fields;
    Alcotest.test_case "pte key position (top 10 bits)" `Quick test_pte_key_position;
    Alcotest.test_case "sv39 walk/map/unmap" `Quick test_walk_and_map;
    Alcotest.test_case "set key and perms" `Quick test_set_key_and_perms;
    Alcotest.test_case "tlb lru" `Quick test_tlb_lru;
    Alcotest.test_case "mmu basic + tlb fill" `Quick test_mmu_basic;
    Alcotest.test_case "mmu roload conditions" `Quick test_mmu_roload_conditions;
    Alcotest.test_case "mmu roload disabled" `Quick test_mmu_roload_disabled;
    Alcotest.test_case "mmu invalidate" `Quick test_mmu_invalidate;
    Seeded.to_alcotest prop_pte_roundtrip;
    Seeded.to_alcotest prop_tlb_walk_agree;
    Seeded.to_alcotest prop_tlb_rehit_exact_accounting;
    Alcotest.test_case "shared zero page is never written" `Quick
      test_zero_page_shared_immutable;
    Seeded.to_alcotest prop_phys_mem_model;
  ]
