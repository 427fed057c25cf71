(* Security-evaluation tests: the attack corpus outcomes per scheme —
   the machine-checked version of paper §V-C2 and §V-D. *)

module Pass = Roload_passes.Pass
module Attack = Roload_security.Attack
module Eval = Roload_security.Eval

let exe_cache : (Pass.scheme, Roload_obj.Exe.t) Hashtbl.t = Hashtbl.create 8

let victim scheme =
  match Hashtbl.find_opt exe_cache scheme with
  | Some exe -> exe
  | None ->
    let exe =
      Core.Toolchain.compile_exe
        ~options:{ Core.Toolchain.default_options with scheme }
        ~name:"victim" Roload_security.Victim.source
    in
    Hashtbl.add exe_cache scheme exe;
    exe

let outcome scheme kind = Eval.run ~exe:(victim scheme) kind

let check_hijacked name o =
  match o with
  | Attack.Hijacked -> ()
  | _ -> Alcotest.failf "%s: expected hijack, got %s" name (Attack.outcome_name o)

let check_blocked name o =
  if not (Attack.is_blocked o) then
    Alcotest.failf "%s: expected blocked, got %s" name (Attack.outcome_name o)

let check_blocked_roload name o =
  match o with
  | Attack.Blocked_roload -> ()
  | _ -> Alcotest.failf "%s: expected a ROLoad fault, got %s" name (Attack.outcome_name o)

let test_victim_benign () =
  List.iter
    (fun scheme ->
      let m = Core.System.run ~variant:Core.System.Processor_kernel_modified (victim scheme) in
      Alcotest.(check string)
        (Pass.scheme_name scheme ^ " benign output")
        Roload_security.Victim.benign_output m.Core.System.output)
    Pass.all_schemes

let test_unprotected_all_hijacked () =
  List.iter
    (fun kind ->
      check_hijacked (Attack.kind_name kind) (outcome Pass.Unprotected kind))
    Attack.all_kinds

let test_vcall_blocks_vtable_attacks () =
  check_blocked_roload "injection" (outcome Pass.Vcall Attack.Vtable_injection);
  check_blocked_roload "reuse" (outcome Pass.Vcall Attack.Vtable_corruption_reuse);
  (* out of scope: function pointers *)
  check_hijacked "fptr out of scope" (outcome Pass.Vcall Attack.Fptr_overwrite)

let test_vtint_weaker_than_vcall () =
  (* VTint stops the injected writable vtable... *)
  check_blocked "injection" (outcome Pass.Vtint_baseline Attack.Vtable_injection);
  (* ...but accepts any read-only data as a vtable (paper: VCall is
     strictly stronger) *)
  check_hijacked "reuse passes range check"
    (outcome Pass.Vtint_baseline Attack.Vtable_corruption_reuse)

let test_icall_type_policy () =
  check_blocked "overwrite with code address" (outcome Pass.Icall Attack.Fptr_overwrite);
  check_blocked_roload "wrong type" (outcome Pass.Icall Attack.Fptr_type_confusion);
  check_blocked_roload "vtable injection" (outcome Pass.Icall Attack.Vtable_injection)

let test_icall_unified_key_tradeoff () =
  (* the unified vtable key cannot distinguish hierarchies — the locality
     trade-off of paper §V-C1b *)
  check_hijacked "cross-hierarchy vtable reuse"
    (outcome Pass.Icall Attack.Vtable_corruption_reuse)

let test_cfi_blocks_labelled () =
  check_blocked "injection" (outcome Pass.Cfi_baseline Attack.Vtable_injection);
  check_blocked "reuse" (outcome Pass.Cfi_baseline Attack.Vtable_corruption_reuse);
  check_blocked "overwrite" (outcome Pass.Cfi_baseline Attack.Fptr_overwrite);
  check_blocked "type confusion" (outcome Pass.Cfi_baseline Attack.Fptr_type_confusion)

(* the paper's §V-D residual risk: same-key pointee reuse survives every
   scheme (allowlist members stay mutually reachable) *)
let test_pointee_reuse_residual () =
  List.iter
    (fun scheme ->
      check_hijacked
        (Pass.scheme_name scheme ^ " pointee reuse")
        (outcome scheme Attack.Pointee_reuse_same_key))
    Pass.all_schemes

(* ---- the full attack-kind × scheme outcome matrix ----

   Every (kind, scheme) pair pinned in one inline table: a policy change
   anywhere shows up as a two-table diff rather than a lone assertion
   failure.  Layout-dependent fault detail (the SIGBUS address under
   ICall's fptr overwrite) is truncated to the stable fault class. *)

let cell = function
  | Attack.Hijacked -> "HIJACKED"
  | Attack.Blocked_roload -> "blocked:roload"
  | Attack.Blocked_other d ->
    let d =
      match String.index_opt d ' ' with Some i -> String.sub d 0 i | None -> d
    in
    "blocked:" ^ d
  | Attack.No_effect -> "no-effect"

let render_matrix rows =
  let header = "attack" :: List.map Pass.scheme_name Pass.all_schemes in
  let table =
    header :: List.map (fun (kind, cells) -> Attack.kind_name kind :: cells) rows
  in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 table
  in
  let widths = List.init ncols width in
  String.concat ""
    (List.map
       (fun row ->
         String.concat " | "
           (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths row)
         ^ "\n")
       table)

let expected_matrix =
  [
    (Attack.Vtable_injection,
     [ "HIJACKED"; "blocked:roload"; "blocked:roload"; "blocked:abort"; "blocked:abort" ]);
    (Attack.Vtable_corruption_reuse,
     [ "HIJACKED"; "blocked:roload"; "HIJACKED"; "HIJACKED"; "blocked:abort" ]);
    (Attack.Fptr_overwrite,
     [ "HIJACKED"; "HIJACKED"; "blocked:other:SIGBUS"; "HIJACKED"; "blocked:abort" ]);
    (Attack.Fptr_type_confusion,
     [ "HIJACKED"; "HIJACKED"; "blocked:roload"; "HIJACKED"; "blocked:abort" ]);
    (Attack.Pointee_reuse_same_key,
     [ "HIJACKED"; "HIJACKED"; "HIJACKED"; "HIJACKED"; "HIJACKED" ]);
  ]

let test_full_outcome_matrix () =
  let actual =
    List.map
      (fun kind ->
        (kind, List.map (fun scheme -> cell (outcome scheme kind)) Pass.all_schemes))
      Attack.all_kinds
  in
  Alcotest.(check string)
    "attack-kind × scheme outcomes"
    (render_matrix expected_matrix)
    (render_matrix actual)

(* The snapshot-seeded corpus (boot once, fork per attack) must report
   the exact verdict [Eval.run] reports booting each attack from reset,
   for every kind on every scheme. *)
let test_corpus_seeding_equivalence () =
  List.iter
    (fun scheme ->
      let exe = victim scheme in
      let seeded = Eval.run_corpus ~exe () in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: one verdict per kind, in order" (Pass.scheme_name scheme))
        (List.map Attack.kind_name Attack.all_kinds)
        (List.map (fun (k, _) -> Attack.kind_name k) seeded);
      List.iter
        (fun (kind, seeded_outcome) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s verdict identical" (Pass.scheme_name scheme)
               (Attack.kind_name kind))
            (cell (Eval.run ~exe kind)) (cell seeded_outcome))
        seeded)
    Pass.all_schemes

let test_matrix_driver () =
  let r = Core.Experiments.security () in
  Alcotest.(check int) "5 schemes" (List.length Pass.all_schemes)
    (List.length r.Core.Experiments.matrix);
  List.iter
    (fun (_, results) ->
      Alcotest.(check int) "5 attacks" (List.length Attack.all_kinds) (List.length results))
    r.Core.Experiments.matrix

let suite =
  [
    Alcotest.test_case "victim benign under all schemes" `Quick test_victim_benign;
    Alcotest.test_case "unprotected: all hijacked" `Quick test_unprotected_all_hijacked;
    Alcotest.test_case "vcall blocks vtable attacks" `Quick test_vcall_blocks_vtable_attacks;
    Alcotest.test_case "vtint weaker than vcall" `Quick test_vtint_weaker_than_vcall;
    Alcotest.test_case "icall type-based policy" `Quick test_icall_type_policy;
    Alcotest.test_case "icall unified-key tradeoff" `Quick test_icall_unified_key_tradeoff;
    Alcotest.test_case "cfi blocks labelled attacks" `Quick test_cfi_blocks_labelled;
    Alcotest.test_case "pointee reuse residual (V-D)" `Quick test_pointee_reuse_residual;
    Alcotest.test_case "full attack × scheme matrix" `Quick test_full_outcome_matrix;
    Alcotest.test_case "snapshot-seeded corpus equals from-reset" `Quick
      test_corpus_seeding_equivalence;
    Alcotest.test_case "matrix driver" `Quick test_matrix_driver;
  ]
