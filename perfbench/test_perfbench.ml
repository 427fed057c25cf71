(* The benchmark's own tests, on the tiny sizes of every workload. *)

open Perfbench
module W = Workloads

let run ~traced name =
  let f = List.assoc name W.all in
  Span.reset ~enabled:traced;
  let r = f ~seed:1L ~size:W.tiny ~budget:(W.Rounds 1) in
  Span.on := false;
  r

(* Every check passes, and recording spans changes no simulated counter
   and no output: the traced pass measures the same simulation. *)
let traced_equals_untraced name () =
  let u = run ~traced:false name in
  let t = run ~traced:true name in
  Alcotest.(check (list string)) "no failed checks" [] (u.W.problems @ t.W.problems);
  Alcotest.(check int) "failed" 0 (u.W.failed + t.W.failed);
  Alcotest.(check bool) "did work" true (W.ops u > 0 && u.W.facts <> []);
  Alcotest.(check (list string)) "simulated results" u.W.facts t.W.facts;
  Alcotest.(check bool) "exact counters" true (u.W.metrics = t.W.metrics);
  Alcotest.(check int) "instructions" u.W.insts t.W.insts;
  Alcotest.(check bool) "spans recorded" true (Span.recorded () <> [])

(* The complete runs behind the pinned ICall overhead: chunked runs of
   the tiny programs reproduce Pins.spec_full, ICall prints what stock
   prints, and chunking changes no architectural counter next to the
   one-call System.run. *)
let complete_runs_match_pins () =
  List.iter
    (fun name ->
      let b = Option.get (Roload_workloads.Spec_suite.find name) in
      let outputs =
        List.map
          (fun scheme ->
            let exe =
              W.compile ~name ~scheme (b.Roload_workloads.Spec_suite.source ~scale:W.scale)
            in
            let o, _ = W.run_chunked ~chunk:7_919 ~on_chunk:(fun _ _ -> ()) exe in
            let key = W.spec_key name scheme in
            let c, i, out = List.assoc key Pins.spec_full in
            Alcotest.(check int64) (key ^ " cycles") c o.Roload_kernel.Kernel.cycles;
            Alcotest.(check int64) (key ^ " instret") i o.Roload_kernel.Kernel.instructions;
            Alcotest.(check string) (key ^ " output") out (W.md5 o.Roload_kernel.Kernel.output);
            o.Roload_kernel.Kernel.output)
          W.spec_schemes
      in
      Alcotest.(check (list string)) (name ^ ": ICall prints what stock prints")
        [ List.hd outputs ] (List.tl outputs))
    W.tiny.W.spec_programs;
  let b = Option.get (Roload_workloads.Spec_suite.find "xalancbmk") in
  let exe =
    W.compile ~name:"xalancbmk" ~scheme:Roload_passes.Pass.Icall
      (b.Roload_workloads.Spec_suite.source ~scale:W.scale)
  in
  let o, m = W.run_chunked ~chunk:7_919 ~on_chunk:(fun _ _ -> ()) exe in
  let s = Core.System.run ~engine:W.engine ~variant:W.variant exe in
  Alcotest.(check int64) "cycles" s.Core.System.cycles o.Roload_kernel.Kernel.cycles;
  Alcotest.(check string) "output" s.Core.System.output o.Roload_kernel.Kernel.output;
  (* chunk boundaries end traces early, so only the engine-explanation
     counters (block and trace enters) may differ *)
  Alcotest.(check bool) "counters" true (Roload_obs.Metrics.core_equal m s.Core.System.metrics)

(* A wrong simulated result is caught: a serve pass checked against a
   stream other than the one the device served fails the reference-model
   checksum. *)
let reference_model_discriminates () =
  let a = Roload_workloads.Server_like.requests ~seed:1L ~count:400 in
  let b = Roload_workloads.Server_like.requests ~seed:2L ~count:400 in
  Alcotest.(check bool) "distinct checksums" true (W.server_checksum a <> W.server_checksum b)

(* The (name, unit) pairs BENCHMARK.json lists under [section]. *)
let json_metrics section =
  let ic = open_in "../BENCHMARK.json" in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" section)) doc 0 in
  let stop = Str.search_forward (Str.regexp_string "]") doc start in
  let re = Str.regexp "\"name\": *\"\\([^\"]+\\)\", *\"unit\": *\"\\([^\"]+\\)\"" in
  let rec scan pos acc =
    match Str.search_forward re doc pos with
    | p when p < stop ->
      let pair = (Str.matched_group 1 doc, Str.matched_group 2 doc) in
      scan (Str.match_end ()) (pair :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  scan start []

let printed_metrics_match_benchmark_json () =
  let pairs ms = List.map (fun (x : Report.metric) -> (x.Report.name, x.Report.unit)) ms in
  let name_unit = Alcotest.(pair string string) in
  let r = run ~traced:false "chaos" in
  Alcotest.(check (list name_unit))
    "end_to_end" (json_metrics "end_to_end") (pairs (Report.end_to_end r));
  Span.reset ~enabled:true;
  let t = (List.assoc "serve" W.all) ~seed:1L ~size:W.tiny ~budget:(W.Rounds 1) in
  Span.on := false;
  let layers =
    Report.per_layer ~workload:"serve" ~untraced:t ~traced:t ~probe:(Layers.run ()) ~calib_ms:1.
      ~gc:(Host.gc ())
  in
  Alcotest.(check (list name_unit)) "per_layer" (json_metrics "per_layer") (pairs layers);
  List.iter
    (fun (x : Report.metric) ->
      if not (Float.is_finite x.Report.value) then Alcotest.failf "%s is not finite" x.Report.name)
    (Report.end_to_end r @ layers)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        List.map
          (fun (name, _) ->
            Alcotest.test_case (name ^ " traced equals untraced") `Quick
              (traced_equals_untraced name))
          W.all );
      ( "checks",
        [
          Alcotest.test_case "complete runs match pins" `Quick complete_runs_match_pins;
          Alcotest.test_case "server reference model discriminates" `Quick
            reference_model_discriminates;
        ] );
      ( "names",
        [ Alcotest.test_case "metric names and units match BENCHMARK.json" `Quick
            printed_metrics_match_benchmark_json ] );
    ]
