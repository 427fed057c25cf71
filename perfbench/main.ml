(* The benchmark's command line:

     main.exe --workload spec|serve|chaos|serve-chaos --seed N
              --seconds S --trace 0|1

   --trace 0 runs the measured phase for S seconds and ends with one JSON
   line of the end-to-end metrics.  --trace 1 runs S/2 seconds untraced,
   S/2 seconds with layer spans recorded, then the layer probe, and ends
   with one JSON line of the per-layer metrics.  Both write a result file
   and (traced) a span file under _perfbench/.  The exit code is 1 when
   any simulated result failed its check, 2 on bad arguments.

     main.exe --emit-pins

   prints the pinned results of Pins for the current tree. *)

open Perfbench
module W = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload spec|serve|chaos|serve-chaos --seed N --seconds S --trace 0|1\n\
    \       main.exe --emit-pins";
  exit 2

let out_dir = "_perfbench"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The result file: the run's context (engine, scale, seed, -j, sizes,
   calibration), every figure, every exact simulated fact and every
   failed check. *)
let result_file ~results ~workload ~seed ~seconds ~trace ~calib ~figures ~facts ~problems
    ~self_times =
  let module J = Roload_util.Json in
  let s = W.bench in
  J.obj
    [
      ("workload", J.str workload);
      ("engine", J.str (Roload_machine.Machine.engine_name W.engine));
      ("scale", J.int W.scale);
      ("seed", J.int64 seed);
      ("jobs", J.int 1);
      ("seconds", Report.number seconds);
      ("trace", J.int trace);
      ( "sizes",
        J.obj
          [
            ("spec_programs", J.int (List.length s.W.spec_programs));
            ("chunk", J.int s.W.chunk);
            ("serve_requests", J.int s.W.serve_requests);
            ("window", J.int s.W.window);
            ("chaos_count", J.int s.W.chaos_count);
            ("sc_count", J.int s.W.sc_count);
            ("sc_requests", J.int s.W.sc_requests);
          ] );
      ("calib_ms", J.arr (List.map Report.number calib));
      ( "round_s",
        J.arr
          (List.concat_map
             (fun (r : W.result) -> List.map (fun x -> Report.number x.W.time_s) r.W.rounds)
             results) );
      ("metrics", Report.json_metrics figures);
      ( "self_s",
        J.obj
          (List.map
             (fun (name, t, n) -> (name, J.obj [ ("s", Report.number t); ("spans", J.int n) ]))
             self_times) );
      ("facts", J.arr (List.map J.str facts));
      ("problems", J.arr (List.map J.str problems));
    ]

let run ~workload ~seed ~seconds ~trace =
  let f = match List.assoc_opt workload W.all with Some f -> f | None -> usage () in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let calib = ref [ Host.calib_ms () ] in
  let pass ~traced budget =
    Span.reset ~enabled:traced;
    let g0 = Host.gc () in
    let r = f ~seed ~size:W.bench ~budget in
    let g = Host.gc_diff g0 (Host.gc ()) in
    Span.on := false;
    calib := Host.calib_ms () :: !calib;
    (r, g)
  in
  let results, metrics, figures, self_times =
    if trace = 0 then begin
      let r, _ = pass ~traced:false (W.Seconds seconds) in
      let e2e = Report.end_to_end r in
      ([ r ], e2e, e2e @ Report.workload_figures ~workload r, [])
    end
    else begin
      let untraced, _ = pass ~traced:false (W.Seconds (seconds /. 2.)) in
      let traced, g = pass ~traced:true (W.Seconds (seconds /. 2.)) in
      let probe = Layers.run () in
      let calib_ms = Host.median (Array.of_list !calib) in
      let layers = Report.per_layer ~workload ~untraced ~traced ~probe ~calib_ms ~gc:g in
      Span.write (Printf.sprintf "%s/spans-%s-seed%Ld.json" out_dir workload seed);
      let self = Span.self_times () in
      ([ untraced; traced ], layers, layers @ Report.workload_figures ~workload traced, self)
    end
  in
  let attempted = List.fold_left (fun a r -> a + W.ops r) 0 results in
  let failed = List.fold_left (fun a (r : W.result) -> a + r.W.failed) 0 results in
  let facts = List.concat_map (fun (r : W.result) -> r.W.facts) results in
  let problems = List.concat_map (fun (r : W.result) -> r.W.problems) results in
  write_file
    (Printf.sprintf "%s/%s-seed%Ld-trace%d.json" out_dir workload seed trace)
    (result_file ~results ~workload ~seed ~seconds ~trace ~calib:(List.rev !calib) ~figures ~facts
       ~problems ~self_times);
  Printf.printf "perfbench %s seed=%Ld seconds=%g trace=%d engine=%s scale=%d -j 1\n" workload
    seed seconds trace
    (Roload_machine.Machine.engine_name W.engine)
    W.scale;
  Report.print_table "figures:" figures;
  if self_times <> [] then begin
    print_endline "self time by layer (traced half):";
    List.iter (fun (name, t, n) -> Printf.printf "  %-34s %10.4f s  %d spans\n" name t n) self_times
  end;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  print_endline
    (Report.result_line ~correct:(failed = 0 && problems = []) ~attempted ~failed metrics);
  exit (if failed = 0 && problems = [] then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--emit-pins" ] then Pin_gen.emit ()
  else begin
    let rec parse (w, s, secs, t) = function
      | "--workload" :: v :: rest -> parse (Some v, s, secs, t) rest
      | "--seed" :: v :: rest -> parse (w, Int64.of_string_opt v, secs, t) rest
      | "--seconds" :: v :: rest -> parse (w, s, float_of_string_opt v, t) rest
      | "--trace" :: v :: rest -> parse (w, s, secs, int_of_string_opt v) rest
      | [] -> (w, s, secs, t)
      | _ -> usage ()
    in
    match parse (None, None, None, Some 0) args with
    | Some workload, Some seed, Some seconds, Some trace
      when seconds > 0. && (trace = 0 || trace = 1) ->
      run ~workload ~seed ~seconds ~trace
    | _ -> usage ()
  end
