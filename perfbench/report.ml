(* From measurements to named metrics.  The end-to-end names and the
   per-layer names here are the ones BENCHMARK.json lists, in the same
   order; the tests hold the two lists equal. *)

module W = Workloads
module Metrics = Roload_obs.Metrics

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* ---------- end to end (the untraced pass) ---------- *)

(* Operations per host second over the whole measured phase.  On this
   host the plain mean was steadier over runs than the fastest round,
   the first quartile or the median of the rounds (see README.md). *)
let ops_per_s (r : W.result) = float_of_int (W.ops r) /. r.W.wall_s

let end_to_end (r : W.result) =
  [
    m "ops_per_s" "1/s" (ops_per_s r);
    m "setup_s" "s" (Host.median r.W.setup_s);
    m "peak_rss_mib" "MiB" (Host.peak_rss_mib ());
  ]

(* Simulated ICall cycle overhead over stock, geometric mean over the
   suite's complete runs: exact, from the pinned full-run results (one
   complete pass takes longer than a benchmark run; the tests re-run the
   short programs against these pins). *)
let icall_overhead_pct () =
  let cycles key =
    match List.assoc_opt key Pins.spec_full with Some (c, _, _) -> Int64.to_float c | None -> nan
  in
  let ratios =
    List.map
      (fun name ->
        cycles (W.spec_key name Roload_passes.Pass.Icall)
        /. cycles (W.spec_key name Roload_passes.Pass.Unprotected))
      W.bench.W.spec_programs
  in
  (Roload_util.Stats.geomean ratios -. 1.) *. 100.

(* The figures a reader of one workload wants, printed in
   the text report beside the end-to-end metrics. *)
let workload_figures ~workload (r : W.result) =
  let rate = ops_per_s r in
  let samples = Array.concat (List.map (fun x -> x.W.op_ms) r.W.rounds) in
  let q p = Host.quantile p samples in
  let tail = Host.tail_quantile (Array.length samples) in
  let times = Array.of_list (List.map (fun x -> x.W.time_s) r.W.rounds) in
  let common =
    [
      m "wall_s" "s" r.W.wall_s;
      m "rounds" "count" (float_of_int (Array.length times));
      m "round_s_min" "s" (Host.quantile 0. times);
      m "round_s_median" "s" (Host.median times);
      m "op_ms_p50" "ms" (q 0.5);
      m "op_ms_tail" "ms" (q tail);
      m "tail_quantile" "q" tail;
      m "op_samples" "count" (float_of_int (Array.length samples));
      m "failed_ratio" "ratio" (float_of_int r.W.failed /. float_of_int (max 1 (W.ops r)));
    ]
  in
  let sim =
    if r.W.insts > 0 then
      [ m "sim_mips" "M/s" (float_of_int r.W.insts /. r.W.wall_s /. 1e6) ]
    else []
  in
  let own =
    match workload with
    | "serve" ->
      [
        m "requests_per_s" "1/s" rate;
        m "req_us_p50" "us" (q 0.5 *. 1e3);
        m "req_us_p99" "us" (q 0.99 *. 1e3);
      ]
    | "chaos" | "serve-chaos" -> [ m "cells_per_s" "1/s" rate ]
    | _ -> []
  in
  let paper =
    if workload = "spec" then
      (* the paper reports ICall at about 0 % overhead (§V-C); the
         simulator's cycle model is not validated against hardware *)
      [ m "overhead_pct" "%" (icall_overhead_pct ()); m "paper_icall_overhead_pct" "%" 0. ]
    else []
  in
  sim @ own @ common @ List.map (fun (n, v, u) -> m n u v) r.W.extra @ paper

(* ---------- per layer (the traced pass) ---------- *)

let sum_metrics ms =
  List.fold_left
    (fun (a : Metrics.t) (b : Metrics.t) ->
      {
        a with
        Metrics.instructions = Int64.add a.Metrics.instructions b.Metrics.instructions;
        icache_hits = a.icache_hits + b.icache_hits;
        icache_misses = a.icache_misses + b.icache_misses;
        dcache_hits = a.dcache_hits + b.dcache_hits;
        dcache_misses = a.dcache_misses + b.dcache_misses;
        itlb_hits = a.itlb_hits + b.itlb_hits;
        itlb_misses = a.itlb_misses + b.itlb_misses;
        dtlb_hits = a.dtlb_hits + b.dtlb_hits;
        dtlb_misses = a.dtlb_misses + b.dtlb_misses;
        syscalls = a.syscalls + b.syscalls;
        block_enters = a.block_enters + b.block_enters;
        trace_enters = a.trace_enters + b.trace_enters;
        trace_retires = a.trace_retires + b.trace_retires;
        traces_compiled = a.traces_compiled + b.traces_compiled;
      })
    Metrics.zero ms

let ms_of name = Array.map (fun s -> s *. 1e3) (Span.durations name)

(* The first [kernel.run] chunk of each program: cold decode and trace
   caches. *)
let first_chunks ~parent_name =
  let all = Span.recorded () in
  let parents = List.filter (fun (s : Span.span) -> s.Span.name = parent_name) all in
  Array.of_list
    (List.filter_map
       (fun (p : Span.span) ->
         List.find_opt
           (fun (s : Span.span) -> s.Span.parent = p.Span.id && s.Span.name = "kernel.run")
           all
         |> Option.map (fun s -> Span.duration s *. 1e3))
       parents)

(* [traced] is the traced half of the pass, with its spans still
   recorded; [untraced] the half before it, for the overhead. *)
let per_layer ~workload ~(untraced : W.result) ~(traced : W.result) ~(probe : Layers.t)
    ~calib_ms ~gc:(g : Host.gc) =
  let dp = probe.Layers.datapath in
  let own_datapath = traced.W.insts > 0 in
  let sim = if own_datapath then sum_metrics traced.W.metrics else dp.Layers.dp_metrics in
  let runs = if own_datapath then List.length traced.W.metrics else 1 in
  let kinst = Int64.to_float sim.Metrics.instructions /. 1e3 in
  let ns_per_inst, warmup_ms, (gi, gm, gp) =
    match workload with
    | "spec" ->
      (* full chunks only: the last chunk of a slice is cut short *)
      let chunk_ns =
        List.filter_map
          (fun (s : Span.span) ->
            if s.Span.name = "kernel.run" && s.Span.insts = W.bench.W.chunk then
              Some (Span.duration s *. 1e9 /. float_of_int s.Span.insts)
            else None)
          (Span.recorded ())
      in
      ( Host.median (Array.of_list chunk_ns),
        Host.median (first_chunks ~parent_name:"spec.program"),
        Span.sums "kernel.run" )
    | _ when own_datapath ->
      let i, mw, pw = Span.sums "kernel.run_all" in
      (Span.total "kernel.run_all" *. 1e9 /. float_of_int i, dp.Layers.warmup_ms, (i, mw, pw))
    | _ ->
      ( dp.Layers.ns_per_inst,
        dp.Layers.warmup_ms,
        (dp.Layers.dp_insts, dp.Layers.dp_minor_words, dp.Layers.dp_promoted_words) )
  in
  let cells_ms =
    let own = ms_of "inject.cell" in
    if Array.length own > 0 then own else probe.Layers.probe_cells_ms
  in
  let extra name =
    List.find_map (fun (n, v, _) -> if n = name then Some v else None) traced.W.extra
  in
  let count name = Option.value ~default:0. (extra name) in
  let retried =
    match extra "retried_cells" with Some v -> v | None -> float_of_int probe.Layers.probe_retries
  in
  let mi = probe.Layers.micro and inj = probe.Layers.inject in
  [
    m "toolchain.compile_ms" "ms" (Host.median (ms_of "toolchain.compile"));
    m "machine.create_ms" "ms" (Host.median (ms_of "machine.create"));
    m "kernel.load_ms" "ms" (Host.median (ms_of "kernel.load"));
    m "machine.ns_per_inst" "ns" ns_per_inst;
    m "machine.warmup_ms" "ms" warmup_ms;
    m "machine.trace_coverage" "ratio"
      (float_of_int sim.Metrics.trace_retires /. Int64.to_float sim.Metrics.instructions);
    m "machine.trace_enters_per_kinst" "count" (float_of_int sim.Metrics.trace_enters /. kinst);
    m "machine.block_enters_per_kinst" "count" (float_of_int sim.Metrics.block_enters /. kinst);
    m "machine.traces_compiled" "count"
      (float_of_int sim.Metrics.traces_compiled /. float_of_int runs);
    m "mem.translate_ns" "ns" mi.Layers.translate_ns;
    m "mem.translate_roload_ns" "ns" mi.Layers.translate_roload_ns;
    m "mem.roload_over_load" "ratio" (mi.Layers.translate_roload_ns /. mi.Layers.translate_ns);
    m "mem.tlb_lookup_ns" "ns" mi.Layers.tlb_lookup_ns;
    m "mem.read_u64_ns" "ns" mi.Layers.read_u64_ns;
    m "cache.access_ns" "ns" mi.Layers.cache_access_ns;
    m "mem.dtlb_miss_pct" "%" (Metrics.dtlb_miss_pct sim);
    m "mem.itlb_miss_pct" "%" (Metrics.itlb_miss_pct sim);
    m "cache.dcache_miss_pct" "%" (Metrics.dcache_miss_pct sim);
    m "cache.icache_miss_pct" "%" (Metrics.icache_miss_pct sim);
    m "kernel.syscalls_per_kinst" "count" (float_of_int sim.Metrics.syscalls /. kinst);
    m "kernel.restarts" "count" (count "restarts");
    m "kernel.redeliveries" "count" (count "redeliveries");
    m "snapshot.capture_us" "us" inj.Layers.capture_us;
    m "snapshot.fork_us" "us" inj.Layers.fork_us;
    m "snapshot.restore_us" "us" inj.Layers.restore_us;
    m "snapshot.diff_us" "us" inj.Layers.diff_us;
    m "inject.compile_victim_ms" "ms" inj.Layers.compile_victim_ms;
    m "inject.baseline_ms" "ms" inj.Layers.baseline_ms;
    m "inject.ladder_ms" "ms" inj.Layers.ladder_ms;
    m "inject.cell_ms_p50" "ms" (Host.median cells_ms);
    m "inject.cell_ms_tail" "ms"
      (Host.quantile (Host.tail_quantile (Array.length cells_ms)) cells_ms);
    m "inject.retried_cells" "count" retried;
    m "gc.minor_words_per_inst" "words" (gm /. float_of_int gi);
    m "gc.promoted_words_per_inst" "words" (gp /. float_of_int gi);
    m "gc.major_collections" "count" (float_of_int g.Host.major_collections);
    m "gc.top_heap_mib" "MiB" (Host.top_heap_mib ());
    m "host.calib_ms" "ms" calib_ms;
    m "host.trace_overhead_pct" "%" ((ops_per_s untraced /. ops_per_s traced -. 1.) *. 100.);
  ]

(* ---------- rendering ---------- *)

(* Every digit the float carries; JSON has no NaN or infinity. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  let module J = Roload_util.Json in
  J.obj
    (List.map
       (fun x -> (x.name, J.obj [ ("value", number x.value); ("unit", J.str x.unit) ]))
       ms)

let result_line ~correct ~attempted ~failed ms =
  let module J = Roload_util.Json in
  J.obj
    [
      ("correct", J.bool correct);
      ("attempted", J.int attempted);
      ("failed", J.int failed);
      ("metrics", json_metrics ms);
    ]

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %16.6g %s\n" x.name x.value x.unit) ms
