(* The four workloads.  Each one compiles and boots its programs (the
   set-up, timed separately), then repeats one round of identical work
   until the budget is spent, timing every operation from outside and
   checking every simulated result.  An operation is a 100k-instruction
   [Kernel.run] chunk on [spec], a request on [serve], and a campaign
   cell on [chaos] and [serve-chaos].  Every call into a layer goes
   through [Span.with_], so the traced pass attributes host time to
   layers without any change to the program. *)

module Machine = Roload_machine.Machine
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Metrics = Roload_obs.Metrics
module System = Core.System
module Toolchain = Core.Toolchain
module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module Server = Roload_workloads.Server_like
module Campaign = Roload_inject.Campaign

let engine = Machine.Traced
let variant = System.Processor_kernel_modified
let scale = 1

(* The sizes a run works on.  [bench] is what the benchmark measures;
   the tests use [tiny]. *)
type size = {
  spec_programs : string list;  (** Spec_suite names, paper order *)
  spec_slice : int;  (** instructions each program runs from boot per round *)
  chunk : int;  (** instructions per [Kernel.run] chunk on [spec] *)
  serve_requests : int;  (** requests per [serve] round *)
  window : int;  (** hand-outs per host-latency window on [serve] *)
  chaos_count : int;  (** fault-plan length per [chaos] campaign *)
  sc_count : int;  (** fault-plan length per [serve-chaos] campaign *)
  sc_requests : int;  (** requests per [serve-chaos] cell *)
}

let bench =
  {
    spec_programs = Suite.names;
    spec_slice = 2_000_000;
    chunk = 100_000;
    serve_requests = 25_000;
    window = 16;
    chaos_count = 150;
    sc_count = 30;
    sc_requests = 400;
  }

let tiny =
  {
    spec_programs = [ "gcc"; "xalancbmk" ];
    spec_slice = 300_000;
    chunk = 100_000;
    serve_requests = 400;
    window = 8;
    chaos_count = 2;
    sc_count = 1;
    sc_requests = 100;
  }

(* How long the measured phase lasts: a host-time budget (the benchmark)
   or a fixed number of rounds (the tests, which need identical work in
   the untraced and traced passes).  Every round of a run does the same
   simulated work, so rounds differ only in what the host did to them;
   the phase always ends on a round boundary. *)
type budget = Seconds of float | Rounds of int

type round = {
  time_s : float;  (** host seconds of the round *)
  ops : int;  (** operations in the round *)
  op_ms : float array;  (** host ms per operation, one sample each *)
}

type result = {
  setup_s : float array;  (** host seconds of each set-up repetition *)
  rounds : round list;
  failed : int;  (** operations that failed a check or crashed *)
  wall_s : float;  (** host seconds of the measured phase *)
  insts : int;  (** simulated instructions retired; 0 where not observable *)
  facts : string list;
      (** exact simulated results of the first round, and of any round
          that differs from it *)
  problems : string list;  (** failed checks, human-readable *)
  metrics : Metrics.t list;  (** exact counters of every booted system *)
  extra : (string * float * string) list;
      (** the workload's own figures: name, value, unit *)
}

let ops r = List.fold_left (fun a x -> a + x.ops) 0 r.rounds

let setup_repeats = 7

(* Repeat the set-up [setup_repeats] times (the median is [setup_s]) and
   keep the last result. *)
let timed_setup f =
  let samples = Array.make setup_repeats 0. in
  let last = ref None in
  for i = 0 to setup_repeats - 1 do
    let r, dt = Host.time f in
    samples.(i) <- dt;
    last := Some r
  done;
  (Option.get !last, samples)

(* The round loop shared by every workload.  [f k] runs round [k] and
   returns its operation count and per-operation samples. *)
let rounds budget f =
  let t0 = Host.now () in
  let stop k =
    match budget with
    | Rounds n -> k >= n
    | Seconds s -> k > 0 && Host.now () -. t0 >= s
  in
  let rec go k acc =
    if stop k then List.rev acc
    else begin
      let (ops, op_ms), time_s = Host.time (fun () -> f k) in
      go (k + 1) ({ time_s; ops; op_ms } :: acc)
    end
  in
  let rs = go 0 [] in
  (rs, Host.now () -. t0)

(* Keep the first round's facts, and any later fact that differs from
   it: every round does the same simulated work, so a difference is a
   failure. *)
let check_repeat ~k ~fact facts bad =
  (match !facts with
  | first :: _ when k > 0 && first <> fact -> bad := "differs from the first round" :: !bad
  | _ -> ());
  if k = 0 || !bad <> [] then facts := fact :: !facts

let compile ~name ~scheme src =
  Span.with_ "toolchain.compile" (fun () ->
      Toolchain.compile_exe ~options:{ Toolchain.default_options with scheme } ~name src)

let boot () =
  let machine =
    Span.with_ "machine.create" (fun () ->
        Machine.create ~engine (System.machine_config variant))
  in
  (machine, Kernel.create ~machine ~config:(System.kernel_config variant))

let load kernel exe = Span.with_ "kernel.load" (fun () -> Kernel.load kernel exe)

let status_string = function
  | Process.Running -> "running"
  | Process.Exited c -> Printf.sprintf "exit %d" c
  | Process.Killed s -> "killed " ^ Roload_kernel.Signal.to_string s

let md5 s = Digest.to_hex (Digest.string s)

(* ---------- spec ---------- *)

let spec_schemes = [ Pass.Unprotected; Pass.Icall ]
let spec_key name scheme = name ^ "/" ^ Pass.scheme_name scheme

(* One program from boot in fixed-instret chunks, until it exits or
   retires [limit] instructions.  Run limits are cumulative retire
   counts, and a paused-and-resumed run is bit-identical to an
   uninterrupted one: chunking changes no architectural counter, only
   where traces are entered.  [on_chunk] gets each chunk's host seconds
   and retired instructions. *)
let run_chunked ?(limit = Int64.max_int) ~chunk ~on_chunk exe =
  let machine, kernel = boot () in
  let process = load kernel exe in
  Kernel.schedule kernel process;
  let rec go prev =
    let target = Int64.min limit (Int64.add prev (Int64.of_int chunk)) in
    let o, dt =
      Host.time (fun () ->
          Span.with_
            ~insts:(fun (o : Kernel.run_outcome) ->
              Int64.to_int (Int64.sub o.Kernel.instructions prev))
            "kernel.run"
            (fun () -> Kernel.run ~limit:{ Kernel.max_instructions = target } kernel process))
    in
    on_chunk dt (Int64.to_int (Int64.sub o.Kernel.instructions prev));
    if
      o.Kernel.status = Process.Running
      && Int64.compare o.Kernel.instructions target >= 0
      && Int64.compare target limit < 0
    then go o.Kernel.instructions
    else o
  in
  let o = go 0L in
  (o, System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu process))

(* A round boots every program, stock and ICall, and runs each for its
   first [spec_slice] instructions with caches and TLBs empty.  Short
   identical rounds keep the measured mix the same however many of
   them a run gets; whole programs would make one round take a whole
   run.  Each slice's cycles, instret and console output so far are
   pinned. *)
let spec ~seed:_ ~size ~budget =
  let programs =
    List.filter_map Suite.find size.spec_programs
    |> List.concat_map (fun b -> List.map (fun s -> (b, s)) spec_schemes)
  in
  let exes, setup_s =
    timed_setup (fun () ->
        let exes =
          List.map
            (fun ((b : Suite.benchmark), s) ->
              ( spec_key b.Suite.name s,
                compile ~name:b.Suite.name ~scheme:s (b.Suite.source ~scale) ))
            programs
        in
        (* boot: what the first measured instruction waits for *)
        let _, kernel = boot () in
        ignore (load kernel (snd (List.hd exes)));
        exes)
  in
  let insts = ref 0 and failed = ref 0 in
  let facts = ref [] and problems = ref [] and metrics = ref [] in
  (* per-benchmark host time and instructions, both builds together *)
  let per_program = Hashtbl.create 16 in
  let limit = Int64.of_int size.spec_slice in
  let rounds, wall_s =
    rounds budget (fun k ->
        let op_ms = ref [] and ops = ref 0 in
        let lines =
          List.map
            (fun (key, exe) ->
              let (o, m), dt =
                Host.time @@ fun () ->
                Span.with_ "spec.program" (fun () ->
                    run_chunked ~limit ~chunk:size.chunk exe ~on_chunk:(fun dt n ->
                        incr ops;
                        insts := !insts + n;
                        if n = size.chunk then op_ms := (dt *. 1e3) :: !op_ms))
              in
              metrics := m :: !metrics;
              let name = List.hd (String.split_on_char '/' key) in
              let t, i = Option.value ~default:(0., 0) (Hashtbl.find_opt per_program name) in
              Hashtbl.replace per_program name (t +. dt, i + Int64.to_int o.Kernel.instructions);
              let ((c, i, out) as got) =
                (o.Kernel.cycles, o.Kernel.instructions, md5 o.Kernel.output)
              in
              let bad =
                match o.Kernel.status with
                | Process.Running | Process.Exited 0 -> (
                  match List.assoc_opt (key, size.spec_slice) Pins.spec with
                  | Some pin when pin = got -> []
                  | Some (pc, pi, pout) ->
                    [
                      Printf.sprintf "cycles/instret/output %Ld/%Ld/%s, pinned %Ld/%Ld/%s" c i out
                        pc pi pout;
                    ]
                  | None -> [ "no pinned result" ])
                | st -> [ "status " ^ status_string st ]
              in
              if bad <> [] then begin
                failed := !failed + ((Int64.to_int i + size.chunk - 1) / size.chunk);
                problems :=
                  Printf.sprintf "spec round %d %s: %s" k key (String.concat "; " bad) :: !problems
              end;
              Printf.sprintf "%s cycles=%Ld instret=%Ld output=%s" key c i out)
            exes
        in
        let bad = ref [] in
        check_repeat ~k ~fact:(String.concat "\n" lines) facts bad;
        if !bad <> [] then
          problems := Printf.sprintf "spec round %d: %s" k (String.concat "; " !bad) :: !problems;
        (!ops, Array.of_list (List.rev !op_ms)))
  in
  {
    setup_s;
    rounds;
    failed = !failed;
    wall_s;
    insts = !insts;
    facts = List.rev !facts;
    problems = List.rev !problems;
    metrics = List.rev !metrics;
    extra =
      List.filter_map
        (fun name ->
          Option.map
            (fun (t, i) -> ("sim_mips." ^ name, float_of_int i /. t /. 1e6, "M/s"))
            (Hashtbl.find_opt per_program name))
        size.spec_programs;
  }

(* ---------- serve ---------- *)

(* Reference model of the committed result of one request — the
   server's handler, plugin and callback chain written out in OCaml.
   Every intermediate value is non-negative and below 2^52, so int64
   arithmetic matches the simulated 64-bit integers exactly.  It checks
   the simulated checksum against arithmetic that shares no code with
   the toolchain or the machine. *)
let server_result payload =
  let m = 1_000_003L in
  let ( % ) = Int64.rem and ( * ) = Int64.mul and ( + ) = Int64.add in
  let ( >> ) = Int64.shift_right and ( << ) = Int64.shift_left in
  let ( land ) = Int64.logand and ( lxor ) = Int64.logxor in
  let p = Int64.of_int payload in
  let h =
    match payload mod 4 with
    | 0 -> p % m
    | 1 ->
      let h = p * 2654435761L % m in
      (h + (p >> 5)) % m
    | 2 ->
      let steps = Int64.to_int ((p % 17L) + 3L) in
      let h = ref 0L in
      for i = 0 to steps - 1 do
        h := ((!h * 7L) + p + Int64.of_int i) % m
      done;
      !h
    | _ ->
      let h = ref p in
      for _ = 1 to 5 do
        h := ((!h << 3) lxor (!h >> 2)) land 16777215L;
        h := (!h + p) % m
      done;
      !h
  in
  let v =
    match Int64.to_int (h % 3L) with
    | 0 ->
      let acc = ref h in
      for i = 0 to 7 do
        acc := ((!acc * 31L) + Int64.of_int i) % m
      done;
      !acc
    | 1 ->
      let acc = (h lxor (h >> 7)) land 1048575L in
      ((acc * 131L) + 17L) % m
    | _ -> (((h land 255L) << 12) + (h >> 8)) % m
  in
  (v + 11L) % m

let server_checksum stream =
  Array.fold_left (fun acc p -> Int64.rem (Int64.add acc (server_result p)) 1_000_003L) 0L stream

(* The repo's latency percentile: nearest rank on the sorted cycles. *)
let cycle_percentile lats p =
  let a = Array.copy lats in
  Array.sort Int64.compare a;
  let n = Array.length a in
  if n = 0 then 0L else a.((p * (n - 1)) / 100)

(* A round serves the seeded request stream once, closed batch: the
   device is loaded up front, four forked workers drain it through one
   shard.  Host time per request is read at every [window]-th hand-out. *)
let serve ~seed ~size ~budget =
  let stream = Server.requests ~seed ~count:size.serve_requests in
  let expected = server_checksum stream in
  let exe, setup_s =
    timed_setup (fun () ->
        let exe = compile ~name:Server.name ~scheme:Pass.Icall (Server.source ~scale) in
        let _, kernel = boot () in
        Kernel.set_requests kernel stream;
        ignore (load kernel exe);
        exe)
  in
  let insts = ref 0 and failed = ref 0 and sim = ref [] in
  let facts = ref [] and problems = ref [] and metrics = ref [] in
  let rounds, wall_s =
    rounds budget (fun k ->
        let machine, kernel = boot () in
        Kernel.set_requests ~shards:1 kernel stream;
        (* a one-shot hook that re-arms itself: it reads the clock and
           touches no simulated state *)
        let stamps = ref [] in
        let rec arm at =
          Kernel.set_request_hook kernel ~at (fun _ ->
              stamps := Host.now () :: !stamps;
              arm (at + size.window))
        in
        arm 0;
        let process = load kernel exe in
        Kernel.spawn_root kernel process;
        let o =
          Span.with_
            ~insts:(fun (o : Kernel.run_outcome) -> Int64.to_int o.Kernel.instructions)
            "kernel.run_all"
            (fun () ->
              Kernel.run_all ~limit:{ Kernel.max_instructions = 2_000_000_000L } kernel)
        in
        let served = Kernel.requests_served kernel in
        let lats = Kernel.request_latencies kernel in
        let p50 = cycle_percentile lats 50 and p99 = cycle_percentile lats 99 in
        let checksum = Kernel.server_checksum kernel in
        let m = System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu process) in
        insts := !insts + Int64.to_int o.Kernel.instructions;
        metrics := m :: !metrics;
        sim := [ (o.Kernel.cycles, p50, p99, m.Metrics.syscalls) ];
        let bad = ref [] in
        if o.Kernel.status <> Process.Exited 0 then
          bad := ("root " ^ status_string o.Kernel.status) :: !bad;
        if served <> size.serve_requests then bad := Printf.sprintf "served %d" served :: !bad;
        (* workers exit with their private partial sums *)
        List.iter
          (fun (pid, st) ->
            match st with
            | Process.Exited _ -> ()
            | _ -> bad := Printf.sprintf "task %d %s" pid (status_string st) :: !bad)
          (Kernel.task_statuses kernel);
        if checksum <> expected || Kernel.console kernel <> Printf.sprintf "%Ld\n" expected then
          bad := Printf.sprintf "checksum %Ld, reference model %Ld" checksum expected :: !bad;
        (match List.assoc_opt (seed, size.serve_requests) Pins.serve with
        | Some pin when pin <> (o.Kernel.cycles, p50, p99) ->
          let c, a, b = pin in
          bad :=
            Printf.sprintf "cycles/p50/p99 %Ld/%Ld/%Ld, pinned %Ld/%Ld/%Ld" o.Kernel.cycles p50
              p99 c a b
            :: !bad
        | _ -> ());
        check_repeat ~k facts bad
          ~fact:
            (Printf.sprintf
               "serve seed=%Ld served=%d checksum=%Ld cycles=%Ld instret=%Ld p50=%Ld p99=%Ld"
               seed served checksum o.Kernel.cycles o.Kernel.instructions p50 p99);
        if !bad <> [] then begin
          failed := !failed + size.serve_requests;
          problems := Printf.sprintf "serve round %d: %s" k (String.concat "; " !bad) :: !problems
        end;
        let rec windows acc = function
          | b :: (a :: _ as rest) ->
            windows (((b -. a) *. 1e3 /. float_of_int size.window) :: acc) rest
          | _ -> acc
        in
        (size.serve_requests, Array.of_list (windows [] !stamps)))
  in
  let cycles, p50, p99, syscalls = List.hd !sim in
  {
    setup_s;
    rounds;
    failed = !failed;
    wall_s;
    insts = !insts;
    facts = List.rev !facts;
    problems = List.rev !problems;
    metrics = List.rev !metrics;
    extra =
      [
        ("sim_cycles", Int64.to_float cycles, "cycles");
        ("latency_cycles_p50", Int64.to_float p50, "cycles");
        ("latency_cycles_p99", Int64.to_float p99, "cycles");
        ("syscalls_per_req", float_of_int syscalls /. float_of_int size.serve_requests, "count");
      ];
  }

(* ---------- the two campaigns ---------- *)

(* Per-cell host time from outside a campaign: its sabotage hook runs at
   the start of every cell attempt (it raises nothing here), so with one
   job consecutive stamps bracket consecutive attempts. *)
type stamps = { mutable at : float list; mutable retries : int }

let stamper () =
  let st = { at = []; retries = 0 } in
  let hook ~index:_ ~scheme:_ ~attempt =
    st.at <- Host.now () :: st.at;
    if attempt > 1 then st.retries <- st.retries + 1
  in
  (st, hook)

(* One campaign call, timed: per-attempt samples in ms, and spans for its
   set-up and each cell. *)
let timed_campaign f =
  let st, hook = stamper () in
  let start = Host.now () in
  let report = Span.with_ "inject.campaign" (fun () -> f hook) in
  let stop = Host.now () in
  let at = List.rev st.at in
  (match at with
  | first :: _ -> Span.add "inject.campaign_setup" ~start ~stop:first
  | [] -> ());
  let rec cells acc = function
    | a :: (b :: _ as rest) ->
      Span.add "inject.cell" ~start:a ~stop:b;
      cells ((b -. a) *. 1e3 :: acc) rest
    | [ a ] ->
      Span.add "inject.cell" ~start:a ~stop;
      (stop -. a) *. 1e3 :: acc
    | [] -> acc
  in
  (report, Array.of_list (List.rev (cells [] at)), st.retries)

(* A campaign's set-up as a user waits for it: every victim compiled, one
   system booted. *)
let campaign_setup compile_all =
  snd
    (timed_setup (fun () ->
         let exes = compile_all () in
         let _, kernel = boot () in
         ignore (load kernel (List.hd exes))))

(* The loop both campaigns share.  [campaign hook] runs one campaign and
   returns its cell count, failed cells, a fact line, failed checks and
   figures to keep. *)
let campaign_rounds ~name ~setup_s ~budget campaign =
  let failed = ref 0 and retries = ref 0 and keep = ref [] in
  let facts = ref [] and problems = ref [] in
  let rounds, wall_s =
    rounds budget (fun k ->
        let (cells, cell_failures, fact, checks, figures), op_ms, r = timed_campaign campaign in
        retries := !retries + r;
        keep := figures;
        let bad = ref checks in
        check_repeat ~k ~fact facts bad;
        failed := !failed + if !bad <> [] then cells else cell_failures;
        if !bad <> [] || cell_failures > 0 then
          problems :=
            Printf.sprintf "%s round %d: %d failed cells; %s" name k cell_failures
              (String.concat "; " !bad)
            :: !problems;
        (cells, op_ms))
  in
  {
    setup_s;
    rounds;
    failed = !failed;
    wall_s;
    insts = 0;
    facts = List.rev !facts;
    problems = List.rev !problems;
    metrics = [];
    extra = ("retried_cells", float_of_int !retries, "count") :: !keep;
  }

(* A round is one Campaign.run: snapshot-seeded cells over the default
   schemes, one job. *)
let chaos ~seed ~size ~budget =
  let setup_s =
    campaign_setup (fun () ->
        List.map
          (fun s -> Span.with_ "toolchain.compile" (fun () -> Campaign.compile_victim s))
          Campaign.default_schemes)
  in
  campaign_rounds ~name:"chaos" ~setup_s ~budget (fun hook ->
      let report =
        Campaign.run
          { Campaign.default_config with
            seed; count = size.chaos_count; jobs = Some 1; sabotage = Some hook }
      in
      let rows = report.Campaign.rows in
      let failures =
        List.length
          (List.filter (fun (r : Campaign.row) -> r.Campaign.outcome = Campaign.Failed) rows)
      in
      let digest = md5 (Campaign.to_json report) in
      let g = Campaign.gate report in
      let checks =
        (if g.Campaign.silent_under_roload <> 0 || g.Campaign.undetected_tamper <> 0 then
           [ "gate: a ROLoad scheme missed a fault" ]
         else [])
        @ (if report.Campaign.oracle_checked && report.Campaign.oracle_agreed then []
           else [ "baselines disagree with the IR oracle" ])
        @
        match List.assoc_opt (seed, size.chaos_count) Pins.chaos with
        | Some d when d <> digest -> [ Printf.sprintf "report %s, pinned %s" digest d ]
        | _ -> []
      in
      ( List.length rows,
        failures,
        Printf.sprintf "chaos seed=%Ld count=%d cells=%d report=%s" seed size.chaos_count
          (List.length rows) digest,
        checks,
        [] ))

let sc_schemes = Campaign.default_schemes

(* A round is one Campaign.run_server: live-server cells over the default
   schemes, one job. *)
let serve_chaos ~seed ~size ~budget =
  let setup_s =
    campaign_setup (fun () ->
        List.map
          (fun s ->
            compile
              ~name:("server-chaos-" ^ Pass.scheme_name s)
              ~scheme:s
              (Server.source_workers ~workers:Server.workers ~scale))
          sc_schemes)
  in
  let roload = List.map Pass.scheme_name Campaign.roload_schemes in
  campaign_rounds ~name:"serve-chaos" ~setup_s ~budget (fun hook ->
      let report =
        Campaign.run_server
          { Campaign.default_server_config with
            sv_seed = seed; sv_count = size.sc_count; sv_requests = size.sc_requests;
            sv_schemes = sc_schemes; sv_jobs = Some 1; sv_sabotage = Some hook }
      in
      let rows = report.Campaign.sv_rows in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      let module F = Roload_inject.Server_fault in
      let on_roload f (r : Campaign.server_row) =
        if List.mem r.Campaign.sv_scheme roload then f r.Campaign.sv_tally else 0
      in
      let good = sum (on_roload (fun t -> t.F.served + t.F.retried + t.F.duplicated)) in
      let attempted = sum (on_roload F.tally_requests) in
      let failures = sum (fun r -> if r.Campaign.sv_failed then 1 else 0) in
      let digest = md5 (Campaign.server_to_json report) in
      let g = Campaign.server_gate report in
      let checks =
        (if g.Campaign.sg_low_availability <> 0 || g.Campaign.sg_corrupted_under_roload <> 0 then
           [ "gate: a ROLoad scheme fell below the availability floor or corrupted" ]
         else [])
        @
        match List.assoc_opt (seed, size.sc_count, size.sc_requests) Pins.serve_chaos with
        | Some d when d <> digest -> [ Printf.sprintf "report %s, pinned %s" digest d ]
        | _ -> []
      in
      ( List.length rows,
        failures,
        Printf.sprintf "serve-chaos seed=%Ld count=%d requests=%d cells=%d report=%s" seed
          size.sc_count size.sc_requests (List.length rows) digest,
        checks,
        [
          ("served_ratio", float_of_int good /. float_of_int (max 1 attempted), "ratio");
          ("restarts", float_of_int (sum (fun r -> r.Campaign.sv_restarts)), "count");
          ("redeliveries", float_of_int (sum (fun r -> r.Campaign.sv_tally.F.retried)), "count");
        ] ))

let all = [ ("spec", spec); ("serve", serve); ("chaos", chaos); ("serve-chaos", serve_chaos) ]
