(* The chaos campaign: baseline-vs-injected differential runs.

   One seeded plan drives every scheme.  Per scheme the victim is
   compiled once and a baseline (uninjected) run is measured; each cell
   then runs the victim paused at the plan entry's trigger point (a
   retire-count fraction of that scheme's baseline), applies the fault
   through the injector backdoors, resumes under a watchdog budget, and
   classifies the outcome against the baseline.  Every cell boots from
   reset: boot is cheap (every page starts on the shared zero page), so
   a cell costs its own instructions and holds no state once it settles.
   Silent-corruption verdicts additionally carry a page-level diff
   against the baseline's final memory (the differential-state
   localizer).

   Both this campaign and the live-server campaign below run on one
   cell-campaign harness ([run_cells]): every cell runs behind
   [Experiments.run_cells_contained] — a crashing cell is retried a
   bounded, deterministic number of times and then becomes a structured
   failure row instead of aborting the campaign.  Rows are appended to a
   checkpoint file the moment each cell settles, and [resume = true]
   skips cells already recorded there; the final report is sorted by
   (plan index, scheme), so a resumed run renders byte-identically to an
   uninterrupted one.  Each campaign supplies only its plan, baselines,
   cell function and rendering. *)

module Pass = Roload_passes.Pass
module Exe = Roload_obj.Exe
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Signal = Roload_kernel.Signal
module Machine = Roload_machine.Machine
module System = Core.System
module Parallel = Core.Parallel
module Experiments = Core.Experiments
module Toolchain = Core.Toolchain
module Trapclass = Roload_security.Trapclass
module Table = Roload_util.Table
module Json = Roload_util.Json
module Diff = Roload_fuzz.Diff
module Ir_eval = Roload_fuzz.Ir_eval
module Snapshot = Roload_kernel.Snapshot
module Phys_mem = Roload_mem.Phys_mem

let roload_schemes = [ Pass.Vcall; Pass.Icall; Pass.Retcall ]
let default_schemes = [ Pass.Unprotected; Pass.Cfi_baseline; Pass.Vcall; Pass.Icall ]

(* Which (scheme, kind) cells are meaningful.  The icall redirect is
   only run where the scheme claims to police indirect calls (or claims
   nothing): under VCall/VTint an indirect call is out of scope by
   design, and reporting their silent miss would charge them for an
   attack they never promise to stop. *)
let applicable scheme (kind : Fault.kind) =
  match kind with
  | Fault.Ptr_redirect Fault.Icall_sink -> (
    match scheme with
    | Pass.Unprotected | Pass.Cfi_baseline | Pass.Icall -> true
    | Pass.Vcall | Pass.Vtint_baseline | Pass.Retcall -> false)
  | Fault.Ptr_redirect Fault.Vcall_sink -> (
    match scheme with Pass.Retcall -> false | _ -> true)
  | _ -> true

type config = {
  seed : int64;
  count : int;  (** plan length; cells = count x applicable schemes *)
  schemes : Pass.scheme list;
  attempts : int;  (** bounded deterministic retries per cell *)
  jobs : int option;
  checkpoint : string option;  (** incremental persistence file *)
  resume : bool;  (** skip cells already in the checkpoint *)
  checkpoint_batch : int;  (** rows buffered per checkpoint flush *)
  sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
      (** test hook: raise from inside a chosen cell *)
  max_cells : int option;  (** test hook: simulate a mid-run kill *)
  elide : bool;  (** compile victims with proof-guided ld.ro check elision *)
}

let default_config =
  {
    seed = 1L;
    count = 60;
    schemes = default_schemes;
    attempts = 2;
    jobs = None;
    checkpoint = None;
    resume = false;
    checkpoint_batch = 1;
    sabotage = None;
    max_cells = None;
    elide = false;
  }

type outcome = Verdict of Fault.verdict | Failed

type row = {
  index : int;
  scheme : string;
  cls : string;
  label : string;
  trigger : int64;
  applied : bool;
  attempts : int;
  outcome : outcome;
  detail : string;
}

type report = {
  rows : row list;
  schemes : Pass.scheme list;
  oracle_checked : bool;
  oracle_agreed : bool;
  corruption_diffs : ((int * string) * Phys_mem.page_diff list) list;
      (* per silent-corruption cell, keyed by (index, scheme): the pages
         where the injected run's final memory differs from the clean
         baseline's — localization only, never part of rows/checkpoint *)
}

(* ---------- one run, pausable ---------- *)

let baseline_budget = 50_000_000L

let run_with_pause ?engine ?(variant = System.Processor_kernel_modified)
    ~max_instructions ?pause_at ?inject exe =
  let machine = Machine.create ?engine (System.machine_config variant) in
  let kernel = Kernel.create ~machine ~config:(System.kernel_config variant) in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  let finish () = Kernel.run ~limit:{ Kernel.max_instructions } kernel process in
  let outcome =
    match pause_at with
    | Some at when Int64.compare at 0L > 0 && Int64.compare at max_instructions < 0
      -> (
      (* run limits are cumulative retire counts, so pausing at [at] and
         finishing under the full budget retires exactly the same
         instruction stream as one uninterrupted run *)
      let paused = Kernel.run ~limit:{ Kernel.max_instructions = at } kernel process in
      match (paused.Kernel.status, inject) with
      | Process.Running, Some f ->
        f ~machine ~process;
        finish ()
      | Process.Running, None -> finish ()
      | _ -> paused)
    | _ -> finish ()
  in
  (outcome, machine, kernel, process)

let measure ?engine ?variant ?pause_at ~max_instructions exe =
  let outcome, machine, kernel, process =
    run_with_pause ?engine ?variant ~max_instructions ?pause_at exe
  in
  (outcome, System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu process))

(* ---------- verdicts ---------- *)

let status_str = function
  | Process.Exited n -> Printf.sprintf "exit %d" n
  | Process.Killed sg -> Signal.to_string sg
  | Process.Running -> "running"

let classify ~(baseline : Kernel.run_outcome) (final : Kernel.run_outcome) =
  match final.Kernel.status with
  | Process.Killed sg -> (
    match Trapclass.classify_signal sg with
    | Trapclass.Roload_fault -> (Fault.Detected_roload, "killed: " ^ Signal.to_string sg)
    | _ -> (Fault.Detected_segv, "killed: " ^ Signal.to_string sg))
  | Process.Running ->
    (Fault.Divergent_output, "watchdog: still running at the instruction budget")
  | Process.Exited code -> (
    match baseline.Kernel.status with
    | Process.Exited b
      when b = code && String.equal final.Kernel.output baseline.Kernel.output ->
      (Fault.Masked, "behavior identical to baseline")
    | Process.Exited 0 when code = 0 ->
      ( Fault.Silent_corruption,
        Printf.sprintf "clean exit, corrupted output %S (baseline %S)"
          final.Kernel.output baseline.Kernel.output )
    | _ ->
      ( Fault.Divergent_output,
        Printf.sprintf "exit %d vs baseline %s" code (status_str baseline.Kernel.status)
      ))

(* ---------- compile & baseline ---------- *)

let compile_victim ?(elide = false) scheme =
  Toolchain.compile_exe
    ~options:{ Toolchain.default_options with Toolchain.scheme; Toolchain.elide }
    ~name:("chaos-" ^ Pass.scheme_name scheme)
    Chaos_victim.source

(* The baseline keeps its final memory image: silent-corruption verdicts
   are localized by diffing the injected run's final memory against it. *)
let baseline_run_full exe =
  let outcome, machine, _, _ = run_with_pause ~max_instructions:baseline_budget exe in
  (outcome, Phys_mem.snapshot (Machine.mem machine))

let baseline_run exe = fst (baseline_run_full exe)

(* ---------- one cell ---------- *)

let trigger_of ~(baseline : Kernel.run_outcome) (inj : Fault.injection) =
  let t =
    Int64.div
      (Int64.mul baseline.Kernel.instructions (Int64.of_int inj.Fault.trigger_permille))
      1000L
  in
  if Int64.compare t 1L < 0 then 1L else t

(* A cell's watchdog, for both campaigns: [budget_factor] times the
   uninjected run's instructions, plus slack for short victims. *)
let budget_factor = 8

let budget_of instructions =
  Int64.add (Int64.mul instructions (Int64.of_int budget_factor)) 100_000L

let run_one ?baseline_mem ~attempt ~(baseline : Kernel.run_outcome)
    (inj : Fault.injection) scheme exe =
  let trigger = trigger_of ~baseline inj in
  let applied = ref None in
  let inject ~machine ~process =
    applied := Injector.apply ~machine ~process ~exe inj.Fault.kind
  in
  let final, machine, _, _ =
    run_with_pause ~max_instructions:(budget_of baseline.Kernel.instructions)
      ~pause_at:trigger ~inject exe
  in
  let applied = !applied in
  let verdict, detail = classify ~baseline final in
  let diffs =
    match (verdict, baseline_mem) with
    | Fault.Silent_corruption, Some bm ->
      Some (Phys_mem.diff_images bm (Phys_mem.snapshot (Machine.mem machine)))
    | _ -> None
  in
  ( {
      index = inj.Fault.index;
      scheme = Pass.scheme_name scheme;
      cls = Fault.class_name inj.Fault.kind;
      label = Fault.kind_label inj.Fault.kind;
      trigger;
      applied = applied <> None;
      attempts = attempt;
      outcome = Verdict verdict;
      detail =
        (match applied with
        | Some (a : Injector.applied) -> a.Injector.desc ^ "; " ^ detail
        | None -> "not applied; " ^ detail);
    },
    diffs )

(* ---------- the snapshot ladder ---------- *)

(* Boot one parent system and advance it through the sorted distinct
   trigger frontiers, capturing a snapshot at each.  Run limits are
   cumulative retire counts, so the parent paused at each frontier is
   bit-identical to a from-reset run paused there.  No campaign forks
   from it: it is the snapshot layer's probe and the tests' oracle for
   {!run_one}. *)
let build_ladder ~triggers exe =
  let triggers = List.sort_uniq Int64.compare triggers in
  match triggers with
  | [] -> []
  | _ ->
    let machine =
      Machine.create (System.machine_config System.Processor_kernel_modified)
    in
    let kernel =
      Kernel.create ~machine
        ~config:(System.kernel_config System.Processor_kernel_modified)
    in
    let process = Kernel.load kernel exe in
    Kernel.schedule kernel process;
    List.map
      (fun t ->
        ignore (Kernel.run ~limit:{ Kernel.max_instructions = t } kernel process);
        (t, Snapshot.capture ~machine ~kernel ~process))
      triggers

(* ---------- checkpoint rows ---------- *)

let sanitize s =
  String.map (fun c -> match c with '\t' | '\n' | '\r' -> ' ' | c -> c) s

let outcome_tag = function Verdict v -> Fault.verdict_name v | Failed -> "failed"

let outcome_of_tag = function
  | "failed" -> Some Failed
  | t -> Option.map (fun v -> Verdict v) (Fault.verdict_of_string t)

let row_to_line (r : row) =
  Printf.sprintf "%d\t%s\t%s\t%s\t%Ld\t%b\t%d\t%s\t%s" r.index r.scheme r.cls r.label
    r.trigger r.applied r.attempts (outcome_tag r.outcome) (sanitize r.detail)

let row_of_line line =
  match String.split_on_char '\t' line with
  | [ index; scheme; cls; label; trigger; applied; attempts; tag; detail ] -> (
    match
      ( int_of_string_opt index,
        Int64.of_string_opt trigger,
        bool_of_string_opt applied,
        int_of_string_opt attempts,
        outcome_of_tag tag )
    with
    | Some index, Some trigger, Some applied, Some attempts, Some outcome ->
      Some { index; scheme; cls; label; trigger; applied; attempts; outcome; detail }
    | _ -> None)
  | _ -> None

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* ---------- batched checkpoint writer ----------

   Campaigns append one TSV row per settled cell; with fast cells and a
   wide -j pool the per-row open/write/close dominates the checkpoint
   cost.  The writer buffers [batch] rows per flush (batch=1 keeps the
   historical row-at-a-time behavior) and the [Fun.protect] wrapper
   flushes the tail on ANY exit — normal return or an exception escaping
   mid-campaign — so a later --resume always sees every settled cell.
   Whole rows are the flush unit, so a resumed file never holds a torn
   line, and resume's sorted-rows property makes the final report
   byte-identical no matter how rows were grouped into flushes. *)
let with_appender ?(batch = 1) checkpoint f =
  match checkpoint with
  | None -> f (fun _ -> ())
  | Some path ->
    let m = Mutex.create () in
    let buf = Buffer.create 4096 in
    let pending = ref 0 in
    let flush_locked () =
      if !pending > 0 then begin
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        output_string oc (Buffer.contents buf);
        close_out oc;
        Buffer.clear buf;
        pending := 0
      end
    in
    let locked g =
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) g
    in
    let append line =
      locked (fun () ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          incr pending;
          if !pending >= max 1 batch then flush_locked ())
    in
    Fun.protect ~finally:(fun () -> locked flush_locked) (fun () -> f append)

(* ---------- resume ---------- *)

exception Checkpoint_mismatch of { path : string; expected : string; found : string }

(* The rows a resumed campaign may skip.  A checkpoint whose header pins
   a different campaign is refused rather than truncated: treating it as
   "no prior rows" would silently destroy another campaign's settled
   cells.  An empty file (killed before its header landed) holds
   nothing to lose and starts over. *)
let prior_rows ~resume ~header ~parse checkpoint =
  match checkpoint with
  | Some path when resume && Sys.file_exists path -> (
    match read_lines path with
    | [] -> []
    | h :: rest when String.equal h header -> List.filter_map parse rest
    | found :: _ -> raise (Checkpoint_mismatch { path; expected = header; found }))
  | _ -> []

(* Start the checkpoint afresh (header only) unless resuming onto rows. *)
let start_checkpoint ~header ~prior checkpoint =
  match checkpoint with
  | Some path when prior = [] ->
    let oc = open_out path in
    output_string oc (header ^ "\n");
    close_out oc
  | _ -> ()

(* ---------- the cell-campaign harness ----------

   Both campaigns are a plan x schemes grid of independent cells, each
   settled cell persisted as one checkpoint row.  [run_cells] is
   everything except the experiment: resume, containment, checkpointing
   and the merge.  A mismatched checkpoint is refused before [setup]
   does any work (compiling, baselines); [setup] returns the plan, the
   per-scheme victims and the cell function.  Prior rows that [rerun]
   selects are settled again at attempt 1, after the fresh cells, for
   results the checkpoint does not persist.  Rows come back sorted by
   (plan index, scheme position), so a resumed campaign renders
   byte-identically to an uninterrupted one; the fresh then re-run cell
   results come with them. *)

let cell_order schemes =
  let pos = List.mapi (fun i s -> (Pass.scheme_name s, i)) schemes in
  let pos n = match List.assoc_opt n pos with Some i -> i | None -> max_int in
  fun (ia, sa) (ib, sb) -> compare (ia, pos sa) (ib, pos sb)

let run_cells ~header ~checkpoint ~resume ~batch ~attempts ~jobs ~max_cells ~sabotage
    ~to_line ~of_line ~key ~index ~applicable ~row ~failed ~rerun ~setup =
  let prior = prior_rows ~resume ~header ~parse:of_line checkpoint in
  let ctx, plan, exes, cell = setup () in
  let cells =
    List.concat_map
      (fun inj ->
        List.filter_map
          (fun (s, exe) -> if applicable s inj then Some (inj, s, exe) else None)
          exes)
      plan
  in
  let cell_key (inj, s, _) = (index inj, Pass.scheme_name s) in
  let done_keys = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace done_keys (key r) ()) prior;
  let todo = List.filter (fun c -> not (Hashtbl.mem done_keys (cell_key c))) cells in
  let todo =
    match max_cells with Some k -> List.filteri (fun i _ -> i < k) todo | None -> todo
  in
  start_checkpoint ~header ~prior checkpoint;
  let redo =
    let by_key = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace by_key (cell_key c) c) cells;
    List.filter_map
      (fun r -> if rerun r then Hashtbl.find_opt by_key (key r) else None)
      prior
  in
  let todo_arr = Array.of_list todo in
  let out_of idx = function
    | Experiments.Cell_ok o -> o
    | Experiments.Cell_failed { error; attempts } ->
      failed todo_arr.(idx) ~attempts ~error:(sanitize error)
  in
  let outcomes =
    with_appender ~batch checkpoint @@ fun append_row ->
    Experiments.run_cells_contained ~attempts ?jobs
      ~on_cell:(fun idx o -> append_row (to_line (row (out_of idx o))))
      ~f:(fun ~attempt ((inj, scheme, _) as c) ->
        Option.iter (fun f -> f ~index:(index inj) ~scheme ~attempt) sabotage;
        cell ~attempt c)
      todo
  in
  let fresh = List.mapi out_of outcomes in
  let order = cell_order (List.map fst exes) in
  let rows = List.sort (fun a b -> order (key a) (key b)) (prior @ List.map row fresh) in
  (ctx, rows, fresh @ List.map (cell ~attempt:1) redo)

(* ---------- the campaign ---------- *)

exception Broken_victim of string

let run (cfg : config) =
  let schemes = cfg.schemes in
  (* checkpoint: a header pinning (seed, count, schemes) plus one TSV
     row per settled cell.  [elide=true] is appended only when on, so
     checkpoints of pre-elision campaigns keep their exact header (and
     stay resumable). *)
  let header =
    Printf.sprintf "# roload-chaos v1 seed=%Ld count=%d schemes=%s%s" cfg.seed cfg.count
      (String.concat "," (List.map Pass.scheme_name schemes))
      (if cfg.elide then " elide=true" else "")
  in
  let setup () =
    (* compile serially: the toolchain owns global state *)
    let exes = List.map (fun s -> (s, compile_victim ~elide:cfg.elide s)) schemes in
    (* Every machine starts on the shared zero page, so baselines and
       cells share their untouched pages and the silent-corruption memory
       diffs stay O(touched pages), not O(DRAM). *)
    let baselines =
      Parallel.map ?jobs:cfg.jobs (fun (s, exe) -> (s, baseline_run_full exe)) exes
    in
    List.iter
      (fun (s, ((b : Kernel.run_outcome), _)) ->
        match b.Kernel.status with
        | Process.Exited 0 when String.equal b.Kernel.output Chaos_victim.benign_output ->
          ()
        | st ->
          raise
            (Broken_victim
               (Printf.sprintf "chaos victim broken under %s: %s, output %S"
                  (Pass.scheme_name s) (status_str st) b.Kernel.output)))
      baselines;
    (* cross-check the baselines against the reference IR oracle — the
       differential machinery roload-fuzz already trusts *)
    let oracle =
      match Diff.oracle_behaviors ~schemes Chaos_victim.source with
      | preds ->
        let ok =
          List.for_all2
            (fun (_, (b : Ir_eval.behavior)) (_, ((o : Kernel.run_outcome), _)) ->
              Trapclass.stop_equal b.Ir_eval.stop (Trapclass.stop_of_status o.Kernel.status)
              && String.equal b.Ir_eval.output o.Kernel.output)
            preds baselines
        in
        (true, ok)
      | exception _ -> (false, true)
    in
    let cell ~attempt ((inj : Fault.injection), scheme, exe) =
      let baseline, baseline_mem = List.assoc scheme baselines in
      run_one ~baseline_mem ~attempt ~baseline inj scheme exe
    in
    (oracle, Plan.build ~seed:cfg.seed ~count:cfg.count, exes, cell)
  in
  let (oracle_checked, oracle_agreed), rows, settled =
    run_cells ~header ~checkpoint:cfg.checkpoint ~resume:cfg.resume
      ~batch:cfg.checkpoint_batch ~attempts:cfg.attempts ~jobs:cfg.jobs
      ~max_cells:cfg.max_cells ~sabotage:cfg.sabotage ~to_line:row_to_line
      ~of_line:row_of_line
      ~key:(fun (r : row) -> (r.index, r.scheme))
      ~index:(fun (inj : Fault.injection) -> inj.Fault.index)
      ~applicable:(fun s (inj : Fault.injection) -> applicable s inj.Fault.kind)
      ~row:fst
      ~failed:(fun ((inj : Fault.injection), scheme, _) ~attempts ~error ->
        ( {
            index = inj.Fault.index;
            scheme = Pass.scheme_name scheme;
            cls = Fault.class_name inj.Fault.kind;
            label = Fault.kind_label inj.Fault.kind;
            trigger = 0L;
            applied = false;
            attempts;
            outcome = Failed;
            detail = error;
          },
          None ))
        (* Silent-corruption rows restored from a checkpoint carry no diff
           (the checkpoint persists rows only), so a resumed report would
           lose their localization.  Re-deriving those cells reproduces
           the fresh run's diff bit-for-bit, keeping resumed and
           uninterrupted reports byte-identical. *)
      ~rerun:(fun (r : row) -> r.outcome = Verdict Fault.Silent_corruption)
      ~setup
  in
  let order = cell_order schemes in
  let corruption_diffs =
    List.sort
      (fun (ka, _) (kb, _) -> order ka kb)
      (List.filter_map
         (fun ((r : row), diffs) -> Option.map (fun ds -> ((r.index, r.scheme), ds)) diffs)
         settled)
  in
  { rows; schemes; oracle_checked; oracle_agreed; corruption_diffs }

(* ---------- reporting ---------- *)

let verdict_of_row (r : row) = match r.outcome with Verdict v -> Some v | Failed -> None

let detected (r : row) =
  match r.outcome with
  | Verdict (Fault.Detected_roload | Fault.Detected_segv) -> true
  | _ -> false

let coverage_table (rp : report) =
  let t =
    Table.create
      ~title:
        "roload-chaos verdicts by class (R=ld.ro fault  S=other fault  C=silent \
         corruption  M=masked  D=divergent  F=cell failure)"
      ~header:("injection class" :: List.map Pass.scheme_name rp.schemes)
      ()
  in
  List.iter
    (fun cls ->
      let cells =
        List.map
          (fun s ->
            let name = Pass.scheme_name s in
            let rs =
              List.filter
                (fun (r : row) -> String.equal r.cls cls && String.equal r.scheme name)
                rp.rows
            in
            if rs = [] then "-"
            else begin
              let c v =
                List.length (List.filter (fun (r : row) -> r.outcome = Verdict v) rs)
              in
              let f =
                List.length (List.filter (fun (r : row) -> r.outcome = Failed) rs)
              in
              Printf.sprintf "%dR %dS %dC %dM %dD%s" (c Fault.Detected_roload)
                (c Fault.Detected_segv) (c Fault.Silent_corruption) (c Fault.Masked)
                (c Fault.Divergent_output)
                (if f > 0 then Printf.sprintf " %dF" f else "")
            end)
          rp.schemes
      in
      Table.add_row t (cls :: cells))
    Fault.all_class_names;
  t

(* The release gates: what the CI chaos-smoke job asserts. *)
type gate = { silent_under_roload : int; undetected_tamper : int; cell_failures : int }

let tamper_classes = [ "pte-key-flip"; "pte-ro-tamper"; "tlb-key-flip" ]

let gate (rp : report) =
  let roload_names =
    List.filter_map
      (fun s -> if List.mem s roload_schemes then Some (Pass.scheme_name s) else None)
      rp.schemes
  in
  let under_roload (r : row) = List.exists (String.equal r.scheme) roload_names in
  {
    silent_under_roload =
      List.length
        (List.filter
           (fun (r : row) ->
             under_roload r && r.outcome = Verdict Fault.Silent_corruption)
           rp.rows);
    undetected_tamper =
      List.length
        (List.filter
           (fun (r : row) ->
             under_roload r
             && List.mem r.cls tamper_classes
             && r.outcome <> Verdict Fault.Detected_roload)
           rp.rows);
    cell_failures =
      List.length (List.filter (fun (r : row) -> r.outcome = Failed) rp.rows);
  }

let render (rp : report) =
  let g = gate rp in
  Table.render (coverage_table rp)
  ^ Printf.sprintf
      "\n\
       cells: %d   silent-under-roload: %d   undetected-tamper-under-roload: %d   \
       cell-failures: %d\n\
       oracle cross-check: %s\n"
      (List.length rp.rows) g.silent_under_roload g.undetected_tamper g.cell_failures
      (if not rp.oracle_checked then "skipped (oracle declined the victim)"
       else if rp.oracle_agreed then "agreed"
       else "DIVERGED")

let to_json (rp : report) =
  let row_json (r : row) =
    Json.obj
      [
        ("index", Json.int r.index);
        ("scheme", Json.str r.scheme);
        ("class", Json.str r.cls);
        ("label", Json.str r.label);
        ("trigger", Json.int64 r.trigger);
        ("applied", Json.bool r.applied);
        ("attempts", Json.int r.attempts);
        ("verdict", Json.str (outcome_tag r.outcome));
        ("detail", Json.str r.detail);
      ]
  in
  let diff_json ((index, scheme), (ds : Phys_mem.page_diff list)) =
    Json.obj
      [
        ("index", Json.int index);
        ("scheme", Json.str scheme);
        ( "pages",
          Json.arr
            (List.map
               (fun (d : Phys_mem.page_diff) ->
                 Json.obj
                   [
                     ("page", Json.int d.Phys_mem.page);
                     ("addr", Json.int d.Phys_mem.addr);
                     ("baseline_byte", Json.int d.Phys_mem.a_byte);
                     ("corrupt_byte", Json.int d.Phys_mem.b_byte);
                   ])
               ds) );
      ]
  in
  let g = gate rp in
  Json.obj
    [
      ("schemes", Json.arr (List.map (fun s -> Json.str (Pass.scheme_name s)) rp.schemes));
      ("oracle_checked", Json.bool rp.oracle_checked);
      ("oracle_agreed", Json.bool rp.oracle_agreed);
      ("silent_under_roload", Json.int g.silent_under_roload);
      ("undetected_tamper", Json.int g.undetected_tamper);
      ("cell_failures", Json.int g.cell_failures);
      ("rows", Json.arr (List.map row_json rp.rows));
      ("corruption_diffs", Json.arr (List.map diff_json rp.corruption_diffs));
    ]

(* --diff-pages: the human-readable localization report.  A separate
   artifact on purpose — [render]'s table stays byte-identical to
   pre-snapshot campaigns. *)
let render_diffs (rp : report) =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((index, scheme), (ds : Phys_mem.page_diff list)) ->
      Buffer.add_string buf
        (Printf.sprintf "silent corruption at cell #%d under %s: %d page(s) differ\n"
           index scheme (List.length ds));
      List.iter
        (fun (d : Phys_mem.page_diff) ->
          Buffer.add_string buf
            (Printf.sprintf "  page %#x: first diff at %#x, baseline %#04x != %#04x\n"
               d.Phys_mem.page d.Phys_mem.addr d.Phys_mem.a_byte d.Phys_mem.b_byte))
        ds)
    rp.corruption_diffs;
  if rp.corruption_diffs = [] then
    Buffer.add_string buf "no silent corruption: nothing to localize\n";
  Buffer.contents buf

(* ---------- corpus reproducers ---------- *)

type replay_check = { rc_scheme : string; rc_expected : string; rc_actual : string }

let replay ~path =
  let seed = ref None and entry = ref None and expects = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | [ "seed"; v ] -> seed := Int64.of_string_opt v
        | [ "entry"; v ] -> entry := int_of_string_opt v
        | [ "expect"; s; v ] -> expects := (s, v) :: !expects
        | _ -> ())
    (read_lines path);
  match (!seed, !entry, List.rev !expects) with
  | Some seed, Some entry, (_ :: _ as expects) ->
    let inj = List.nth (Plan.build ~seed ~count:(entry + 1)) entry in
    List.map
      (fun (sname, expected) ->
        match Pass.scheme_of_string sname with
        | None -> { rc_scheme = sname; rc_expected = expected; rc_actual = "unknown-scheme" }
        | Some scheme ->
          let exe = compile_victim scheme in
          let baseline = baseline_run exe in
          let r, _ = run_one ~attempt:1 ~baseline inj scheme exe in
          { rc_scheme = sname; rc_expected = expected; rc_actual = outcome_tag r.outcome })
      expects
  | _ -> failwith ("malformed chaos reproducer: " ^ path)

(* ---------- the live-server campaign ----------

   The classic campaign above injects into a paused single-process
   victim and asks "was the tamper detected?".  The server campaign
   injects into a RUNNING multi-worker serving system and asks the
   robustness question instead: "how many requests were served
   correctly?" — per (injection class, scheme), with the supervised
   kernel restarting dead workers and redelivering their in-flight
   requests.

   Every cell is a full server run: compile the server workload under
   the scheme, load the sharded request device, arm the supervisor, and
   install a one-shot request hook that strikes the chosen worker when
   the device has handed out the entry's trigger count.  Per-request
   outcomes are judged against the scheme's uninjected baseline run
   (every request's correct result is a pure function of its payload),
   then folded into the serving-availability table.

   Determinism: the trigger is a handout count (not wall-clock), the
   scheduler quantum is retired instructions, the supervisor restart is
   a pure function of kernel state, and the injector backdoors are
   deterministic — so every cell, and hence the availability table, is
   byte-identical across engines and across -j. *)

type server_config = {
  sv_seed : int64;
  sv_count : int;  (** plan length; cells = count x applicable schemes *)
  sv_requests : int;  (** request-stream length per cell *)
  sv_workers : int;  (** forked worker-pool size *)
  sv_shards : int;  (** request-device shards *)
  sv_schemes : Pass.scheme list;
  sv_attempts : int;
  sv_jobs : int option;
  sv_time_slice : int option;
  sv_engine : Machine.engine option;
  sv_max_restarts : int;  (** supervisor restart budget per worker *)
  sv_deadline_cycles : int64;  (** per-request watchdog; 0 = off *)
  sv_checkpoint : string option;
  sv_resume : bool;
  sv_checkpoint_batch : int;
  sv_sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
  sv_max_cells : int option;
}

let default_server_config =
  {
    sv_seed = 1L;
    sv_count = 12;
    sv_requests = 400;
    sv_workers = 4;
    sv_shards = 1;
    sv_schemes = default_schemes;
    sv_attempts = 2;
    sv_jobs = None;
    sv_time_slice = None;
    sv_engine = None;
    sv_max_restarts = 3;
    sv_deadline_cycles = 5_000_000L;
    sv_checkpoint = None;
    sv_resume = false;
    sv_checkpoint_batch = 1;
    sv_sabotage = None;
    sv_max_cells = None;
  }

(* The icall redirect stays out of scope for schemes that never claim to
   police indirect calls (same reasoning as [applicable]); the kill and
   page-level classes are meaningful everywhere. *)
let server_applicable scheme (k : Server_fault.kind) =
  match k with
  | Server_fault.Worker_kill -> true
  | Server_fault.Tamper fk -> applicable scheme fk

type server_row = {
  sv_index : int;
  sv_scheme : string;
  sv_cls : string;
  sv_label : string;
  sv_worker : int;
  sv_trigger : int;  (* handout count the hook fired at *)
  sv_applied : bool;
  sv_cell_attempts : int;
  sv_failed : bool;  (* crash containment: the cell itself blew up *)
  sv_tally : Server_fault.tally;
  sv_restarts : int;
  sv_detail : string;
}

type server_report = {
  sv_rows : server_row list;  (** sorted by (plan index, scheme position) *)
  sv_report_schemes : Pass.scheme list;
  sv_report_requests : int;
}

let compile_server_victim ~workers scheme =
  Toolchain.compile_exe
    ~options:{ Toolchain.default_options with Toolchain.scheme }
    ~name:("server-chaos-" ^ Pass.scheme_name scheme)
    (Roload_workloads.Server_like.source_workers ~workers ~scale:1)

let server_trigger_of ~requests (inj : Server_fault.injection) =
  max 1 (inj.Server_fault.trigger_permille * requests / 1000)

(* one server run, optionally with an armed fault *)
let run_server_once (cfg : server_config) ?configure ~max_instructions exe stream =
  System.run_server ~max_instructions ?time_slice:cfg.sv_time_slice
    ?engine:cfg.sv_engine ~shards:cfg.sv_shards
    ~supervision:
      {
        Kernel.max_restarts = cfg.sv_max_restarts;
        Kernel.deadline_cycles = cfg.sv_deadline_cycles;
      }
    ?configure ~variant:System.Processor_kernel_modified ~requests:stream exe

let server_status_str (m : System.measurement) = System.status_string m

(* one cell: arm the hook, run, classify every request against the
   baseline's committed results *)
let run_server_cell (cfg : server_config) ~attempt ~(baseline_results : int64 option array)
    ~budget (inj : Server_fault.injection) scheme exe stream =
  let trigger = server_trigger_of ~requests:cfg.sv_requests inj in
  let applied = ref None in
  let configure kernel =
    Kernel.set_request_hook kernel ~at:trigger (fun k ->
        match Kernel.worker_pids k with
        | [] -> ()
        | pids -> (
          let pid = List.nth pids (inj.Server_fault.worker_slot mod List.length pids) in
          match inj.Server_fault.kind with
          | Server_fault.Worker_kill ->
            if Kernel.kill_task k ~pid ~info:"chaos" then
              applied :=
                Some
                  {
                    Injector.desc = Printf.sprintf "killed worker pid %d" pid;
                    Injector.addr = 0;
                  }
          | Server_fault.Tamper fk -> (
            match Kernel.task_process k pid with
            | None -> ()
            | Some process ->
              applied := Injector.apply ~machine:(Kernel.machine k) ~process ~exe fk)))
  in
  let m, stats = run_server_once cfg ~configure ~max_instructions:budget exe stream in
  let tally = ref Server_fault.empty_tally in
  Array.iteri
    (fun id rr ->
      tally :=
        Server_fault.tally_add !tally
          (Server_fault.classify_record ~baseline:baseline_results.(id) rr))
    stats.System.records;
  {
    sv_index = inj.Server_fault.index;
    sv_scheme = Pass.scheme_name scheme;
    sv_cls = Server_fault.class_name inj.Server_fault.kind;
    sv_label = Server_fault.kind_label inj.Server_fault.kind;
    sv_worker = inj.Server_fault.worker_slot;
    sv_trigger = trigger;
    sv_applied = !applied <> None;
    sv_cell_attempts = attempt;
    sv_failed = false;
    sv_tally = !tally;
    sv_restarts = stats.System.restarts;
    sv_detail =
      (match !applied with
      | Some (a : Injector.applied) ->
        Printf.sprintf "%s; root %s; %d restart(s)" a.Injector.desc
          (server_status_str m) stats.System.restarts
      | None -> Printf.sprintf "not applied; root %s" (server_status_str m));
  }

(* ---------- server checkpoint rows ---------- *)

let server_row_to_line (r : server_row) =
  Printf.sprintf "%d\t%s\t%s\t%s\t%d\t%d\t%b\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s"
    r.sv_index r.sv_scheme r.sv_cls r.sv_label r.sv_worker r.sv_trigger r.sv_applied
    r.sv_cell_attempts
    (if r.sv_failed then "failed" else "ok")
    r.sv_tally.Server_fault.served r.sv_tally.Server_fault.retried
    r.sv_tally.Server_fault.duplicated r.sv_tally.Server_fault.corrupted
    r.sv_tally.Server_fault.lost r.sv_restarts (sanitize r.sv_detail)

let server_row_of_line line =
  match String.split_on_char '\t' line with
  | [
      index; scheme; cls; label; worker; trigger; applied; attempts; tag; served;
      retried; duplicated; corrupted; lost; restarts; detail;
    ] -> (
    match
      ( int_of_string_opt index,
        int_of_string_opt worker,
        int_of_string_opt trigger,
        bool_of_string_opt applied,
        int_of_string_opt attempts,
        ( int_of_string_opt served,
          int_of_string_opt retried,
          int_of_string_opt duplicated,
          int_of_string_opt corrupted,
          int_of_string_opt lost ),
        int_of_string_opt restarts )
    with
    | ( Some sv_index,
        Some sv_worker,
        Some sv_trigger,
        Some sv_applied,
        Some sv_cell_attempts,
        (Some served, Some retried, Some duplicated, Some corrupted, Some lost),
        Some sv_restarts ) ->
      Some
        {
          sv_index;
          sv_scheme = scheme;
          sv_cls = cls;
          sv_label = label;
          sv_worker;
          sv_trigger;
          sv_applied;
          sv_cell_attempts;
          sv_failed = String.equal tag "failed";
          sv_tally =
            { Server_fault.served; retried; duplicated; corrupted; lost };
          sv_restarts;
          sv_detail = detail;
        }
    | _ -> None)
  | _ -> None

(* ---------- the server campaign driver ---------- *)

let run_server (cfg : server_config) =
  let schemes = cfg.sv_schemes in
  let header =
    Printf.sprintf
      "# roload-chaos-server v1 seed=%Ld count=%d requests=%d workers=%d shards=%d \
       restarts=%d deadline=%Ld schemes=%s"
      cfg.sv_seed cfg.sv_count cfg.sv_requests cfg.sv_workers cfg.sv_shards
      cfg.sv_max_restarts cfg.sv_deadline_cycles
      (String.concat "," (List.map Pass.scheme_name schemes))
  in
  let setup () =
    let stream =
      Roload_workloads.Server_like.requests ~seed:cfg.sv_seed ~count:cfg.sv_requests
    in
    (* compile serially: the toolchain owns global state *)
    let exes =
      List.map (fun s -> (s, compile_server_victim ~workers:cfg.sv_workers s)) schemes
    in
    (* per-scheme uninjected baselines: the correct committed result for
       every request id, plus the fuel yardstick for the cell watchdog *)
    let baselines =
      Parallel.map ?jobs:cfg.sv_jobs
        (fun (s, exe) ->
          let m, stats = run_server_once cfg ~max_instructions:2_000_000_000L exe stream in
          (s, (m, stats)))
        exes
    in
    List.iter
      (fun (s, ((m : System.measurement), (stats : System.server_stats))) ->
        let name = Pass.scheme_name s in
        if not (System.exited_cleanly m) then
          raise
            (Broken_victim
               (Printf.sprintf "server victim under %s: root %s" name
                  (server_status_str m)));
        if stats.System.served <> cfg.sv_requests then
          raise
            (Broken_victim
               (Printf.sprintf "server victim under %s served %d of %d" name
                  stats.System.served cfg.sv_requests));
        if stats.System.restarts <> 0 then
          raise
            (Broken_victim
               (Printf.sprintf "server victim under %s needed %d restart(s) uninjected"
                  name stats.System.restarts)))
      baselines;
    (* the committed results are a pure function of the payloads, so every
       scheme's baseline must agree — a divergence means a miscompile, not
       a chaos finding *)
    (match baselines with
    | (_, (_, first)) :: rest ->
      List.iter
        (fun (s, (_, (stats : System.server_stats))) ->
          if
            not
              (Int64.equal stats.System.checksum first.System.checksum
              && String.equal stats.System.console first.System.console)
          then
            raise
              (Broken_victim
                 (Printf.sprintf "server baseline checksum diverges under %s"
                    (Pass.scheme_name s))))
        rest
    | [] -> ());
    let per_scheme =
      List.map
        (fun (s, ((m : System.measurement), (stats : System.server_stats))) ->
          ( s,
            ( Array.map
                (fun (rr : Kernel.request_record) -> rr.Kernel.rr_result)
                stats.System.records,
              budget_of m.System.instructions ) ))
        baselines
    in
    let cell ~attempt (inj, scheme, exe) =
      let baseline_results, budget = List.assoc scheme per_scheme in
      run_server_cell cfg ~attempt ~baseline_results ~budget inj scheme exe stream
    in
    ((), Plan.build_server ~seed:cfg.sv_seed ~count:cfg.sv_count, exes, cell)
  in
  let _, rows, _ =
    run_cells ~header ~checkpoint:cfg.sv_checkpoint ~resume:cfg.sv_resume
      ~batch:cfg.sv_checkpoint_batch ~attempts:cfg.sv_attempts ~jobs:cfg.sv_jobs
      ~max_cells:cfg.sv_max_cells ~sabotage:cfg.sv_sabotage ~to_line:server_row_to_line
      ~of_line:server_row_of_line
      ~key:(fun (r : server_row) -> (r.sv_index, r.sv_scheme))
      ~index:(fun (inj : Server_fault.injection) -> inj.Server_fault.index)
      ~applicable:(fun s (inj : Server_fault.injection) ->
        server_applicable s inj.Server_fault.kind)
      ~row:Fun.id
      ~failed:(fun ((inj : Server_fault.injection), scheme, _) ~attempts ~error ->
        {
          sv_index = inj.Server_fault.index;
          sv_scheme = Pass.scheme_name scheme;
          sv_cls = Server_fault.class_name inj.Server_fault.kind;
          sv_label = Server_fault.kind_label inj.Server_fault.kind;
          sv_worker = inj.Server_fault.worker_slot;
          sv_trigger = 0;
          sv_applied = false;
          sv_cell_attempts = attempts;
          sv_failed = true;
          sv_tally = Server_fault.empty_tally;
          sv_restarts = 0;
          sv_detail = error;
        })
      ~rerun:(fun _ -> false)
      ~setup
  in
  { sv_rows = rows; sv_report_schemes = schemes; sv_report_requests = cfg.sv_requests }

(* ---------- server reporting & gates ---------- *)

let server_tally_of rows =
  List.fold_left
    (fun acc (r : server_row) ->
      {
        Server_fault.served = acc.Server_fault.served + r.sv_tally.Server_fault.served;
        retried = acc.Server_fault.retried + r.sv_tally.Server_fault.retried;
        duplicated = acc.Server_fault.duplicated + r.sv_tally.Server_fault.duplicated;
        corrupted = acc.Server_fault.corrupted + r.sv_tally.Server_fault.corrupted;
        lost = acc.Server_fault.lost + r.sv_tally.Server_fault.lost;
      })
    Server_fault.empty_tally rows

let availability_table (rp : server_report) =
  let t =
    Table.create
      ~title:
        "roload-chaos --server: serving availability by class (correct% over ok / \
         retried / duplicated / corrupted / lost)"
      ~header:("injection class" :: List.map Pass.scheme_name rp.sv_report_schemes)
      ()
  in
  List.iter
    (fun cls ->
      let cells =
        List.map
          (fun s ->
            let name = Pass.scheme_name s in
            let rs =
              List.filter
                (fun (r : server_row) ->
                  String.equal r.sv_cls cls
                  && String.equal r.sv_scheme name
                  && not r.sv_failed)
                rp.sv_rows
            in
            let failures =
              List.length
                (List.filter
                   (fun (r : server_row) ->
                     String.equal r.sv_cls cls
                     && String.equal r.sv_scheme name
                     && r.sv_failed)
                   rp.sv_rows)
            in
            if rs = [] && failures = 0 then "-"
            else begin
              let tl = server_tally_of rs in
              let restarts =
                List.fold_left (fun a (r : server_row) -> a + r.sv_restarts) 0 rs
              in
              Printf.sprintf "%.2f%% (%s) %dre%s"
                (100.0 *. Server_fault.availability tl)
                (Server_fault.tally_str tl) restarts
                (if failures > 0 then Printf.sprintf " %dF" failures else "")
            end)
          rp.sv_report_schemes
      in
      Table.add_row t (cls :: cells))
    Server_fault.all_class_names;
  t

(* The server release gates: under every ROLoad scheme every cell must
   keep availability at or above the floor with zero corrupted payloads;
   crashed cells are counted separately. *)
type server_gate = {
  sg_low_availability : int;
  sg_corrupted_under_roload : int;
  sg_cell_failures : int;
}

let availability_floor = 0.99

let server_gate (rp : server_report) =
  let roload_names =
    List.filter_map
      (fun s -> if List.mem s roload_schemes then Some (Pass.scheme_name s) else None)
      rp.sv_report_schemes
  in
  let under_roload (r : server_row) = List.exists (String.equal r.sv_scheme) roload_names in
  {
    sg_low_availability =
      List.length
        (List.filter
           (fun (r : server_row) ->
             under_roload r && (not r.sv_failed)
             && Server_fault.availability r.sv_tally < availability_floor)
           rp.sv_rows);
    sg_corrupted_under_roload =
      List.length
        (List.filter
           (fun (r : server_row) ->
             under_roload r && r.sv_tally.Server_fault.corrupted > 0)
           rp.sv_rows);
    sg_cell_failures =
      List.length (List.filter (fun (r : server_row) -> r.sv_failed) rp.sv_rows);
  }

let render_server (rp : server_report) =
  let g = server_gate rp in
  Table.render (availability_table rp)
  ^ Printf.sprintf
      "\n\
       cells: %d   requests/cell: %d   low-availability-under-roload: %d   \
       corrupted-under-roload: %d   cell-failures: %d\n"
      (List.length rp.sv_rows) rp.sv_report_requests g.sg_low_availability
      g.sg_corrupted_under_roload g.sg_cell_failures

let server_to_json (rp : server_report) =
  let row_json (r : server_row) =
    Json.obj
      [
        ("index", Json.int r.sv_index);
        ("scheme", Json.str r.sv_scheme);
        ("class", Json.str r.sv_cls);
        ("label", Json.str r.sv_label);
        ("worker_slot", Json.int r.sv_worker);
        ("trigger", Json.int r.sv_trigger);
        ("applied", Json.bool r.sv_applied);
        ("attempts", Json.int r.sv_cell_attempts);
        ("failed", Json.bool r.sv_failed);
        ("served", Json.int r.sv_tally.Server_fault.served);
        ("retried", Json.int r.sv_tally.Server_fault.retried);
        ("duplicated", Json.int r.sv_tally.Server_fault.duplicated);
        ("corrupted", Json.int r.sv_tally.Server_fault.corrupted);
        ("lost", Json.int r.sv_tally.Server_fault.lost);
        ("restarts", Json.int r.sv_restarts);
        ("detail", Json.str r.sv_detail);
      ]
  in
  let g = server_gate rp in
  Json.obj
    [
      ( "schemes",
        Json.arr
          (List.map (fun s -> Json.str (Pass.scheme_name s)) rp.sv_report_schemes) );
      ("requests", Json.int rp.sv_report_requests);
      ("low_availability_under_roload", Json.int g.sg_low_availability);
      ("corrupted_under_roload", Json.int g.sg_corrupted_under_roload);
      ("cell_failures", Json.int g.sg_cell_failures);
      ("rows", Json.arr (List.map row_json rp.sv_rows));
    ]

(* per-scheme availability over every non-failed cell — the figure the
   bench-regression gate tracks for the roload schemes *)
let served_ratios (rp : server_report) =
  List.map
    (fun s ->
      let name = Pass.scheme_name s in
      let rs =
        List.filter
          (fun (r : server_row) -> String.equal r.sv_scheme name && not r.sv_failed)
          rp.sv_rows
      in
      (name, Server_fault.availability (server_tally_of rs)))
    rp.sv_report_schemes
