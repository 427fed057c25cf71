(** The chaos campaign: baseline-vs-injected differential runs over a
    seeded plan, with crash containment, incremental checkpointing and
    byte-identical resume. *)

module Pass = Roload_passes.Pass

val roload_schemes : Pass.scheme list
(** Schemes whose detection the gates hold to the ROLoad standard. *)

val default_schemes : Pass.scheme list
(** The campaign matrix: stock, label-CFI baseline, VCall, ICall. *)

val applicable : Pass.scheme -> Fault.kind -> bool
(** Whether a (scheme, kind) cell is meaningful — e.g. the icall
    redirect is skipped under VCall, which never claims to police
    indirect calls. *)

type config = {
  seed : int64;
  count : int;  (** plan length; cells = count x applicable schemes *)
  schemes : Pass.scheme list;
  attempts : int;  (** bounded deterministic retries per cell *)
  jobs : int option;
  checkpoint : string option;  (** incremental persistence file *)
  resume : bool;
      (** skip cells already in the checkpoint; a checkpoint of a
          different campaign raises {!Checkpoint_mismatch} *)
  checkpoint_batch : int;
      (** rows buffered per checkpoint flush (1 = historical
          row-at-a-time appends); the tail is flushed on any exit,
          including an exception escaping mid-campaign, and whole rows
          are the flush unit so resumed files never hold torn lines *)
  sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
      (** test hook: raise from inside a chosen cell *)
  max_cells : int option;  (** test hook: simulate a mid-run kill *)
  elide : bool;
      (** compile every victim with proof-guided ld.ro check elision
          (roload-prove + roload-elide); detection coverage must be
          byte-identical to the unelided campaign *)
}

val default_config : config

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
  rows : row list;  (** sorted by (plan index, scheme position) *)
  schemes : Pass.scheme list;
  oracle_checked : bool;
  oracle_agreed : bool;
  corruption_diffs : ((int * string) * Roload_mem.Phys_mem.page_diff list) list;
      (** per silent-corruption cell, keyed by (index, scheme): pages
          where the injected run's final memory differs from the clean
          baseline's, with each page's first differing byte.  Fresh
          cells only (never persisted to checkpoints), and carried
          outside {!row} so tables/checkpoints stay byte-identical. *)
}

exception Broken_victim of string
(** The uninjected victim did not behave benignly under some scheme —
    the campaign would be meaningless, so it refuses to start. *)

exception Checkpoint_mismatch of { path : string; expected : string; found : string }
(** [--resume] pointed at a checkpoint whose header ([found]) pins a
    different campaign than this one ([expected]).  The campaign refuses
    to start and leaves the file byte-for-byte untouched. *)

val run : config -> report
(** Raises {!Broken_victim} (see above) and {!Checkpoint_mismatch}; the
    latter before any cell or baseline runs. *)

val run_with_pause :
  ?engine:Roload_machine.Machine.engine ->
  ?variant:Core.System.variant ->
  max_instructions:int64 ->
  ?pause_at:int64 ->
  ?inject:
    (machine:Roload_machine.Machine.t -> process:Roload_kernel.Process.t -> unit) ->
  Roload_obj.Exe.t ->
  Roload_kernel.Kernel.run_outcome
  * Roload_machine.Machine.t
  * Roload_kernel.Kernel.t
  * Roload_kernel.Process.t
(** The pause-inject-resume primitive: run to [pause_at] retired
    instructions (cumulative), call [inject] on the live machine, resume
    to [max_instructions].  Without [pause_at]/[inject] this is a plain
    run — and a paused-and-resumed run without injection is
    bit-identical (cycles, metrics, output) to an uninterrupted one. *)

val measure :
  ?engine:Roload_machine.Machine.engine ->
  ?variant:Core.System.variant ->
  ?pause_at:int64 ->
  max_instructions:int64 ->
  Roload_obj.Exe.t ->
  Roload_kernel.Kernel.run_outcome * Roload_obs.Metrics.t
(** [run_with_pause] plus the exact counter snapshot — what the
    empty-plan bit-identity property compares. *)

val classify :
  baseline:Roload_kernel.Kernel.run_outcome ->
  Roload_kernel.Kernel.run_outcome ->
  Fault.verdict * string

val compile_victim : ?elide:bool -> Pass.scheme -> Roload_obj.Exe.t
val baseline_run : Roload_obj.Exe.t -> Roload_kernel.Kernel.run_outcome

val baseline_run_full :
  Roload_obj.Exe.t ->
  Roload_kernel.Kernel.run_outcome * Roload_mem.Phys_mem.image
(** The baseline outcome plus its final memory image — the reference the
    silent-corruption localizer diffs against. *)

val budget_factor : int
(** A cell's watchdog is [budget_factor] times its scheme's uninjected
    instruction count, plus 100k, in both campaigns. *)

val run_one :
  ?baseline_mem:Roload_mem.Phys_mem.image ->
  attempt:int ->
  baseline:Roload_kernel.Kernel.run_outcome ->
  Fault.injection ->
  Pass.scheme ->
  Roload_obj.Exe.t ->
  row * Roload_mem.Phys_mem.page_diff list option
(** One cell, as {!run} settles it: boot, pause at the entry's trigger,
    inject, resume, classify.  With [baseline_mem], a silent-corruption
    verdict also returns the page-level localization diff. *)

val build_ladder :
  triggers:int64 list ->
  Roload_obj.Exe.t ->
  (int64 * Roload_kernel.Snapshot.t) list
(** Boot one parent system and advance it through the sorted distinct
    [triggers] (cumulative retire counts), capturing a copy-on-write
    snapshot at each frontier.  A fork of the snapshot at a cell's
    trigger holds exactly the state {!run_one} pauses at. *)

val verdict_of_row : row -> Fault.verdict option
val detected : row -> bool

val coverage_table : report -> Roload_util.Table.t
(** The §V-style detection-coverage table: one row per injection class,
    one column per scheme. *)

type gate = { silent_under_roload : int; undetected_tamper : int; cell_failures : int }

val tamper_classes : string list
(** The page/TLB-tampering classes ROLoad must detect at 100%. *)

val gate : report -> gate
(** What the CI chaos-smoke job asserts: zero silent corruption and zero
    undetected tampering under ROLoad schemes, zero cell failures. *)

val render : report -> string
val to_json : report -> string

val render_diffs : report -> string
(** The --diff-pages artifact: one line per corrupted page with its
    first differing byte.  Kept out of {!render} so the coverage table
    stays byte-identical to pre-snapshot campaigns. *)

type replay_check = { rc_scheme : string; rc_expected : string; rc_actual : string }

val replay : path:string -> replay_check list
(** Re-run a pinned corpus reproducer ([seed]/[entry]/[expect] lines)
    and report expected-vs-actual verdicts per scheme. *)

(** {2 The live-server campaign}

    Instead of pausing a single-process victim, each cell runs the full
    multi-worker serving system (supervised workers, sharded request
    device, redelivery) and strikes one chosen worker mid-stream — when
    the device has handed out the entry's trigger count of requests.
    Per-request outcomes are judged against the scheme's uninjected
    baseline and folded into the serving-availability table.  Every
    cell is deterministic (handout-count triggers, retire-count quanta,
    pure-function restarts), so the table is byte-identical across
    engines and [-j]. *)

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
  sv_engine : Roload_machine.Machine.engine option;
  sv_max_restarts : int;  (** supervisor restart budget per worker *)
  sv_deadline_cycles : int64;  (** per-request watchdog; 0 = off *)
  sv_checkpoint : string option;
  sv_resume : bool;  (** as [resume], for the server campaign *)
  sv_checkpoint_batch : int;
  sv_sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
  sv_max_cells : int option;
}

val default_server_config : server_config

val server_applicable : Pass.scheme -> Server_fault.kind -> bool
(** Worker-kill is meaningful everywhere; tampers follow {!applicable}. *)

type server_row = {
  sv_index : int;
  sv_scheme : string;
  sv_cls : string;
  sv_label : string;
  sv_worker : int;
  sv_trigger : int;  (** handout count the hook fired at *)
  sv_applied : bool;
  sv_cell_attempts : int;
  sv_failed : bool;  (** crash containment: the cell itself blew up *)
  sv_tally : Server_fault.tally;
  sv_restarts : int;
  sv_detail : string;
}

type server_report = {
  sv_rows : server_row list;  (** sorted by (plan index, scheme position) *)
  sv_report_schemes : Pass.scheme list;
  sv_report_requests : int;
}

val run_server : server_config -> server_report
(** Raises {!Broken_victim} when any scheme's uninjected baseline fails
    to serve every request cleanly with zero restarts, or when baseline
    checksums diverge across schemes.  Raises {!Checkpoint_mismatch}
    before any work when resuming another campaign's checkpoint. *)

val availability_table : server_report -> Roload_util.Table.t
(** The serving-availability table: one row per server injection class,
    one column per scheme — correct-service percentage over the
    ok/retried/duplicated/corrupted/lost tallies, plus restart counts. *)

type server_gate = {
  sg_low_availability : int;
      (** ROLoad-scheme cells below the {!availability_floor} *)
  sg_corrupted_under_roload : int;
  sg_cell_failures : int;
}

val availability_floor : float
(** The per-cell availability floor ROLoad schemes are held to (0.99). *)

val server_gate : server_report -> server_gate
val render_server : server_report -> string
val server_to_json : server_report -> string

val served_ratios : server_report -> (string * float) list
(** Per-scheme availability over every non-failed cell — the
    [served_ratio] figures the bench-regression gate tracks. *)
