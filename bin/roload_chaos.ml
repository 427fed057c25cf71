(* roload_chaos — the seeded fault-injection campaign.

   Usage: roload_chaos [--seed N] [--count N] [--scheme S]... [-j N]
                       [--json PATH] [--checkpoint PATH] [--resume]
                       [--attempts N] [--fail-cell IDX] [--max-cells N]
                       [--checkpoint-batch N]
                       [--server [--requests N] [--workers N] [--shards N]
                                 [--max-restarts N] [--deadline CYCLES]]
          roload_chaos --replay PATH

   Runs baseline-vs-injected pairs for every plan entry under every
   scheme, prints the detection-coverage table, and exits:

     0  clean — no silent corruption or undetected tampering under the
        ROLoad schemes, no cell failures
     1  findings — silent corruption or undetected tampering under a
        ROLoad scheme (or a replayed reproducer's verdict changed)
     2  usage error, including --elide or --diff-pages given with
        --server, which has no use for them, and any campaign flag given
        with --replay; nothing is run or written
     3  cell failures — some cells kept crashing and were recorded as
        structured failure rows
     4  --resume refused — the checkpoint belongs to a different
        campaign; it is left byte-for-byte untouched

   [--server] runs the live-server campaign instead: every cell boots
   the multi-worker request server under supervision, strikes one
   worker mid-stream at a request-count trigger, and classifies every
   request as served / retried / duplicated / corrupted / lost.  Exits:

     0  clean — every roload cell holds the availability floor with
        zero corrupted payloads, no cell failures
     1  findings — a roload cell dropped below the availability floor
        or committed a corrupted payload
     2  usage error, as above
     3  cell failures
     4  --resume refused, as above

   [--replay] re-runs one pinned corpus reproducer and exits 0, or 1 if
   a verdict changed; it takes no other flag.

   [--fail-cell] artificially crashes the cells of one plan index (the
   crash-containment self-test); [--max-cells] stops after N cells to
   simulate a mid-run kill, for exercising [--resume]. *)

open Cmdliner
module Campaign = Roload_inject.Campaign
module Pass = Roload_passes.Pass

(* Both campaign paths refuse to resume another campaign's checkpoint. *)
let refusing_mismatch f =
  try f ()
  with Campaign.Checkpoint_mismatch { path; expected; found } ->
    Printf.eprintf
      "roload_chaos: checkpoint %s belongs to a different campaign\n\
      \  found:    %s\n\
      \  expected: %s\n\
       refusing to resume; the checkpoint is unchanged\n"
      path found expected;
    exit 4

let replay path =
  let checks = Campaign.replay ~path in
  List.iter
    (fun (c : Campaign.replay_check) ->
      Printf.printf "%-8s expected %-18s got %-18s %s\n" c.rc_scheme c.rc_expected
        c.rc_actual
        (if c.rc_expected = c.rc_actual then "ok" else "MISMATCH"))
    checks;
  if List.exists (fun (c : Campaign.replay_check) -> c.rc_expected <> c.rc_actual) checks
  then exit 1

(* The campaign, applied to every flag but --replay; the trailing unit
   defers it until [main] has checked the flags. *)
let run seed count schemes jobs json checkpoint resume attempts fail_cell max_cells
    elide diff_pages server requests workers shards max_restarts deadline
    checkpoint_batch () =
  if server then
    List.iter
      (fun (set, flag) ->
        if set then begin
          Printf.eprintf "roload_chaos: %s does not apply to --server\n" flag;
          exit 2
        end)
      [ (elide, "--elide"); (diff_pages, "--diff-pages") ];
  let schemes =
    match schemes with
    | [] -> Campaign.default_schemes
    | names ->
      List.map
        (fun n ->
          match Pass.scheme_of_string n with
          | Some s -> s
          | None ->
            Printf.eprintf "unknown scheme %s\n" n;
            exit 2)
        names
  in
  let sabotage =
    Option.map
      (fun idx ~index ~scheme:_ ~attempt:_ ->
        if index = idx then failwith "sabotaged cell (--fail-cell)")
      fail_cell
  in
  (* each mode yields its rendered report, JSON, and gate verdicts
     (cell failures, findings) *)
  let text, report_json, failures, findings =
    refusing_mismatch @@ fun () ->
    if server then
      let rp =
        Campaign.run_server
          {
            Campaign.default_server_config with
            Campaign.sv_seed = seed;
            sv_count = count;
            sv_requests = requests;
            sv_workers = workers;
            sv_shards = shards;
            sv_schemes = schemes;
            sv_attempts = attempts;
            sv_jobs = jobs;
            sv_max_restarts = max_restarts;
            sv_deadline_cycles = deadline;
            sv_checkpoint = checkpoint;
            sv_resume = resume;
            sv_checkpoint_batch = checkpoint_batch;
            sv_sabotage = sabotage;
            sv_max_cells = max_cells;
          }
      in
      let g = Campaign.server_gate rp in
      ( Campaign.render_server rp,
        lazy (Campaign.server_to_json rp),
        g.Campaign.sg_cell_failures > 0,
        g.Campaign.sg_low_availability > 0 || g.Campaign.sg_corrupted_under_roload > 0 )
    else
      let rp =
        Campaign.run
          {
            Campaign.seed;
            count;
            schemes;
            jobs;
            attempts;
            checkpoint;
            resume;
            checkpoint_batch;
            sabotage;
            max_cells;
            elide;
          }
      in
      let g = Campaign.gate rp in
      ( (Campaign.render rp ^ if diff_pages then Campaign.render_diffs rp else ""),
        lazy (Campaign.to_json rp),
        g.Campaign.cell_failures > 0,
        g.Campaign.silent_under_roload > 0 || g.Campaign.undetected_tamper > 0 )
  in
  print_string text;
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Lazy.force report_json);
    close_out oc;
    Printf.printf "report written to %s\n" path);
  if failures then exit 3 else if findings then exit 1

(* [used] lists the campaign flags given on the command line: --replay
   would ignore every one of them, so any is a usage error. *)
let main (campaign, used) path =
  match path with
  | None -> campaign ()
  | Some _ when used <> [] ->
    Printf.eprintf "roload_chaos: --replay takes no campaign flags (got %s)\n"
      (String.concat " " used);
    exit 2
  | Some path -> replay path

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Campaign plan seed (deterministic).")

let count_arg =
  Arg.(value
       & opt int Roload_inject.Campaign.default_config.Roload_inject.Campaign.count
       & info [ "count" ] ~doc:"Plan length (injections per scheme before filtering).")

let scheme_arg =
  Arg.(value
       & opt_all string []
       & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Scheme to include (repeatable): none, cfi, vtint, vcall, icall, \
                 retcall. Default: none, cfi, vcall, icall.")

let jobs_arg =
  Arg.(value
       & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:"Cells run in parallel (default: \\$ROLOAD_JOBS, else the recommended \
                 domain count). Results are identical at any job count.")

let json_arg =
  Arg.(value
       & opt (some string) None
       & info [ "json" ] ~docv:"PATH" ~doc:"Write the full row-level report as JSON.")

let checkpoint_arg =
  Arg.(value
       & opt (some string) None
       & info [ "checkpoint" ] ~docv:"PATH"
           ~doc:"Append each cell's row to PATH the moment it settles (incremental \
                 persistence).")

let resume_arg =
  Arg.(value
       & flag
       & info [ "resume" ]
           ~doc:"Skip cells already recorded in the checkpoint; the final report is \
                 byte-identical to an uninterrupted run.")

let attempts_arg =
  Arg.(value
       & opt int Roload_inject.Campaign.default_config.Roload_inject.Campaign.attempts
       & info [ "attempts" ] ~doc:"Deterministic retries per crashing cell.")

let fail_cell_arg =
  Arg.(value
       & opt (some int) None
       & info [ "fail-cell" ] ~docv:"IDX"
           ~doc:"Artificially crash every cell of plan index IDX (containment \
                 self-test).")

let max_cells_arg =
  Arg.(value
       & opt (some int) None
       & info [ "max-cells" ] ~docv:"N"
           ~doc:"Stop after N cells (simulates a mid-run kill; use with --checkpoint \
                 then --resume).")

let replay_arg =
  Arg.(value
       & opt (some string) None
       & info [ "replay" ] ~docv:"PATH"
           ~doc:"Re-run a pinned corpus reproducer and compare verdicts instead of \
                 running a campaign. Takes no other flag (exit 2).")

let elide_arg =
  Arg.(value
       & flag
       & info [ "elide" ]
           ~doc:"Compile every victim with proof-guided ld.ro check elision \
                 (roload-prove + roload-elide); the detection-coverage table must be \
                 byte-identical to the unelided campaign.")

let diff_pages_arg =
  Arg.(value
       & flag
       & info [ "diff-pages" ]
           ~doc:"After the coverage table, print the silent-corruption localizer: one \
                 line per page where an injected run's final memory diverged from the \
                 clean baseline, with the first differing byte.")

let server_arg =
  Arg.(value
       & flag
       & info [ "server" ]
           ~doc:"Run the live-server chaos campaign: supervised multi-worker request \
                 serving with mid-stream tamper/kill faults and a per-request \
                 serving-availability table.")

let requests_arg =
  Arg.(value
       & opt int Roload_inject.Campaign.default_server_config.Roload_inject.Campaign.sv_requests
       & info [ "requests" ] ~doc:"Requests in the server stream per cell.")

let workers_arg =
  Arg.(value
       & opt int Roload_inject.Campaign.default_server_config.Roload_inject.Campaign.sv_workers
       & info [ "workers" ] ~doc:"Forked worker tasks in the server victim.")

let shards_arg =
  Arg.(value
       & opt int Roload_inject.Campaign.default_server_config.Roload_inject.Campaign.sv_shards
       & info [ "shards" ]
           ~doc:"Request-device shards (request id mod N; workers steal from dry \
                 shards deterministically).")

let max_restarts_arg =
  Arg.(value
       & opt int
           Roload_inject.Campaign.default_server_config.Roload_inject.Campaign.sv_max_restarts
       & info [ "max-restarts" ] ~doc:"Per-worker reincarnation budget.")

let deadline_arg =
  Arg.(value
       & opt int64
           Roload_inject.Campaign.default_server_config.Roload_inject.Campaign
           .sv_deadline_cycles
       & info [ "deadline" ] ~docv:"CYCLES"
           ~doc:"Per-request deadline in simulated cycles (0 disables the watchdog).")

let checkpoint_batch_arg =
  Arg.(value
       & opt int 1
       & info [ "checkpoint-batch" ] ~docv:"N"
           ~doc:"Buffer N settled rows per checkpoint write (flushed on exit and on \
                 crash; resume stays byte-identical).")

let cmd =
  Cmd.v
    (Cmd.info "roload_chaos"
       ~doc:"Seeded fault-injection campaign with crash containment and resume")
    Term.(const main
          $ with_used_args
              (const run $ seed_arg $ count_arg $ scheme_arg $ jobs_arg $ json_arg
             $ checkpoint_arg $ resume_arg $ attempts_arg $ fail_cell_arg
             $ max_cells_arg $ elide_arg $ diff_pages_arg $ server_arg $ requests_arg
             $ workers_arg $ shards_arg $ max_restarts_arg $ deadline_arg
             $ checkpoint_batch_arg)
          $ replay_arg)

let () = exit (Cmd.eval cmd)
