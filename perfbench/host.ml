(* Host-side measurement primitives: the clock, order statistics, the
   calibration loop, and the process's own memory and GC counters. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of [q] in [0, 1] (the "exclusive" method
   would need more samples than some workloads produce per run). *)
let quantile q samples =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

let median samples = quantile 0.5 samples

(* The highest of p99/p95/p90/p50 with at least ten samples beyond it —
   a tail that a single slow sample cannot set. *)
let tail_quantile n =
  List.find_opt (fun q -> float_of_int n *. (1. -. q) >= 10.) [ 0.99; 0.95; 0.90 ]
  |> Option.value ~default:0.5

(* The calibration loop: a fixed integer recurrence with no allocation,
   no program code and no dependence on GC settings, so its host time
   moves only with the host.  Runs between passes; its median is
   [host.calib_ms], the yardstick for reading a comparison between
   hosts or between noisy runs. *)
let calib_iterations = 20_000_000

let calib_loop () =
  let x = ref 0x2545F491 in
  for i = 1 to calib_iterations do
    x := (!x * 1103515245) + 12345 + i;
    x := !x lxor (!x lsr 17)
  done;
  !x

let calib_ms () =
  let r, dt = time calib_loop in
  (* keep the loop observable so it is never optimized away *)
  if r = 0 then prerr_string "";
  dt *. 1e3

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections;
  }

let top_heap_mib () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1024. /. 1024.
