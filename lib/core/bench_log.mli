(** PR-over-PR performance trajectory: per-experiment wall-clock,
    simulated instruction counts and simulated MIPS, serialized as a
    small JSON document ([results/bench.json], schema [roload-bench-v2]:
    every entry carries the execution engine that produced it). *)

type entry = {
  name : string;
  engine : string;  (** execution engine the entry ran on *)
  wall_s : float;
  instructions : int;  (** simulated instructions retired in this entry *)
  sim_mips : float;  (** instructions / wall_s / 1e6 *)
}

val entry : name:string -> engine:string -> wall_s:float -> instructions:int -> entry

val totals : entry list -> float * int * float
(** [(wall_s, instructions, mips)] aggregated over the entries. *)

val to_json :
  ?scale:int ->
  ?jobs:int ->
  ?campaign_cells_per_s:float ->
  ?requests_per_s:float ->
  ?served_ratios:(string * float) list ->
  entry list ->
  string

val write :
  path:string ->
  ?scale:int ->
  ?jobs:int ->
  ?campaign_cells_per_s:float ->
  ?requests_per_s:float ->
  ?served_ratios:(string * float) list ->
  entry list ->
  unit
(** [campaign_cells_per_s] records the chaos campaign's
    throughput (settled cells per wall-clock second) and
    [requests_per_s] the server macro-benchmark's stock-scheme
    throughput — each its own top-level figure, gated separately from
    simulated MIPS.  [served_ratios] records the live-server chaos
    campaign's per-scheme serving availability as flat
    [served_ratio_<scheme>] keys (fractions in [0,1]), gated as an
    absolute floor rather than a percentage of baseline. *)

val read_total_mips : string -> float option
(** Scan a written file for its aggregate [total_mips] figure (used by
    the CI regression gate); key-based, so v1 baselines still read.
    [None] if unreadable or absent. *)

val read_campaign_cells_per_s : string -> float option
(** The [campaign_cells_per_s] figure of a written file, if present. *)

val read_requests_per_s : string -> float option
(** The [requests_per_s] figure of a written file, if present. *)

val read_served_ratio : string -> scheme:string -> float option
(** The [served_ratio_<scheme>] figure of a written file, if present. *)
