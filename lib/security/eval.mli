(** The attack runner: pause the victim at [attack_point], corrupt memory
    through the attacker's writable-memory primitive, resume, classify.
    Scheme-agnostic — the ICall transformation is detected from GFPT
    symbols and the attacker adapts to the strongest available strategy. *)

type run_config = {
  machine_config : Roload_machine.Config.t;
  kernel_config : Roload_kernel.Kernel.config;
}

val default_run_config : run_config

val gfpt_symbol_for : Roload_obj.Exe.t -> string -> string option
val fptr_value_for : Roload_obj.Exe.t -> string -> int
(** The value an attacker writes into a function-pointer slot to aim it
    at a function: its GFPT slot address under ICall, else its code
    address. *)

val run : ?config:run_config -> exe:Roload_obj.Exe.t -> Attack.kind -> Attack.outcome
(** Raises [Failure] if the victim never reaches the attack point or the
    corruption primitive is unexpectedly blocked. *)

val run_corpus :
  ?config:run_config ->
  exe:Roload_obj.Exe.t ->
  unit ->
  (Attack.kind * Attack.outcome) list
(** All attack kinds against one victim.  The victim is booted once,
    paused at the attack point and snapshotted; each attack runs in a
    copy-on-write fork of the warm image.  Every verdict equals {!run}'s
    for the same kind. *)
