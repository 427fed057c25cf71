(** Whole-system snapshots: machine, kernel and process images captured
    at one instant.  One snapshot can seed any number of in-place
    restores and copy-on-write forks; a runner boots a workload once,
    pauses it, captures, and forks variants from the warm image instead
    of re-booting each from reset. *)

type t

val capture : machine:Roload_machine.Machine.t -> kernel:Kernel.t -> process:Process.t -> t
(** Capture a paused system.  Cheap: physical pages are shared
    copy-on-write with the live machine (O(touched pages) from here on,
    not O(memory size)). *)

val restore : t -> machine:Roload_machine.Machine.t -> kernel:Kernel.t -> process:Process.t -> unit
(** Put the {e same} objects back into the captured state, compiled
    traces included; resumed execution is byte-identical to the original
    run — architectural state, cycles, every statistic, and output. *)

val fork : t -> Roload_machine.Machine.t * Kernel.t * Process.t
(** A fresh, fully independent system in the captured state, sharing
    physical pages copy-on-write with the image.  Mutating a fork never
    perturbs the image, the parent, or sibling forks; the returned
    process is already scheduled on the returned kernel/machine. *)

val mem_image : t -> Roload_mem.Phys_mem.image
(** The captured physical memory. *)

val diff : t -> t -> Roload_mem.Phys_mem.page_diff list
(** Page-by-page memory comparison of two snapshots, reporting each
    differing page with its first differing byte — the
    silent-corruption localizer used in chaos verdicts. *)
