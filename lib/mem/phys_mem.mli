(** Paged little-endian physical memory with copy-on-write snapshots.
    Permission enforcement lives in the MMU, above this layer.

    Pages are allocated lazily: an unwritten page is one shared,
    immutable zero page, and the first store to any shared page copies
    it.  Host memory therefore grows with the pages a run dirties, not
    with the simulated DRAM size. *)

exception Out_of_range of int

val page_shift : int
val page_bytes : int

type t

type image
(** A frozen memory image.  Pages inside an image are never mutated, so
    an image can be shared read-only across domains and forked from
    concurrently. *)

val create : size:int -> t
(** A zero-filled memory of [size] bytes (rounded up to whole pages).
    Every page starts as the shared zero page, so [create] is
    O(page count) pointer writes and allocates no page data. *)

val size : t -> int

val zero_frame : t -> int -> unit
(** [zero_frame t ppn] makes physical page [ppn] all zeros in O(1) by
    re-pointing it at the shared zero page.  Raises {!Out_of_range} for
    a page outside the memory. *)

val copy_frame : t -> src:int -> dst:int -> unit
(** [copy_frame t ~src ~dst] makes page [dst] a copy of page [src] in
    O(1): both frames share [src]'s page and neither owns it, so the
    first later store to either copies the page first.  Raises
    {!Out_of_range} for a page outside the memory. *)

val snapshot : t -> image
(** Freeze the current contents in O(page count).  The live memory keeps
    running; its next store to each frozen page copies that page
    (copy-on-write), so the image stays exact. *)

val restore : t -> image -> unit
(** Reset [t]'s contents to [image] in O(page count), preserving the
    identity of [t] itself.  The image remains valid and reusable. *)

val fork : image -> t
(** A fresh memory whose contents equal [image], sharing every page with
    it until written — O(page count), no bulk allocation. *)

type page_diff = {
  page : int;  (** physical page number *)
  addr : int;  (** physical address of the first differing byte *)
  a_byte : int;
  b_byte : int;
}

val diff_images : image -> image -> page_diff list
(** Page-by-page comparison, ascending by page number.  Pages still
    physically shared between the two images compare equal by pointer,
    so diffing twin forks of one snapshot is O(page count). *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val read_string : t -> addr:int -> len:int -> string
val write_string : t -> addr:int -> string -> unit
val fill : t -> addr:int -> len:int -> char -> unit

val flip_bit : t -> addr:int -> bit:int -> unit
(** Fault-injection backdoor (roload-chaos): invert bit [bit] (0..63) of
    the 64-bit word at [addr], bypassing the MMU — the DRAM-disturbance
    model for flips inside protected read-only frames. *)
