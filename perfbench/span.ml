(* The traced pass's span recorder.  Each span is one benchmark call into
   a layer's public function: a name, a start, an end, the span that was
   open when it began, and the counters read at its two boundaries
   (simulated instructions retired inside it, GC words allocated inside
   it).  Spans stay in memory; [write] dumps them when the pass ends.
   With recording off, [with_] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** 0 = a root span *)
  name : string;
  start : float;
  stop : float;
  insts : int;  (** simulated instructions retired inside the span *)
  minor_words : float;  (** GC minor words allocated inside the span *)
  promoted_words : float;  (** of which promoted to the major heap *)
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1

let reset ~enabled =
  on := enabled;
  spans := [];
  stack := [];
  next_id := 1

(* [insts] reads the span's simulated-instruction count off its result
   (a run outcome, a chunk's retire delta); most layer calls retire none. *)
let with_ ?(insts = fun _ -> 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let g0 = Host.gc () in
    let start = Host.now () in
    let finish r =
      let stop = Host.now () in
      let g = Host.gc_diff g0 (Host.gc ()) in
      stack := List.tl !stack;
      spans :=
        {
          id;
          parent;
          name;
          start;
          stop;
          insts = r;
          minor_words = g.Host.minor_words;
          promoted_words = g.Host.promoted_words;
        }
        :: !spans
    in
    match f () with
    | v ->
      finish (insts v);
      v
    | exception e ->
      finish 0;
      raise e
  end

(* Record a span whose boundaries were stamped elsewhere — the cells a
   campaign runs inside one [Campaign.run] call, timed through its
   per-cell hook — as a child of the span open now. *)
let add name ~start ~stop =
  if !on then begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    spans :=
      { id; parent; name; start; stop; insts = 0; minor_words = 0.; promoted_words = 0. }
      :: !spans
  end

let recorded () = List.rev !spans
let duration s = s.stop -. s.start

(* All durations (seconds) of spans named [name]. *)
let durations name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (duration s) else None)
       (recorded ()))

let total name = Array.fold_left ( +. ) 0. (durations name)

(* Instructions, minor words and promoted words summed over spans named
   [name]. *)
let sums name =
  List.fold_left
    (fun (i, m, p) s ->
      if s.name = name then (i + s.insts, m +. s.minor_words, p +. s.promoted_words)
      else (i, m, p))
    (0, 0., 0.) (recorded ())

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed by name, in first-seen order. *)
let self_times () =
  let all = recorded () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      match Hashtbl.find_opt acc s.name with
      | Some (t, n) -> Hashtbl.replace acc s.name (t +. self, n + 1)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (self, 1))
    all;
  List.rev_map (fun name -> let t, n = Hashtbl.find acc name in (name, t, n)) !order

(* Chrome-trace JSON (complete events on one host lane), loadable in
   chrome://tracing or Perfetto next to the simulator's own traces. *)
let write path =
  let module J = Roload_util.Json in
  let all = recorded () in
  let t0 = match all with s :: _ -> s.start | [] -> 0. in
  let event s =
    J.obj
      [
        ("name", J.str s.name);
        ("ph", J.str "X");
        ("pid", "1");
        ("tid", "1");
        ("ts", Printf.sprintf "%.3f" ((s.start -. t0) *. 1e6));
        ("dur", Printf.sprintf "%.3f" (duration s *. 1e6));
        ( "args",
          J.obj
            [
              ("id", J.int s.id);
              ("parent", J.int s.parent);
              ("insts", J.int s.insts);
              ("minor_words", Printf.sprintf "%.0f" s.minor_words);
              ("promoted_words", Printf.sprintf "%.0f" s.promoted_words);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.obj [ ("traceEvents", J.arr (List.map event all)) ]);
  output_char oc '\n';
  close_out oc
