type arg = Int of int | Float of float | Str of string

type event = {
  ev_name : string;
  ev_ph : char;  (* 'B' begin, 'E' end, 'i' instant *)
  ev_ts : int64;  (* CLOCK_MONOTONIC nanoseconds *)
  ev_tid : int;  (* recording domain id; one Chrome track per domain *)
  ev_args : (string * arg) list;
}

(* Ring buffer: [buf.(start + k mod cap)] for k < len are the retained
   events, oldest first. Overwrites the oldest on overflow. *)
type ring = {
  buf : event option array;
  mutable r_start : int;
  mutable r_len : int;
  mutable r_dropped : int;
}

(* One mutable flag, read first by every recording entry point: the
   whole cost of a disabled tracer. *)
let on = ref false

(* Appends are serialised by [lock]: the parallel payment engine
   (lib/par) records pd.*/mech.* spans from several domains at once.
   Timestamps are taken inside the critical section, so ring order is
   timestamp order even across domains — bin/trace_check.ml relies on
   global monotonicity. Events carry the recording domain's id as
   their Chrome [tid], so concurrent spans land on separate tracks
   and nest per track. A span's end folds the span into
   [Profile]'s per-phase totals inside the same critical section. *)
let lock = ((Mutex.create) [@lint.allow "R6" "the tracer's append lock; the \
   only lock outside lib/par, guarding the shared ring buffer"]) ()

(* Shared-state audit (lint R7): these refs are why lib/obs sits on
   the lint's guarded audited-module list — every cross-domain access
   goes through [lock] above, argued in docs/PARALLELISM.md. *)
let ring : ring option ref = ref None

(* Whether span begins and ends also read the GC word counters. Set
   under [lock] by [start], read inside the critical section. *)
let sample_gc = ref false

let is_on () = !on

let now_ns () = Monotonic_clock.now ()

let start ?(capacity = 65536) ?(gc = false) () =
  if capacity < 1 then invalid_arg "Ufp_obs.Trace.start: capacity < 1";
  Mutex.lock lock;
  ring :=
    Some { buf = Array.make capacity None; r_start = 0; r_len = 0; r_dropped = 0 };
  sample_gc := gc;
  Profile.reset ~gc;
  on := true;
  Mutex.unlock lock

let stop () = on := false

let clear () =
  Mutex.lock lock;
  (match !ring with
  | None -> ()
  | Some r ->
    Array.fill r.buf 0 (Array.length r.buf) None;
    r.r_start <- 0;
    r.r_len <- 0;
    r.r_dropped <- 0);
  Profile.reset ~gc:!sample_gc;
  Mutex.unlock lock

(* Appends one event stamped now and returns the stamp. The caller
   holds [lock]. *)
let append ~name ~ph ~args =
  let ts = now_ns () in
  (match !ring with
  | None -> ()
  | Some r ->
    let ev =
      {
        ev_name = name;
        ev_ph = ph;
        ev_ts = ts;
        ev_tid = (Domain.self () :> int);
        ev_args = args;
      }
    in
    let cap = Array.length r.buf in
    if r.r_len = cap then begin
      (* Full: overwrite the oldest. *)
      r.buf.(r.r_start) <- Some ev;
      r.r_start <- (r.r_start + 1) mod cap;
      r.r_dropped <- r.r_dropped + 1
    end
    else begin
      r.buf.((r.r_start + r.r_len) mod cap) <- Some ev;
      r.r_len <- r.r_len + 1
    end);
  ts

let instant ?(args = []) name =
  if !on then begin
    Mutex.lock lock;
    ignore (append ~name ~ph:'i' ~args : int64);
    Mutex.unlock lock
  end

(* --- span folding ---

   A reading of the calling domain's clocks: nanoseconds since [base_ns]
   (so the float stays an exact integer) and, under ~gc:true, its GC
   word counters. [Gc.minor_words ()] reads the calling domain's live
   allocation pointer, so span deltas see allocations that never
   triggered a collection. [Gc.counters ()] reads the same domain's
   promoted and major words, the latter including direct major-heap
   allocations as they happen. Both are per domain and cost tens of
   nanoseconds; [Gc.quick_stat ()] would sum every domain's counters,
   billing a span for other domains' allocations, at about a
   microsecond a call. *)
type reading = { ns : float; minor : float; promoted : float; major : float }

let base_ns = now_ns ()

let read ts =
  let ns = Int64.to_float (Int64.sub ts base_ns) in
  if not !sample_gc then { ns; minor = 0.0; promoted = 0.0; major = 0.0 }
  else
    let _, promoted, major = Gc.counters () in
    { ns; minor = Gc.minor_words (); promoted; major }

(* Written out field by field, with no closure or polymorphic call, so
   the floats stay unboxed: a span's end allocates only records. *)
let[@inline] pos d = if d > 0.0 then d else 0.0

let minus a b =
  {
    ns = pos (a.ns -. b.ns);
    minor = pos (a.minor -. b.minor);
    promoted = pos (a.promoted -. b.promoted);
    major = pos (a.major -. b.major);
  }

let plus a b =
  {
    ns = a.ns +. b.ns;
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    major = a.major +. b.major;
  }

(* What the calling domain has billed to its ended spans as self
   amounts. Spans nest per domain and a span's children end before it
   does, so what a span's domain billed between its begin and its end
   is exactly what its children took: its self amounts are its totals
   minus that difference, and no explicit frame stack is needed. *)
let billed_key =
  Domain.DLS.new_key (fun () ->
      ref { ns = 0.0; minor = 0.0; promoted = 0.0; major = 0.0 })

let with_span ?(args = []) name f =
  if not !on then f ()
  else begin
    let billed = Domain.DLS.get billed_key in
    Mutex.lock lock;
    let b = read (append ~name ~ph:'B' ~args) in
    Mutex.unlock lock;
    let billed_at_b = !billed in
    Fun.protect f ~finally:(fun () ->
        Mutex.lock lock;
        let total = minus (read (append ~name ~ph:'E' ~args:[])) b in
        let self = minus total (minus !billed billed_at_b) in
        Profile.add_span
          {
            Profile.p_name = name;
            p_count = 1;
            p_total_ns = total.ns;
            p_self_ns = self.ns;
            p_minor_w = self.minor;
            p_promoted_w = self.promoted;
            p_major_w = self.major;
          };
        Mutex.unlock lock;
        billed := plus !billed self)
  end

let n_events () = match !ring with None -> 0 | Some r -> r.r_len

let n_dropped () = match !ring with None -> 0 | Some r -> r.r_dropped

let iter_events f =
  match !ring with
  | None -> ()
  | Some r ->
    let cap = Array.length r.buf in
    for k = 0 to r.r_len - 1 do
      match r.buf.((r.r_start + k) mod cap) with
      | Some ev -> f ev
      | None -> ()
    done

(* --- Chrome trace_event JSONL export --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> Profile.json_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let event_line ~t0 ev =
  let ts_us = Int64.to_float (Int64.sub ev.ev_ts t0) /. 1e3 in
  let args =
    match ev.ev_args with
    | [] -> ""
    | args ->
      Printf.sprintf ", \"args\": {%s}"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\": %s" (json_escape k) (arg_json v))
              args))
  in
  (* Chrome trace_event: instants need a scope ("s"); thread-scoped
     keeps them attached to their recording domain's track. *)
  let scope = if ev.ev_ph = 'i' then ", \"s\": \"t\"" else "" in
  Printf.sprintf
    "{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, \"tid\": \
     %d%s%s}"
    (json_escape ev.ev_name) ev.ev_ph ts_us ev.ev_tid scope args

let export_jsonl oc =
  let t0 = ref None in
  (* Span nesting is per recording domain: a B on domain 4 cannot be
     closed by an E on domain 5, so orphan detection tracks one depth
     per tid. *)
  let depths : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let depth tid = Option.value ~default:0 (Hashtbl.find_opt depths tid) in
  iter_events (fun ev ->
      let base = match !t0 with Some t -> t | None -> t0 := Some ev.ev_ts; ev.ev_ts in
      (* A wrap-around can leave 'E' events whose 'B' was overwritten;
         skipping them keeps the exported stream balanced per tid. *)
      match ev.ev_ph with
      | 'E' when depth ev.ev_tid = 0 -> ()
      | ph ->
        if ph = 'B' then Hashtbl.replace depths ev.ev_tid (depth ev.ev_tid + 1);
        if ph = 'E' then Hashtbl.replace depths ev.ev_tid (depth ev.ev_tid - 1);
        output_string oc (event_line ~t0:base ev);
        output_char oc '\n')

let save_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_jsonl oc)
