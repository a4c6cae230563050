module Table = Ufp_prelude.Table

(* Sharded cells (ISSUE 8): every domain owns a private shard — plain
   arrays indexed by metric slot — registered once in the global shard
   list via a lock-free CAS push the first time the domain touches any
   metric (Domain.DLS init). A hot-path update is therefore a DLS
   lookup plus one unsynchronized array store: no RMW, no shared cache
   line, no allocation. Totals exist only at read time, when the
   coordinating domain folds the shard list.

   Why aggregation-at-snapshot preserves the PR 3/4/5 laws:

   - integer cells (counters, histogram buckets/counts) sum exactly,
     so totals are independent of how updates were distributed across
     domains — the seq/par counter-agreement law holds unchanged;
   - the one float cell, a histogram's sum, adds exactly while its
     samples and their sum are integers below 2^53 (every histogram
     the engines feed observes counts); other samples can round
     differently depending on which domain observed which;
   - the shard-list order is fixed for the life of the process (CAS
     push, never removed), so two back-to-back snapshots fold in the
     same order — the deterministic-snapshot law compares structurally
     equal values.

   Reads race benignly with writers: a snapshot taken inside a
   parallel region observes, per shard, some prefix of that domain's
   program-order updates (each is a single word-sized store, which
   cannot tear), so any counter total lies between the updates that
   had finished and the ones that had started — the envelope law in
   test_obs.ml. Totals read after a pool joins (or after
   [Pool.run] returns, which synchronizes through the job's Atomics)
   are exact.

   Shared-state audit (lint R7): lib/obs stays on ufp-lint's guarded
   audited-module list. The shard list head is an [Atomic]; the DLS
   key is per-domain by construction; the catalogue Hashtbl and the
   slot-name arrays are written at registration time only (module
   init, before any pool exists) and only read afterwards. *)

let n_buckets = 64

type kind = KCounter | KHistogram

let kind_name = function KCounter -> "counter" | KHistogram -> "histogram"

(* The catalogue: name -> (kind, slot). Consulted at registration and
   snapshot time only; the hot path carries the integer slot. *)
let catalogue : (string, kind * int) Hashtbl.t = Hashtbl.create 64

let counter_names = ref ([||] : string array)
let hist_names = ref ([||] : string array)

type counter = int
type histogram = int

(* One histogram cell inside a shard. [hn]/[hsum] cover the finite
   samples; NaNs are quarantined in [hnan] so they can no longer skew
   the mean (they used to land in bucket 0 and bump [n] while adding
   0.0 to the sum). *)
type hcell = {
  hb : int array;  (* length n_buckets, base-2 log scale *)
  mutable hn : int;
  mutable hsum : float;
  mutable hnan : int;
}

type shard = {
  mutable sc : int array;  (* counters, by slot *)
  mutable sh : hcell array;  (* histograms, by slot *)
}

let new_hcell () = { hb = Array.make n_buckets 0; hn = 0; hsum = 0.0; hnan = 0 }

let shards : shard list Atomic.t = Atomic.make []

let register name kind =
  match Hashtbl.find_opt catalogue name with
  | Some (k, slot) ->
    if k = kind then slot
    else
      invalid_arg
        (Printf.sprintf "Ufp_obs.Metrics: %S is already a %s" name
           (kind_name k))
  | None ->
    let slot =
      match kind with
      | KCounter ->
        let s = Array.length !counter_names in
        counter_names := Array.append !counter_names [| name |];
        s
      | KHistogram ->
        let s = Array.length !hist_names in
        hist_names := Array.append !hist_names [| name |];
        s
    in
    Hashtbl.add catalogue name (kind, slot);
    slot

let counter name = register name KCounter
let histogram name = register name KHistogram

let new_shard () =
  {
    sc = Array.make (Array.length !counter_names) 0;
    sh = Array.init (Array.length !hist_names) (fun _ -> new_hcell ());
  }

let rec push_shard s =
  let old = Atomic.get shards in
  if not (Atomic.compare_and_set shards old (s :: old)) then push_shard s

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = new_shard () in
      push_shard s;
      s)

let ensure_shard () = ignore (Domain.DLS.get shard_key : shard)

(* Slot out of range: the shard predates a registration (possible only
   when a metric is declared after a worker domain already wrote —
   registration is normally all done at module init). Grow to the
   current catalogue so it happens at most once per late wave. *)
let grow_sc s slot =
  let a = Array.make (Int.max (slot + 1) (Array.length !counter_names)) 0 in
  Array.blit s.sc 0 a 0 (Array.length s.sc);
  s.sc <- a

let grow_sh s slot =
  let n = Int.max (slot + 1) (Array.length !hist_names) in
  let a = Array.init n (fun _ -> new_hcell ()) in
  Array.blit s.sh 0 a 0 (Array.length s.sh);
  s.sh <- a

let incr c =
  let s = Domain.DLS.get shard_key in
  let a = s.sc in
  if c < Array.length a then a.(c) <- a.(c) + 1
  else begin
    grow_sc s c;
    s.sc.(c) <- s.sc.(c) + 1
  end

let add c n =
  let s = Domain.DLS.get shard_key in
  let a = s.sc in
  if c < Array.length a then a.(c) <- a.(c) + n
  else begin
    grow_sc s c;
    s.sc.(c) <- s.sc.(c) + n
  end

let value c =
  List.fold_left
    (fun acc s -> if c < Array.length s.sc then acc + s.sc.(c) else acc)
    0 (Atomic.get shards)

(* Bucket of a sample: 0 for v < 1 (and for negatives, which compare
   false against >= 1.0), otherwise the base-2 exponent of v, capped
   at the last bucket. Float.frexp is a pure bit operation — no log,
   no branch chain. NaN never reaches this (see [observe]). *)
let bucket_of v =
  if not (v >= 1.0) then 0
  else begin
    let _, e = Float.frexp v in
    if e >= n_buckets then n_buckets - 1 else e
  end

let hcell_of s h =
  let a = s.sh in
  if h < Array.length a then a.(h)
  else begin
    grow_sh s h;
    s.sh.(h)
  end

let observe h v =
  let cell = hcell_of (Domain.DLS.get shard_key) h in
  if Float.is_nan v then cell.hnan <- cell.hnan + 1
  else begin
    let b = bucket_of v in
    cell.hb.(b) <- cell.hb.(b) + 1;
    cell.hn <- cell.hn + 1;
    cell.hsum <- cell.hsum +. v
  end

(* --- snapshots --- *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_nan : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  (* The snapshotter's own shard joins the registry before the fold,
     so its updates are always part of the totals it reports. *)
  ensure_shard ();
  let ss = Atomic.get shards in
  let counters =
    Array.to_list
      (Array.mapi
         (fun slot name ->
           ( name,
             List.fold_left
               (fun acc s ->
                 if slot < Array.length s.sc then acc + s.sc.(slot) else acc)
               0 ss ))
         !counter_names)
  in
  let histograms =
    Array.to_list
      (Array.mapi
         (fun slot name ->
           let bs = Array.make n_buckets 0 in
           let hn = ref 0 and hsum = ref 0.0 and hnan = ref 0 in
           List.iter
             (fun s ->
               if slot < Array.length s.sh then begin
                 let c = s.sh.(slot) in
                 for i = 0 to n_buckets - 1 do
                   bs.(i) <- bs.(i) + c.hb.(i)
                 done;
                 hn := !hn + c.hn;
                 hsum := !hsum +. c.hsum;
                 hnan := !hnan + c.hnan
               end)
             ss;
           let buckets = ref [] in
           for i = n_buckets - 1 downto 0 do
             if bs.(i) <> 0 then buckets := (i, bs.(i)) :: !buckets
           done;
           ( name,
             {
               h_count = !hn;
               h_sum = !hsum;
               h_nan = !hnan;
               h_buckets = !buckets;
             } ))
         !hist_names)
  in
  {
    counters = List.sort by_name counters;
    histograms = List.sort by_name histograms;
  }

(* Pointwise subtraction keyed by name; names only present in [before]
   are dropped (a metric cannot unregister, so this happens only when
   diffing snapshots from different process states). *)
let diff before after =
  let base assoc name = Option.value ~default:0 (List.assoc_opt name assoc) in
  let sub_hist name (h : hist_snapshot) =
    match List.assoc_opt name before.histograms with
    | None -> h
    | Some b ->
      let bucket i =
        Option.value ~default:0 (List.assoc_opt i b.h_buckets)
      in
      {
        h_count = h.h_count - b.h_count;
        h_sum = h.h_sum -. b.h_sum;
        h_nan = h.h_nan - b.h_nan;
        h_buckets =
          List.filter_map
            (fun (i, c) ->
              let d = c - bucket i in
              if d = 0 then None else Some (i, d))
            h.h_buckets;
      }
  in
  {
    counters =
      List.map
        (fun (name, v) -> (name, v - base before.counters name))
        after.counters;
    histograms =
      List.map (fun (name, h) -> (name, sub_hist name h)) after.histograms;
  }

(* Zero every shard. A quiescent-moment operation: racing writers may
   redeposit into already-zeroed slots. *)
let reset () =
  List.iter
    (fun s ->
      Array.fill s.sc 0 (Array.length s.sc) 0;
      Array.iter
        (fun c ->
          Array.fill c.hb 0 n_buckets 0;
          c.hn <- 0;
          c.hsum <- 0.0;
          c.hnan <- 0)
        s.sh)
    (Atomic.get shards)

(* --- rendering --- *)

let bucket_label i =
  if i = 0 then "[0,1)"
  else
    Printf.sprintf "[%g,%g)"
      (Float.ldexp 1.0 (i - 1))
      (Float.ldexp 1.0 i)

let to_table ?(title = "metrics") snap =
  let t = Table.create ~title ~columns:[ "metric"; "type"; "value" ] in
  List.iter
    (fun (name, v) -> Table.add_row t [ name; "counter"; Table.cell_i v ])
    snap.counters;
  List.iter
    (fun (name, h) ->
      Table.add_row t
        [
          name; "histogram";
          (if h.h_nan = 0 then Printf.sprintf "n=%d sum=%.6g" h.h_count h.h_sum
           else
             Printf.sprintf "n=%d sum=%.6g nan=%d" h.h_count h.h_sum h.h_nan);
        ];
      List.iter
        (fun (i, c) ->
          Table.add_row t
            [ Printf.sprintf "  %s %s" name (bucket_label i); ""; Table.cell_i c ])
        h.h_buckets)
    snap.histograms;
  t

(* JSON numbers may not be inf/nan: a non-finite histogram sum is
   written as a string sentinel. *)
let json_float v =
  if Float.is_nan v then "\"nan\""
  else if Float.equal v infinity then "\"inf\""
  else if Float.equal v neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" v

let to_json snap =
  let obj fields =
    "{" ^ String.concat ", " fields ^ "}"
  in
  let field name v = Printf.sprintf "\"%s\": %s" (Trace.json_escape name) v in
  let counters =
    obj (List.map (fun (n, v) -> field n (string_of_int v)) snap.counters)
  in
  let hist (h : hist_snapshot) =
    obj
      [
        field "count" (string_of_int h.h_count);
        field "sum" (json_float h.h_sum);
        field "nan" (string_of_int h.h_nan);
        field "buckets"
          (obj
             (List.map
                (fun (i, c) -> field (bucket_label i) (string_of_int c))
                h.h_buckets));
      ]
  in
  let histograms =
    obj (List.map (fun (n, h) -> field n (hist h)) snap.histograms)
  in
  obj
    [
      field "counters" counters;
      field "histograms" histograms;
    ]
