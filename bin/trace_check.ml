(* trace-check — validate a Chrome trace_event JSONL file as produced
   by `ufp solve --trace` (Ufp_obs.Trace.export_jsonl).

   Checks, per docs/OBSERVABILITY.md:
     1. every line parses as a standalone JSON object;
     2. every object carries string "name", string "ph" (one of
        B/E/i), and numeric "ts";
     3. B/E events balance like parentheses *per tid* (never more E
        than B seen on a track, zero depth on every track at end of
        file) — parallel runs (`ufp payments --jobs N`) put each
        domain's spans on its own track;
     4. timestamps are non-decreasing globally, across tracks (the
        tracer stamps them under its append lock).

   Exit 0 when clean; exit 1 with a line-numbered diagnostic
   otherwise.  No JSON library: each line goes through the small
   recursive-descent reader in bin/json.ml, which bench-diff shares. *)

open Json

let field obj key =
  match obj with
  | Obj fields -> List.assoc_opt key fields
  | _ -> raise (Bad "event is not a JSON object")

(* Per-track (tid) span depth: events from different domains interleave
   in the file, but B/E nesting is only meaningful within one track. *)
let depths : (int, int) Hashtbl.t = Hashtbl.create 8

let depth_of tid = Option.value ~default:0 (Hashtbl.find_opt depths tid)

let check_event ~last_ts obj =
  let name =
    match field obj "name" with
    | Some (Str s) -> s
    | _ -> raise (Bad "missing or non-string \"name\"")
  in
  let ph =
    match field obj "ph" with
    | Some (Str ("B" | "E" | "i" as p)) -> p
    | Some (Str p) -> raise (Bad (Printf.sprintf "unexpected phase %S" p))
    | _ -> raise (Bad "missing or non-string \"ph\"")
  in
  let ts =
    match field obj "ts" with
    | Some (Num t) -> t
    | _ -> raise (Bad "missing or non-numeric \"ts\"")
  in
  let tid =
    (* Single-domain exports predating the tid tag still validate. *)
    match field obj "tid" with
    | None -> 1
    | Some (Num t) when Float.is_integer t -> int_of_float t
    | Some _ -> raise (Bad "non-integer \"tid\"")
  in
  if ts < last_ts then
    raise
      (Bad (Printf.sprintf "timestamp regressed (%.3f after %.3f)" ts last_ts));
  (match ph with
  | "B" -> Hashtbl.replace depths tid (depth_of tid + 1)
  | "E" ->
    let d = depth_of tid in
    if d = 0 then
      raise
        (Bad (Printf.sprintf "unmatched span end for %S on tid %d" name tid));
    Hashtbl.replace depths tid (d - 1)
  | _ -> ());
  ts

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: trace-check FILE.jsonl";
      exit 2
  in
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "trace-check: %s\n" msg;
      exit 2
  in
  let events = ref 0 in
  let last_ts = ref neg_infinity in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         (try last_ts := check_event ~last_ts:!last_ts (parse line)
          with Bad msg ->
            Printf.eprintf "trace-check: %s:%d: %s\n" path !lineno msg;
            exit 1);
         incr events
       end
     done
   with End_of_file -> close_in ic);
  let open_spans =
    Hashtbl.fold
      (fun tid d acc -> if d <> 0 then (tid, d) :: acc else acc)
      depths []
  in
  if open_spans <> [] then begin
    List.iter
      (fun (tid, d) ->
        Printf.eprintf
          "trace-check: %s: %d span(s) left open on tid %d at end of file\n"
          path d tid)
      (List.sort compare open_spans);
    exit 1
  end;
  let tracks = Hashtbl.length depths in
  Printf.printf "trace-check: %s: %d events, spans balanced (%d track%s)\n" path
    !events tracks
    (if tracks = 1 then "" else "s")
