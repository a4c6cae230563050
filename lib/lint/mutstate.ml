open Ppxlib

(* Classification of toplevel bindings for the domain-safety phase.

   [Mutable]  — the binding's right-hand side mints shared mutable
                state: [ref], [Array.make]-family, [Hashtbl.create],
                [Buffer.create], [Queue]/[Stack].create, [Bytes],
                a record or array literal (only matters once a write
                is actually found, so record mutability needs no type
                information), or [lazy] (forcing a shared suspension
                races on the thunk).
   [Guarded]  — [Atomic.*] or [Domain.DLS.*] state anywhere (DLS keys
                are domain-local by construction: each domain writes
                only its own slot), or any binding inside the audited
                modules: lib/par/pool.ml (the pool's own machinery:
                the per-job claim cursor and completion counter are
                Atomics; the job slot, epoch and stop flag are written
                under the pool lock) and lib/obs/* (the sharded
                metrics registry — per-domain DLS shards on an Atomic
                CAS list, plain writes aggregated only at snapshot
                time — and the
                trace ring refs, made domain-safe in PR 4, sharded in
                PR 8, re-audited for this analyzer each time — see
                docs/LINTING.md and docs/OBSERVABILITY.md).
   [Immutable] otherwise.

   R7 fires only on writes to [Mutable] bindings reachable from a
   pool-submitted closure; [Guarded] writes are the audited
   exceptions. *)

type cls = Mutable | Guarded | Immutable

type kind = Ref | Table | Buf | Arr | Record | Lazy_susp | Other

type binding = {
  m_key : string;  (* "Module.name", same keying as Callgraph *)
  m_cls : cls;
  m_kind : kind;
  m_path : string;
  m_line : int;
}

type t = (string, binding) Hashtbl.t

let cls_name = function
  | Mutable -> "mutable"
  | Guarded -> "guarded"
  | Immutable -> "immutable"

(* The audited-module allow-list.  Extending it is a review event, not
   an edit-one-attribute event: these are the only places shared
   mutable state may live without an R7 report. *)
let audited path =
  Rules.has_dir path "lib/obs"
  || (Rules.has_dir path "lib/par" && Filename.basename path = "pool.ml")

let mutable_makers =
  [
    ("Array", [ "make"; "init"; "create_float"; "make_matrix"; "copy";
                "of_list"; "append"; "sub"; "concat" ], Arr);
    ("Hashtbl", [ "create"; "copy"; "of_seq" ], Table);
    ("Buffer", [ "create" ], Buf);
    ("Queue", [ "create"; "copy"; "of_seq" ], Table);
    ("Stack", [ "create"; "copy"; "of_seq" ], Table);
    ("Bytes", [ "create"; "make"; "of_string"; "copy"; "init" ], Arr);
  ]

let rec classify_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> classify_expr e
  | Pexp_lazy _ -> (Mutable, Lazy_susp)
  | Pexp_record _ -> (Mutable, Record)
  | Pexp_array _ -> (Mutable, Arr)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match Callgraph.(strip_stdlib txt) with
    | Lident "ref" -> (Mutable, Ref)
    | Ldot (Lident "Atomic", _) -> (Guarded, Other)
    | Ldot (Ldot (Lident "Domain", "DLS"), _) -> (Guarded, Other)
    | Ldot (Lident m, f) -> (
      match
        List.find_opt
          (fun (m', fs, _) -> m = m' && List.mem f fs)
          mutable_makers
      with
      | Some (_, _, kind) -> (Mutable, kind)
      | None -> (Immutable, Other))
    | _ -> (Immutable, Other))
  | _ -> (Immutable, Other)

(* Classify every def the call graph collected: the defs already carry
   their right-hand sides, so this pass re-parses nothing.  On merged
   defs (same-basename modules, tuple patterns) the most conservative
   body wins: any Mutable beats Guarded beats Immutable. *)
let classify (cg : Callgraph.t) : t =
  let tbl = Hashtbl.create 256 in
  Callgraph.iter_defs cg (fun (d : Callgraph.def) ->
      let cls, kind =
        List.fold_left
          (fun (cls, kind) body ->
            let cls', kind' = classify_expr body in
            match (cls, cls') with
            | Mutable, _ -> (cls, kind)
            | _, Mutable -> (cls', kind')
            | Guarded, _ -> (cls, kind)
            | _, Guarded -> (cls', kind')
            | Immutable, Immutable -> (Immutable, Other))
          (Immutable, Other) d.Callgraph.d_bodies
      in
      let cls = if audited d.Callgraph.d_path then Guarded else cls in
      Hashtbl.replace tbl d.Callgraph.d_key
        {
          m_key = d.Callgraph.d_key;
          m_cls = cls;
          m_kind = kind;
          m_path = d.Callgraph.d_path;
          m_line = d.Callgraph.d_line;
        })
  ;
  tbl

let find (t : t) key = Hashtbl.find_opt t key
