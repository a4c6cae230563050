open Ppxlib

(* Rules R7/R8: the whole-program domain-safety phase.

   Seeds are the [Pool.parallel_for] / [Pool.parallel_mapi] call sites
   (any module path whose last component resolves to [Pool] through
   the file's aliases).  From each seed we scan the submitted closure
   — a [fun] literal, a local [let]-bound function (expanded inline),
   or a toplevel def — and take the transitive closure of its callees
   over the {!Callgraph}.  Every function reached is checked for

   - R7: a write ([:=], [incr]/[decr], [x.f <- _], [Array.set]-sugar,
     [Hashtbl]/[Buffer]/[Queue]/[Stack]/[Bytes] mutators) whose target
     resolves to a {!Mutstate.Mutable} toplevel binding;
   - R8: a known domain-unsafe stdlib entry: global [Random.*] (the
     shared PRNG; [Random.State.*] with explicit state is fine — so is
     [Ufp_prelude.Rng], which threads state per domain), the
     [Format.printf]/[std_formatter] shared-formatter family,
     [Printf.printf]/[eprintf], any [Str.*] (one global match state),
     and [Lazy.force] on a shared toplevel lazy.

   Findings are reported at the *seed* — the pool call site is where
   the purity obligation lives, and where [[@lint.allow "R7" "why"]]
   can discharge it — with the offending call chain in the message.
   Both the call graph and the closure scan over-approximate (every
   identifier occurrence is an edge), so false positives are possible
   and justified allows are the escape; false negatives hide behind
   functors (logged) and truly dynamic dispatch. *)

type fact =
  | Write of { target : string; prim : string; t_path : string; t_line : int }
  | Unsafe of { what : string; hint : string }

(* --- write-primitive and unsafe-identifier tables --- *)

let mutator_table =
  [
    ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort";
                "stable_sort" ]);
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear";
                  "filter_map_inplace" ]);
    ("Buffer", [ "add_char"; "add_string"; "add_bytes"; "add_substring";
                 "add_subbytes"; "add_buffer"; "add_channel"; "clear";
                 "reset"; "truncate" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ]);
  ]

let mutator_prim lid =
  match Callgraph.strip_stdlib lid with
  | Ldot (Lident m, f)
    when List.exists
           (fun (m', fs) -> m = m' && List.mem f fs)
           mutator_table ->
    Some (m ^ "." ^ f)
  | _ -> None

let format_unsafe =
  [
    "printf"; "eprintf"; "print_string"; "print_char"; "print_int";
    "print_float"; "print_newline"; "print_space"; "print_cut";
    "print_break"; "print_flush"; "force_newline"; "open_box"; "close_box";
    "open_hbox"; "open_vbox"; "open_hvbox"; "open_hovbox"; "std_formatter";
    "err_formatter"; "get_std_formatter";
  ]

let unsafe_ident lid =
  match Callgraph.strip_stdlib lid with
  | Ldot (Lident "Random", f) when f <> "State" ->
    Some
      ( "Random." ^ f,
        "the global PRNG is one shared state across domains; thread \
         Ufp_prelude.Rng (or Random.State) per task instead" )
  | Ldot (Ldot (Lident "Random", "State"), _) -> None
  | Ldot (Lident "Str", f) ->
    Some
      ( "Str." ^ f,
        "Str keeps one global match state; use re-entrant matching or \
         keep regexes out of pool tasks" )
  | Ldot (Lident "Format", f) when List.mem f format_unsafe ->
    Some
      ( "Format." ^ f,
        "std_formatter is one shared mutable formatter; format to a \
         string and hand it to the caller, or use Ufp_obs" )
  | Ldot (Lident "Printf", (("printf" | "eprintf") as f)) ->
    Some
      ( "Printf." ^ f,
        "stdout/stderr are shared channels; pool tasks must stay silent \
         (Ufp_obs carries work counts)" )
  | _ -> None

(* --- the scanner --- *)

type ctx = {
  cg : Callgraph.t;
  ms : Mutstate.t;
  path : string;
  cur_module : string;
  (* local [let]-bound functions of the enclosing toplevel item, for
     closures passed by name ([Pool.parallel_mapi ~pool ~n payment_of]);
     empty when scanning a def body (its locals are inside the body). *)
  locals : (string, expression list) Hashtbl.t;
}

let no_locals : (string, expression list) Hashtbl.t = Hashtbl.create 0

let resolve_binding ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match
      Callgraph.resolve ctx.cg ~path:ctx.path ~cur_module:ctx.cur_module txt
    with
    | Some key -> Mutstate.find ctx.ms key
    | None -> None)
  | _ -> None

let write_fact ctx prim target =
  match resolve_binding ctx target with
  | Some b when b.Mutstate.m_cls = Mutstate.Mutable ->
    Some
      (Write
         {
           target = b.Mutstate.m_key;
           prim;
           t_path = b.Mutstate.m_path;
           t_line = b.Mutstate.m_line;
         })
  | _ -> None

(* Scan expressions for facts and (when [collect_callees]) for callee
   def keys; locals are expanded inline, each at most once. *)
let scan ctx ~collect_callees exprs =
  let facts = ref [] in
  let callees = ref [] in
  let seen_local = Hashtbl.create 8 in
  let queue = Queue.create () in
  List.iter (fun e -> Queue.add e queue) exprs;
  let enqueue_local n =
    match Hashtbl.find_opt ctx.locals n with
    | Some bodies when not (Hashtbl.mem seen_local n) ->
      Hashtbl.replace seen_local n ();
      List.iter (fun e -> Queue.add e queue) bodies
    | _ -> ()
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (* R7 writes *)
        (match e.pexp_desc with
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident (":=" as p); _ }; _ },
              (_, lhs) :: _ )
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident (("incr" | "decr") as p); _ }; _ },
              (_, lhs) :: _ ) -> (
          match write_fact ctx p lhs with
          | Some f -> facts := f :: !facts
          | None -> ())
        | Pexp_setfield (lhs, { txt = field; _ }, _) -> (
          match
            write_fact ctx
              (Printf.sprintf "%s <- " (Callgraph.last_module field))
              lhs
          with
          | Some f -> facts := f :: !facts
          | None -> ())
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
          match mutator_prim txt with
          | Some prim ->
            (* Check every positional argument: mutators take the
               structure first, but blit-style ones also mutate later
               arguments — conservative either way. *)
            List.iter
              (fun (lbl, a) ->
                if lbl = Nolabel then
                  match write_fact ctx prim a with
                  | Some f -> facts := f :: !facts
                  | None -> ())
              args
          | None -> ())
        | _ -> ());
        (* R8 unsafe stdlib entries *)
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match unsafe_ident txt with
          | Some (what, hint) -> facts := Unsafe { what; hint } :: !facts
          | None -> ())
        | _ -> ());
        (* R8: Lazy.force on a shared toplevel lazy *)
        (match e.pexp_desc with
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt; _ }; _ },
              (_, arg) :: _ )
          when (match Callgraph.strip_stdlib txt with
               | Ldot (Lident "Lazy", ("force" | "force_val")) -> true
               | _ -> false) -> (
          match resolve_binding ctx arg with
          | Some b
            when b.Mutstate.m_kind = Mutstate.Lazy_susp
                 && b.Mutstate.m_cls = Mutstate.Mutable ->
            facts :=
              Unsafe
                {
                  what = "Lazy.force " ^ b.Mutstate.m_key;
                  hint =
                    "forcing a shared toplevel lazy races on the thunk; \
                     force it before the parallel region or make it \
                     per-task";
                }
              :: !facts
          | _ -> ())
        | _ -> ());
        (* callees + local expansion *)
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          (match txt with
          | Lident n -> enqueue_local n
          | _ -> ());
          if collect_callees then (
            match
              Callgraph.resolve ctx.cg ~path:ctx.path
                ~cur_module:ctx.cur_module txt
            with
            | Some key -> callees := key :: !callees
            | None -> ())
        | _ -> ());
        super#expression e
    end
  in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some e ->
      it#expression e;
      drain ()
  in
  drain ();
  (List.rev !facts, List.sort_uniq String.compare !callees)

(* Facts of a def body, memoized across seeds. *)
let def_facts cg ms memo key =
  match Hashtbl.find_opt memo key with
  | Some fs -> fs
  | None ->
    let fs =
      match Callgraph.find_def cg key with
      | None -> []
      | Some d ->
        let cur_module =
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i
          | None -> key
        in
        fst
          (scan
             { cg; ms; path = d.Callgraph.d_path; cur_module;
               locals = no_locals }
             ~collect_callees:false d.Callgraph.d_bodies)
    in
    Hashtbl.replace memo key fs;
    fs

(* --- seeds --- *)

type seed = {
  seed_path : string;
  seed_loc : Location.t;
  seed_fn : string;  (* a Pool entry point: parallel_for, parallel_mapi *)
  seed_arg : expression option;
  seed_locals : (string, expression list) Hashtbl.t;
  seed_allow_r7 : bool;
  seed_allow_r8 : bool;
}

let local_bindings item =
  let tbl = Hashtbl.create 8 in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        List.iter
          (fun n ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl n) in
            Hashtbl.replace tbl n (vb.pvb_expr :: prev))
          (Callgraph.pattern_vars vb.pvb_pat);
        super#value_binding vb
    end
  in
  it#structure_item item;
  tbl

let is_pool_seed cg ~path lid =
  match Callgraph.strip_stdlib lid with
  | Ldot (mp, (("parallel_for" | "parallel_mapi") as fn)) ->
    if
      String.equal
        (Callgraph.resolve_module cg ~path (Callgraph.last_module mp))
        "Pool"
    then Some fn
    else None
  | _ -> None

let closure_arg args =
  List.fold_left
    (fun acc (lbl, a) -> if lbl = Nolabel then Some a else acc)
    None args

let seeds_of_structure cg (path, items) =
  let out = ref [] in
  List.iter
    (fun item ->
      let locals = lazy (local_bindings item) in
      let collector =
        object (self)
          inherit Ast_traverse.iter as super
          val mutable allow_stack : Allowlist.allow list list = []
          val mutable persistent : Allowlist.allow list = []

          method private scoped attrs f =
            allow_stack <- Allowlist.of_attributes attrs :: allow_stack;
            f ();
            allow_stack <- List.tl allow_stack

          method! expression e =
            self#scoped e.pexp_attributes (fun () ->
                (match e.pexp_desc with
                | Pexp_apply
                    ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
                  match is_pool_seed cg ~path txt with
                  | Some fn ->
                    let stack = persistent :: allow_stack in
                    out :=
                      {
                        seed_path = path;
                        seed_loc = e.pexp_loc;
                        seed_fn = fn;
                        seed_arg = closure_arg args;
                        seed_locals = Lazy.force locals;
                        seed_allow_r7 = Allowlist.permits stack Finding.R7;
                        seed_allow_r8 = Allowlist.permits stack Finding.R8;
                      }
                      :: !out
                  | None -> ())
                | _ -> ());
                super#expression e)

          method! value_binding vb =
            self#scoped vb.pvb_attributes (fun () -> super#value_binding vb)

          method! structure_item item =
            match item.pstr_desc with
            | Pstr_attribute attr ->
              persistent <- persistent @ Allowlist.of_attributes [ attr ];
              super#structure_item item
            | Pstr_eval (_, attrs) ->
              self#scoped attrs (fun () -> super#structure_item item)
            | _ -> super#structure_item item
        end
      in
      collector#structure_item item)
    items;
  List.rev !out

(* --- the analysis --- *)

let chain_string trail =
  match trail with
  | [] -> "directly in the closure"
  | keys -> "via " ^ String.concat " -> " keys

(* Walk back through the BFS parent map to the seed. *)
let trail_of parents key =
  let rec go acc key =
    match Hashtbl.find_opt parents key with
    | Some (Some prev) -> go (key :: acc) prev
    | _ -> key :: acc
  in
  go [] key

let finding_of_fact ~seed ~trail fact =
  let line = seed.seed_loc.loc_start.Lexing.pos_lnum in
  let col =
    seed.seed_loc.loc_start.Lexing.pos_cnum
    - seed.seed_loc.loc_start.Lexing.pos_bol
  in
  let rule, message =
    match fact with
    | Write { target; prim; t_path; t_line } ->
      ( Finding.R7,
        Printf.sprintf
          "closure submitted to Pool.%s reaches a write (`%s') to mutable \
           toplevel state `%s' (%s:%d) %s; pool tasks must be pure — make \
           the state per-task, use Atomic, move it into an audited module, \
           or justify with [@lint.allow \"R7\" \"why\"]"
          seed.seed_fn prim target t_path t_line (chain_string trail) )
    | Unsafe { what; hint } ->
      ( Finding.R8,
        Printf.sprintf
          "closure submitted to Pool.%s reaches domain-unsafe `%s' %s; %s \
           (or justify with [@lint.allow \"R8\" \"why\"])"
          seed.seed_fn what (chain_string trail) hint )
  in
  { Finding.rule; path = seed.seed_path; line; col; message }

let check ~cg ~ms sources =
  let memo = Hashtbl.create 128 in
  let findings = ref [] in
  List.iter
    (fun (path, items) ->
      let cur_module = Callgraph.module_name_of_path path in
      List.iter
        (fun seed ->
          if not (seed.seed_allow_r7 && seed.seed_allow_r8) then begin
            let ctx =
              { cg; ms; path; cur_module; locals = seed.seed_locals }
            in
            let direct_facts, roots =
              match seed.seed_arg with
              | None -> ([], [])
              | Some arg -> scan ctx ~collect_callees:true [ arg ]
            in
            (* one finding per (rule, offence) per seed *)
            let reported = Hashtbl.create 8 in
            let report trail fact =
              let skip =
                match fact with
                | Write _ -> seed.seed_allow_r7
                | Unsafe _ -> seed.seed_allow_r8
              in
              let key =
                match fact with
                | Write { target; _ } -> "w:" ^ target
                | Unsafe { what; _ } -> "u:" ^ what
              in
              if (not skip) && not (Hashtbl.mem reported key) then begin
                Hashtbl.replace reported key ();
                findings := finding_of_fact ~seed ~trail fact :: !findings
              end
            in
            List.iter (report []) direct_facts;
            (* BFS over the call graph from the closure's callees. *)
            let parents = Hashtbl.create 32 in
            let q = Queue.create () in
            List.iter
              (fun k ->
                if not (Hashtbl.mem parents k) then begin
                  Hashtbl.replace parents k None;
                  Queue.add k q
                end)
              roots;
            let rec bfs () =
              match Queue.take_opt q with
              | None -> ()
              | Some key ->
                let trail = trail_of parents key in
                List.iter (report trail) (def_facts cg ms memo key);
                List.iter
                  (fun callee ->
                    if not (Hashtbl.mem parents callee) then begin
                      Hashtbl.replace parents callee (Some key);
                      Queue.add callee q
                    end)
                  (Callgraph.callees cg key);
                bfs ()
            in
            bfs ()
          end)
        (seeds_of_structure cg (path, items)))
    sources;
  List.sort_uniq Finding.compare !findings
