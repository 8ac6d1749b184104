(** Typedtree static analysis: ten passes over the [.cmt] files dune
    produces for [lib/] (the [@check] alias) — the repo's one static
    checker. The [.cmt] files of the other roots it is given are read
    only for the uses unused-export counts.

    The passes read the typed tree, so they can resolve identifiers
    through module aliases, see the type a comparison is used at,
    attribute acquisitions to a specific mutex {e field} (the label's
    record type names the lock: [Pager.t.lock]), and distinguish
    [Tm_storage.Lock] tickets by their [Outer]/[Inner] registry class.

    Passes (rule ids as reported):

    - [lock-order]: build the static lock-acquisition graph from
      [Mutex.protect] / [Lock.with_lock] regions (including one-argument
      wrapper functions such as the storage layer's [locked] helpers),
      propagate acquisitions one level through the local call graph, and
      fail on cycles, re-entrant acquisition, and violations of the
      ticket discipline (at most one Outer-class ticket held; nothing
      acquired under an Inner-class ticket).
    - [domain-safety]: toplevel mutable state ([ref], [Hashtbl],
      [Buffer], [Queue], mutable-record literals, [lazy]) in analyzed
      modules must be guarded — [Atomic], a named mutex, [Domain.DLS] —
      and the guard documented with [\[@@analyze.guarded_by "lock"\]].
    - [resource-safety]: no manual [Mutex.lock]/[unlock] or
      [Lock.acquire]/[release] (leak-on-raise); use [Mutex.protect] /
      [Lock.with_lock], or annotate the primitive itself with
      [\[@@analyze.manual_lock "why"\]]. File descriptors opened by a
      binding must be closed on the exception path ([Fun.protect] or a
      handler that closes), or the binding annotated
      [\[@@analyze.fd_ok "why"\]].
    - [typed-error]: no handler in [lib/core]/[lib/exec]/[lib/serve]
      may absorb the typed control exceptions [Timeout], [Corrupt_page]
      or [Bad_snapshot] (matched by constructor name): explicit matches
      on them must re-raise or carry [\[@analyze.boundary\]] on the
      handler body; catch-alls must re-raise (any [raise] application,
      or a call whose name contains "reraise") or carry the same
      annotation.
    - [failpoint]: raw page I/O in [lib/storage] — indexing into a
      [pages]/[crcs] backing array — must sit in a binding that also
      passes through a [Tm_fault.Fault.guard]/[apply] site, or be
      exempted with [\[@@analyze.no_failpoint "why"\]]. Site arguments
      must resolve to static strings so [TWIGMATCH_FAILPOINTS] can arm
      them.
    - [poly-compare]: Stdlib's polymorphic [compare], [=], [<>], [<],
      [>], [<=], [>=], [min], [max], [List.mem] and [List.assoc*] used
      at a type other than an immediate (int, char, bool, unit, a
      constant-only variant), float or string — there they walk
      structure; use a typed equality or comparator.
    - [no-failwith] ([lib/core]): no [failwith] and no raising of
      [Failure] — the core API reports errors via [result] or typed
      exceptions.
    - [catch-all]: no [try ... with _ ->], including wildcard binders
      spelled [_exn]; handlers name the exceptions they swallow.
    - [mli-coverage]: every module has an interface file.
    - [unused-export]: every [val] in an interface is named by another
      compilation unit under any root (module aliases resolved; a
      module used whole — a functor argument, an [include] — uses all
      its values).

    Output: [path:line:col: \[pass\] message] on stdout, exit 1 on any
    finding; [--json FILE] additionally writes a SARIF-shaped report. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type finding = { pass : string; file : string; line : int; col : int; message : string }

let finding_compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.pass b.pass in
        if c <> 0 then c else String.compare a.message b.message

let findings : finding list ref = ref []

let strip_dots file =
  let rec go f =
    if String.length f >= 3 && String.equal (String.sub f 0 3) "../" then
      go (String.sub f 3 (String.length f - 3))
    else if String.length f >= 2 && String.equal (String.sub f 0 2) "./" then
      go (String.sub f 2 (String.length f - 2))
    else f
  in
  go file

let report ~pass ~(loc : Location.t) msg =
  let p = loc.Location.loc_start in
  findings :=
    {
      pass;
      file = strip_dots p.Lexing.pos_fname;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      message = msg;
    }
    :: !findings

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(* Substring-based so they hold for "lib/...", "./lib/..." and absolute
   paths. [--all-scopes] widens the scoped passes, and the set of
   analyzed modules, to every file under the roots (used by the fixture
   tests, which live under test/). *)
let in_dir dir file =
  let dn = String.length dir and fn = String.length file in
  let rec go i = i + dn <= fn && (String.equal (String.sub file i dn) dir || go (i + 1)) in
  go 0

let all_scopes = ref false

let typed_error_scope file =
  !all_scopes || List.exists (fun d -> in_dir d file) [ "lib/core/"; "lib/exec/"; "lib/serve/" ]

let analyzed_scope file = !all_scopes || in_dir "lib/" file
let failpoint_scope file = !all_scopes || in_dir "lib/storage/" file
let no_failwith_scope file = !all_scopes || in_dir "lib/core/" file

(* ------------------------------------------------------------------ *)
(* Paths, keys, attributes                                             *)
(* ------------------------------------------------------------------ *)

(* "Tm_obs__Context" -> ["Tm_obs"; "Context"]: dune's unit name split
   into its library wrapper and module. *)
let unit_comps u =
  let n = String.length u in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub u start (n - start) :: acc)
    else if u.[i] = '_' && u.[i + 1] = '_' then go (i + 2) (i + 2) (String.sub u start (i - start) :: acc)
    else go start (i + 1) acc
  in
  List.filter (fun c -> not (String.equal c "")) (go 0 0 [])

(* "Tm_storage__Pager" -> "Pager" (strip dune's unit-name mangling). *)
let short_unit s = match List.rev (unit_comps s) with c :: _ -> c | [] -> s

(* Normalize a path to its last two components with unit mangling and a
   leading Stdlib stripped: "Stdlib__Mutex.lock" -> "Mutex.lock",
   "Tm_fault.Fault.guard" -> "Fault.guard", "Stdlib.ref" -> "ref". *)
let key_of_path p =
  let comps = String.split_on_char '.' (Path.name p) |> List.map short_unit in
  let comps = match comps with "Stdlib" :: (_ :: _ as rest) -> rest | c -> c in
  let rec last2 = function ([ _ ] | [ _; _ ]) as l -> l | _ :: tl -> last2 tl | [] -> [] in
  String.concat "." (last2 comps)

(* A call/value key: local identifiers resolve within the current
   module so "locked" in pager.ml and buffer_pool.ml stay distinct. *)
let value_key ~curmod p =
  match p with Path.Pident id -> curmod ^ "." ^ Ident.name id | _ -> key_of_path p

let base_name key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let type_key ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some (key_of_path p) | _ -> None

(* "Pager.t.lock": the mutex a record label denotes, independent of
   which value of the type it is read from. *)
let label_key (lbl : Types.label_description) =
  match type_key lbl.Types.lbl_res with
  | Some tk -> Some (tk ^ "." ^ lbl.Types.lbl_name)
  | None -> None

let has_attr name (attrs : Typedtree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name) attrs

(* ------------------------------------------------------------------ *)
(* The lock graph's nodes                                              *)
(* ------------------------------------------------------------------ *)

type cls = Outer | Inner

type node =
  | Nmutex of string  (** a plain [Mutex.t]: global name or record label key *)
  | Nticket of string * cls option  (** a [Lock.t] ticket and its registry class, if known *)

let node_name = function
  | Nmutex n -> n
  | Nticket (n, Some Outer) -> n ^ " (Outer ticket)"
  | Nticket (n, Some Inner) -> n ^ " (Inner ticket)"
  | Nticket (n, None) -> n ^ " (ticket)"

let node_id = function Nmutex n -> "m:" ^ n | Nticket (n, _) -> "t:" ^ n

(* ------------------------------------------------------------------ *)
(* Phase A: global collection                                          *)
(* ------------------------------------------------------------------ *)

type binding = {
  b_key : string;  (** "Mod.name" *)
  b_attrs : Typedtree.attributes;
  b_expr : Typedtree.expression;
  b_loc : Location.t;
  b_file : string;
}

let bindings : (string, binding) Hashtbl.t = Hashtbl.create 256
let global_mutexes : (string, unit) Hashtbl.t = Hashtbl.create 16
let ticket_globals : (string, cls) Hashtbl.t = Hashtbl.create 16
let label_cls : (string, cls) Hashtbl.t = Hashtbl.create 16
let site_strings : (string, string) Hashtbl.t = Hashtbl.create 16
let wrappers : (string, node option) Hashtbl.t = Hashtbl.create 16

(* Type declarations of the analyzed modules, for poly-compare: under
   the declaring ident's unique name (what a [Pident] reference
   resolves to) and, at a module's top level, under "Mod.t" (what
   [key_of_path] makes of a reference from another module). A key two
   modules share keeps both declarations. *)
let type_decls : (string, Types.type_declaration) Hashtbl.t = Hashtbl.create 64

(* Per-binding lock facts, filled during phase B. *)
let fn_direct : (string, node list ref) Hashtbl.t = Hashtbl.create 64
let fn_calls : (string, string list ref) Hashtbl.t = Hashtbl.create 64

let tbl_push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.replace tbl key (ref [ v ])

let tbl_list tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> []

let head_key ~curmod (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (value_key ~curmod p) | _ -> None

let pos_args args = List.filter_map (fun (_, a) -> a) args

(* [Lock.create Lock.Outer] and friends. *)
let ticket_class_of_rhs ~curmod (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (hd, args) when head_key ~curmod hd = Some "Lock.create" -> (
    match pos_args args with
    | [ { exp_desc = Texp_construct (_, cd, _); _ } ] -> (
      match cd.cstr_name with "Outer" -> Some Outer | "Inner" -> Some Inner | _ -> None)
    | _ -> None)
  | _ -> None

let collect_module ~curmod ~file (str : Typedtree.structure) =
  let add_binding ~curmod name attrs expr loc =
    let b_key = curmod ^ "." ^ name in
    Hashtbl.replace bindings b_key { b_key; b_attrs = attrs; b_expr = expr; b_loc = loc; b_file = file };
    (match expr.exp_desc with
    | Texp_apply (hd, _) when head_key ~curmod hd = Some "Mutex.create" ->
      Hashtbl.replace global_mutexes b_key ()
    | Texp_constant (Asttypes.Const_string (s, _, _)) -> Hashtbl.replace site_strings b_key s
    | _ -> ());
    match ticket_class_of_rhs ~curmod expr with
    | Some c -> Hashtbl.replace ticket_globals b_key c
    | None -> ()
  in
  (* Record literals anywhere in the module tell us the registry class
     of ticket-typed fields ([lock = Lock.create Lock.Outer]). *)
  let super = Tast_iterator.default_iterator in
  let type_declaration it (d : Typedtree.type_declaration) =
    Hashtbl.add type_decls (Ident.unique_name d.typ_id) d.typ_type;
    super.type_declaration it d
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_record { fields; _ } ->
      Array.iter
        (fun ((lbl : Types.label_description), def) ->
          match def with
          | Typedtree.Overridden (_, rhs) -> (
            match (label_key lbl, ticket_class_of_rhs ~curmod rhs) with
            | Some lk, Some c -> Hashtbl.replace label_cls lk c
            | _ -> ())
          | Typedtree.Kept _ -> ())
        fields
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr; type_declaration } in
  it.structure it str;
  let rec items ~curmod (l : Typedtree.structure_item list) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let name =
                (* [let x : t = e] typechecks as an alias pattern over the
                   constraint, so both shapes name the binding. *)
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
                | _ -> "_"
              in
              add_binding ~curmod name vb.vb_attributes vb.vb_expr vb.vb_loc)
            vbs
        | Tstr_type (_, decls) ->
          List.iter
            (fun (d : Typedtree.type_declaration) ->
              Hashtbl.add type_decls (curmod ^ "." ^ Ident.name d.typ_id) d.typ_type)
            decls
        | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
          items ~curmod:(Ident.name id) s.str_items
        | _ -> ())
      l
  in
  items ~curmod str.str_items

(* A wrapper is a function whose body, after its parameters, is exactly
   [Mutex.protect m f] / [Lock.with_lock t f] with [f] one of its own
   parameters — the storage layer's [let locked t f = ...] idiom. The
   lock argument resolves statically (a global mutex or a record field,
   whose label identifies the lock without knowing the value). *)
let node_of_static ~curmod (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    let key = value_key ~curmod p in
    if Hashtbl.mem global_mutexes key then Some (Nmutex key)
    else
      match Hashtbl.find_opt ticket_globals key with
      | Some c -> Some (Nticket (key, Some c))
      | None -> (
        match type_key e.exp_type with
        | Some "Mutex.t" -> Some (Nmutex key)
        | Some "Lock.t" -> Some (Nticket (key, None))
        | _ -> None))
  | Texp_field (_, _, lbl) -> (
    match label_key lbl with
    | None -> None
    | Some lk -> (
      match type_key lbl.Types.lbl_arg with
      | Some "Mutex.t" -> Some (Nmutex lk)
      | Some "Lock.t" -> Some (Nticket (lk, Hashtbl.find_opt label_cls lk))
      | _ -> None))
  | _ -> None

let detect_wrappers () =
  Hashtbl.iter
    (fun b_key (b : binding) ->
      let curmod = match String.index_opt b_key '.' with
        | Some i -> String.sub b_key 0 i
        | None -> b_key
      in
      let rec params acc (e : Typedtree.expression) =
        match e.exp_desc with
        | Texp_function { param; cases = [ { c_rhs; _ } ]; _ } -> params (param :: acc) c_rhs
        | _ -> (acc, e)
      in
      let ps, body = params [] b.b_expr in
      if ps <> [] then
        match body.exp_desc with
        | Texp_apply (hd, args) -> (
          match (head_key ~curmod hd, pos_args args) with
          | Some ("Mutex.protect" | "Lock.with_lock"), [ lock_arg; { exp_desc = Texp_ident (Path.Pident cb, _, _); _ } ]
            when List.exists (fun p -> Ident.same p cb) ps ->
            Hashtbl.replace wrappers b_key (node_of_static ~curmod lock_arg)
          | _ -> ())
        | _ -> ())
    bindings

(* ------------------------------------------------------------------ *)
(* Phase B: per-binding traversal                                      *)
(* ------------------------------------------------------------------ *)

type call_ev = { ce_held : node list; ce_key : string; ce_loc : Location.t }

type handler_ev = {
  he_file : string;
  he_ctors : string list;
  he_wild : bool;
  he_guarded : bool;
  he_reraises : bool;
  he_boundary : bool;
  he_loc : Location.t;
}

type edge = { e_from : node; e_to : node; e_loc : Location.t }

let edges : edge list ref = ref []
let call_evs : call_ev list ref = ref []
let handler_evs : handler_ev list ref = ref []

(* Top-level constructor names / wildcardness of an exception pattern. *)
let rec pat_ctors : type k. k Typedtree.general_pattern -> string list * bool =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> ([ cd.Types.cstr_name ], false)
  | Tpat_or (a, b, _) ->
    let ca, wa = pat_ctors a and cb, wb = pat_ctors b in
    (ca @ cb, wa || wb)
  | Tpat_alias (q, _, _) -> pat_ctors q
  | Tpat_value v -> pat_ctors (v :> Typedtree.value Typedtree.general_pattern)
  | Tpat_any | Tpat_var _ -> ([], true)
  | _ -> ([], false)

let raise_keys = [ "raise"; "raise_notrace"; "Printexc.raise_with_backtrace" ]
let close_keys = [ "Unix.close"; "close_in"; "close_out"; "close_in_noerr"; "close_out_noerr" ]

let fd_open_keys =
  [ "Unix.openfile"; "Unix.socket"; "Unix.accept"; "Unix.pipe"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "open_in_gen"; "open_out_gen" ]

(* Stateless scan: does [e] contain an application of any key in [keys],
   or (when [by_name]) a call whose base name satisfies it? *)
let contains_call ~curmod ~keys ?by_name (e : Typedtree.expression) =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr it (x : Typedtree.expression) =
    (if not !found then
       let k =
         match x.exp_desc with
         | Texp_apply (hd, _) -> head_key ~curmod hd
         | Texp_ident _ -> head_key ~curmod x
         | _ -> None
       in
       match k with
       | Some key ->
         if List.mem key keys then found := true
         else (
           match by_name with Some f when f (base_name key) -> found := true | _ -> ())
       | None -> ());
    if not !found then super.expr it x
  in
  let it = { super with expr } in
  it.expr it e;
  !found

type bctx = {
  x_curmod : string;
  x_file : string;
  x_key : string;  (** the enclosing toplevel binding *)
  x_attrs : Typedtree.attributes;
  mutable x_manual : (string * Location.t) list;
  mutable x_fd_opens : (string * Location.t) list;
  mutable x_fd_safe : bool;  (** Fun.protect seen, or a handler that closes *)
  mutable x_fault_sites : (string option * Location.t) list;
  mutable x_raw_io : Location.t list;
}

let walk_binding ctx (root : Typedtree.expression) =
  let curmod = ctx.x_curmod in
  let held : node list ref = ref [] in
  let acquire node loc =
    tbl_push fn_direct ctx.x_key node;
    List.iter (fun h -> edges := { e_from = h; e_to = node; e_loc = loc } :: !edges) !held
  in
  let super = Tast_iterator.default_iterator in
  let rec expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (hd, args) -> apply it e hd args
    | Texp_try (body, cases) ->
      expr it body;
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          note_handler c.c_lhs c.c_guard c.c_rhs;
          Option.iter (expr it) c.c_guard;
          expr it c.c_rhs)
        cases
    | Texp_match (scrut, cases, _) ->
      expr it scrut;
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          (match Typedtree.split_pattern c.c_lhs with
          | _, Some exn_pat -> note_handler exn_pat c.c_guard c.c_rhs
          | _, None -> ());
          Option.iter (expr it) c.c_guard;
          expr it c.c_rhs)
        cases
    | _ -> super.expr it e
  and note_handler : type k. k Typedtree.general_pattern -> _ -> Typedtree.expression -> unit =
   fun pat guard rhs ->
    let ctors, wild = pat_ctors pat in
    handler_evs :=
      {
        he_file = ctx.x_file;
        he_ctors = ctors;
        he_wild = wild;
        he_guarded = guard <> None;
        he_reraises =
          contains_call ~curmod ~keys:raise_keys
            ~by_name:(fun n ->
              (* e.g. a [reraise_if_fatal] helper *)
              let rec has i =
                i + 7 <= String.length n && (String.equal (String.sub n i 7) "reraise" || has (i + 1))
              in
              has 0)
            rhs;
        he_boundary = has_attr "analyze.boundary" rhs.exp_attributes || has_attr "analyze.boundary" ctx.x_attrs;
        he_loc = pat.pat_loc;
      }
      :: !handler_evs
  and region it node_opt loc (cb : Typedtree.expression) =
    (match node_opt with Some n -> acquire n loc | None -> ());
    let saved = !held in
    (match node_opt with Some n -> held := n :: saved | None -> ());
    (match cb.exp_desc with
    | Texp_ident _ ->
      (* callback passed by name: the call happens under the lock *)
      (match head_key ~curmod cb with
      | Some key -> call_evs := { ce_held = !held; ce_key = key; ce_loc = loc } :: !call_evs
      | None -> ())
    | _ -> expr it cb);
    held := saved
  and apply it e hd args =
    let hk = head_key ~curmod hd in
    let pa = pos_args args in
    let record_call key =
      tbl_push fn_calls ctx.x_key key;
      if !held <> [] then call_evs := { ce_held = !held; ce_key = key; ce_loc = e.exp_loc } :: !call_evs
    in
    let walk_args () = List.iter (fun a -> expr it a) pa in
    match (hk, pa) with
    | Some ("Mutex.protect" | "Lock.with_lock"), [ lock_arg; cb ] ->
      expr it lock_arg;
      region it (node_of_static ~curmod lock_arg) e.exp_loc cb
    | Some "Mutex.lock", [ lock_arg ] | Some "Lock.acquire", [ lock_arg ] ->
      ctx.x_manual <- (Option.get hk, e.exp_loc) :: ctx.x_manual;
      (match node_of_static ~curmod lock_arg with
      | Some n -> acquire n e.exp_loc
      | None -> ());
      walk_args ()
    | Some "Mutex.unlock", _ | Some "Lock.release", _ ->
      ctx.x_manual <- (Option.get hk, e.exp_loc) :: ctx.x_manual;
      walk_args ()
    | Some (("Fault.guard" | "Fault.apply") as fk), _ ->
      let site_arg =
        let labelled =
          List.find_map
            (fun (l, a) -> match l with Asttypes.Labelled "site" -> a | _ -> None)
            args
        in
        match labelled with Some _ as s -> s | None -> List.nth_opt pa 0
      in
      let site =
        match site_arg with
        | Some { exp_desc = Texp_constant (Asttypes.Const_string (s, _, _)); _ } -> Some s
        | Some { exp_desc = Texp_ident (p, _, _); _ } ->
          Hashtbl.find_opt site_strings (value_key ~curmod p)
        | _ -> None
      in
      ctx.x_fault_sites <- (site, e.exp_loc) :: ctx.x_fault_sites;
      record_call fk;
      walk_args ()
    | Some "Fun.protect", _ ->
      ctx.x_fd_safe <- true;
      walk_args ()
    | Some ("Array.get" | "Array.set" | "Array.unsafe_get" | "Array.unsafe_set"), first :: _
      when (match first.exp_desc with
           | Texp_field (_, _, lbl) ->
             String.equal lbl.Types.lbl_name "pages" || String.equal lbl.Types.lbl_name "crcs"
           | _ -> false) ->
      ctx.x_raw_io <- e.exp_loc :: ctx.x_raw_io;
      walk_args ()
    | Some key, _ when Hashtbl.mem wrappers key && pa <> [] ->
      let cb = List.nth pa (List.length pa - 1) in
      List.iteri (fun i a -> if i < List.length pa - 1 then expr it a) pa;
      region it (Hashtbl.find wrappers key) e.exp_loc cb
    | Some key, _ when List.mem key fd_open_keys ->
      ctx.x_fd_opens <- (key, e.exp_loc) :: ctx.x_fd_opens;
      record_call key;
      walk_args ()
    | Some key, _ ->
      record_call key;
      walk_args ()
    | None, _ ->
      expr it hd;
      walk_args ()
  in
  (* Handlers that close an fd make a manual open/close pair safe. *)
  let fd_handler_scan () =
    let super = Tast_iterator.default_iterator in
    let expr it (x : Typedtree.expression) =
      (match x.exp_desc with
      | Texp_try (_, cases) ->
        if
          List.exists
            (fun (c : Typedtree.value Typedtree.case) ->
              contains_call ~curmod ~keys:close_keys c.c_rhs)
            cases
        then ctx.x_fd_safe <- true
      | _ -> ());
      super.expr it x
    in
    let it = { super with expr } in
    it.expr it root
  in
  fd_handler_scan ();
  let it = { super with expr = (fun it e -> expr it e) } in
  it.expr it root

(* ------------------------------------------------------------------ *)
(* Phase C: the passes                                                 *)
(* ------------------------------------------------------------------ *)

(* One-level call propagation: a call made while holding locks acquires
   everything the callee (and the callee's direct callees) acquire
   directly. Deeper nesting must hop through another analyzed call site,
   which itself gets the same treatment. *)
let expand_call_edges () =
  let eff key =
    let direct = tbl_list fn_direct key in
    let via_callees =
      List.concat_map (fun c -> tbl_list fn_direct c) (tbl_list fn_calls key)
    in
    direct @ via_callees
  in
  List.iter
    (fun ce ->
      List.iter
        (fun n ->
          List.iter (fun h -> edges := { e_from = h; e_to = n; e_loc = ce.ce_loc } :: !edges) ce.ce_held)
        (eff ce.ce_key))
    !call_evs

let pass_lock_order () =
  expand_call_edges ();
  (* Unique adjacency with one witness location per edge. *)
  let adj : (string, (node * node * Location.t) list ref) Hashtbl.t = Hashtbl.create 32 in
  let seen_pair : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let nodes : (string, node) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let pk = node_id e.e_from ^ "->" ^ node_id e.e_to in
      if not (Hashtbl.mem seen_pair pk) then begin
        Hashtbl.replace seen_pair pk ();
        Hashtbl.replace nodes (node_id e.e_from) e.e_from;
        Hashtbl.replace nodes (node_id e.e_to) e.e_to;
        tbl_push adj (node_id e.e_from) (e.e_from, e.e_to, e.e_loc)
      end)
    !edges;
  (* Class discipline: nothing under Inner; at most one Outer. *)
  List.iter
    (fun e ->
      let pk = "rep:" ^ node_id e.e_from ^ "->" ^ node_id e.e_to in
      if not (Hashtbl.mem seen_pair pk) then begin
        Hashtbl.replace seen_pair pk ();
        (match e.e_from with
        | Nticket (_, Some Inner) ->
          report ~pass:"lock-order" ~loc:e.e_loc
            (Printf.sprintf
               "%s acquired while holding %s; the registry discipline allows no acquisition \
                under an Inner-class ticket"
               (node_name e.e_to) (node_name e.e_from))
        | Nticket (_, Some Outer) -> (
          match e.e_to with
          | Nticket (_, Some Outer) ->
            report ~pass:"lock-order" ~loc:e.e_loc
              (Printf.sprintf
                 "%s acquired while holding %s; the registry discipline allows at most one \
                  Outer-class ticket at a time"
                 (node_name e.e_to) (node_name e.e_from))
          | _ -> ())
        | Nmutex _ | Nticket (_, None) -> ());
        if String.equal (node_id e.e_from) (node_id e.e_to) then
          report ~pass:"lock-order" ~loc:e.e_loc
            (Printf.sprintf "re-entrant acquisition of %s (self-deadlock)" (node_name e.e_from))
      end)
    !edges;
  (* Cycle detection (DFS, white/grey/black). *)
  let color : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let reported : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec dfs path id =
    Hashtbl.replace color id 1;
    List.iter
      (fun (_, to_node, loc) ->
        let tid = node_id to_node in
        if String.equal tid id then () (* self edges reported above *)
        else
          match Hashtbl.find_opt color tid with
          | Some 1 ->
            (* back edge: the cycle is the path suffix from tid *)
            let rec suffix = function
              | [] -> []
              | x :: _ as l when String.equal x tid -> l
              | _ :: tl -> suffix tl
            in
            let cyc = suffix (List.rev path) @ [ tid ] in
            let ck = String.concat "," (List.sort String.compare cyc) in
            if not (Hashtbl.mem reported ck) then begin
              Hashtbl.replace reported ck ();
              let names =
                List.map
                  (fun i -> match Hashtbl.find_opt nodes i with Some n -> node_name n | None -> i)
                  cyc
              in
              report ~pass:"lock-order" ~loc
                ("lock-order cycle: " ^ String.concat " -> " names)
            end
          | Some _ -> ()
          | None -> dfs (tid :: path) tid)
      (tbl_list adj id);
    Hashtbl.replace color id 2
  in
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) nodes [] |> List.sort String.compare in
  List.iter (fun id -> if not (Hashtbl.mem color id) then dfs [ id ] id) ids

let safe_heads =
  [ "Atomic.make"; "Mutex.create"; "Condition.create"; "DLS.new_key"; "Lock.create";
    "Domain.spawn"; "Sys.getenv_opt" ]

let mutable_kind ~curmod (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (hd, _) -> (
    match head_key ~curmod hd with
    | Some k when List.mem k safe_heads -> None
    | Some "ref" -> Some "ref cell"
    | Some "Hashtbl.create" -> Some "Hashtbl.t"
    | Some "Buffer.create" -> Some "Buffer.t"
    | Some "Queue.create" -> Some "Queue.t"
    | Some "Stack.create" -> Some "Stack.t"
    | Some ("Array.make" | "Array.create_float") -> Some "mutable array"
    | Some ("Bytes.create" | "Bytes.make") -> Some "bytes"
    | _ -> None)
  | Texp_record { fields; _ }
    when Array.exists
           (fun ((lbl : Types.label_description), _) ->
             match lbl.Types.lbl_mut with
             | Asttypes.Mutable -> true
             | Asttypes.Immutable -> false)
           fields -> Some "record with mutable fields"
  | Texp_lazy _ -> Some "lazy block (unsynchronized forcing)"
  | _ -> None

let pass_domain_safety () =
  Hashtbl.iter
    (fun _ (b : binding) ->
      let curmod =
        match String.index_opt b.b_key '.' with
        | Some i -> String.sub b.b_key 0 i
        | None -> b.b_key
      in
      match mutable_kind ~curmod b.b_expr with
      | Some kind when not (has_attr "analyze.guarded_by" b.b_attrs) ->
        report ~pass:"domain-safety" ~loc:b.b_loc
          (Printf.sprintf
             "toplevel mutable state `%s` (%s) is shared across domains; guard it with Atomic \
              / a named mutex / Domain.DLS and document the guard with [@@analyze.guarded_by \
              \"lock\"]"
             (base_name b.b_key) kind)
      | _ -> ())
    bindings

let binding_contexts : bctx list ref = ref []

let pass_resource_safety () =
  List.iter
    (fun ctx ->
      let attrs =
        match Hashtbl.find_opt bindings ctx.x_key with Some b -> b.b_attrs | None -> []
      in
      if not (has_attr "analyze.manual_lock" attrs) then
        List.iter
          (fun (kind, loc) ->
            report ~pass:"resource-safety" ~loc
              (Printf.sprintf
                 "manual %s leaks the lock if the critical section raises; use Mutex.protect / \
                  Lock.with_lock (or annotate the primitive [@@analyze.manual_lock \"why\"])"
                 kind))
          ctx.x_manual;
      if (not ctx.x_fd_safe) && not (has_attr "analyze.fd_ok" attrs) then
        List.iter
          (fun (kind, loc) ->
            report ~pass:"resource-safety" ~loc
              (Printf.sprintf
                 "descriptor from %s is not closed on the exception path; wrap the use in \
                  Fun.protect or close it in an exception handler"
                 kind))
          ctx.x_fd_opens)
    !binding_contexts

let typed_ctors = [ "Timeout"; "Corrupt_page"; "Bad_snapshot" ]

let pass_typed_error () =
  List.iter
    (fun h ->
      if typed_error_scope h.he_file && not h.he_boundary then begin
        let absorbed = List.filter (fun c -> List.mem c typed_ctors) h.he_ctors in
        if absorbed <> [] && (not h.he_guarded) && not h.he_reraises then
          report ~pass:"typed-error" ~loc:h.he_loc
            (Printf.sprintf
               "handler absorbs typed control exception %s; the degradation/deadline contract \
                requires it to escape — re-raise, or mark a sanctioned boundary with \
                [@analyze.boundary] on the handler body"
               (String.concat ", " absorbed))
        else if h.he_wild && (not h.he_guarded) && not h.he_reraises then
          report ~pass:"typed-error" ~loc:h.he_loc
            "catch-all handler can absorb Timeout/Corrupt_page/Bad_snapshot; re-raise what you \
             do not handle (a reraise_* helper counts) or mark the boundary with \
             [@analyze.boundary]"
      end)
    !handler_evs

let pass_failpoint () =
  List.iter
    (fun ctx ->
      if failpoint_scope ctx.x_file then begin
        let attrs =
          match Hashtbl.find_opt bindings ctx.x_key with Some b -> b.b_attrs | None -> []
        in
        List.iter
          (fun (site, loc) ->
            if site = None then
              report ~pass:"failpoint" ~loc
                "failpoint site does not resolve to a static string; TWIGMATCH_FAILPOINTS \
                 cannot arm it")
          ctx.x_fault_sites;
        if ctx.x_fault_sites = [] && not (has_attr "analyze.no_failpoint" attrs) then
          List.iter
            (fun loc ->
              report ~pass:"failpoint" ~loc
                (Printf.sprintf
                   "raw page I/O in `%s` is outside any registered failpoint; route it \
                    through a Tm_fault.Fault.guard/apply site or exempt the binding with \
                    [@@analyze.no_failpoint \"why\"]"
                   (base_name ctx.x_key)))
            ctx.x_raw_io
      end)
    !binding_contexts

(* Is a comparison at [ty] a single machine compare? Immediates (int,
   char, bool, unit, constant-only variants, including polymorphic
   ones), float and string are; anything else, a type variable
   included, walks structure. Types declared outside the analyzed
   modules are known by name only. *)
let cheap_paths = Predef.[ path_int; path_char; path_bool; path_unit; path_float; path_string ]
let cheap_names = [ "Int.t"; "Char.t"; "Bool.t"; "Unit.t"; "Float.t"; "String.t" ]

let rec cheap_type depth ty =
  depth < 8
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    let key = match p with Path.Pident id -> Ident.unique_name id | _ -> key_of_path p in
    List.exists (Path.same p) cheap_paths
    || List.exists (String.equal key) cheap_names
    ||
    match Hashtbl.find_all type_decls key with
    | [] -> false
    | ds -> List.for_all (cheap_decl (depth + 1)) ds)
  | Types.Tvariant row ->
    List.for_all
      (fun (_, f) ->
        match Types.row_field_repr f with
        | Types.Rpresent None | Types.Rabsent -> true
        | Types.Reither (constant, _, _) -> constant
        | Types.Rpresent (Some _) -> false)
      (Types.row_fields row)
  | _ -> false

and cheap_decl depth (d : Types.type_declaration) =
  match d.Types.type_immediate with
  | Type_immediacy.Always | Type_immediacy.Always_on_64bits -> true
  | Type_immediacy.Unknown -> (
    match d.Types.type_manifest with Some m -> cheap_type depth m | None -> false)

let poly_compare_keys =
  [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max"; "List.mem"; "List.assoc";
    "List.assoc_opt"; "List.mem_assoc"; "List.remove_assoc" ]

(* [p] names a value of the standard library ("Stdlib.compare",
   "Stdlib__List.mem"), not a local that shadows it. *)
let is_stdlib p =
  let h = Ident.name (Path.head p) in
  String.equal h "Stdlib" || String.starts_with ~prefix:"Stdlib__" h

(* Each of [poly_compare_keys] takes the compared value first. *)
let compared_type ty =
  match Types.get_desc ty with Types.Tarrow (_, arg, _, _) -> Some arg | _ -> None

let is_exn ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Path.same p Predef.path_exn | _ -> false

(* poly-compare, no-failwith and catch-all: one walk over a module. *)
let pass_source ~file (str : Typedtree.structure) =
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) when is_stdlib p -> (
      let key = key_of_path p in
      if List.exists (String.equal key) poly_compare_keys then (
        match compared_type e.exp_type with
        | Some ty when not (cheap_type 0 ty) ->
          report ~pass:"poly-compare" ~loc:e.exp_loc
            (Printf.sprintf
               "polymorphic %s at type %s walks structure; use a typed equality or comparator"
               key
               (Format.asprintf "%a" Printtyp.type_expr ty))
        | Some _ | None -> ())
      else if String.equal key "failwith" && no_failwith_scope file then
        report ~pass:"no-failwith" ~loc:e.exp_loc
          "failwith in lib/core; raise a typed exception or return a result")
    | Texp_construct (_, cd, _ :: _)
      when String.equal cd.Types.cstr_name "Failure" && is_exn cd.Types.cstr_res
           && no_failwith_scope file ->
      report ~pass:"no-failwith" ~loc:e.exp_loc
        "Failure raised in lib/core; raise a typed exception or return a result"
    | Texp_try (_, cases) ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          match (c.c_lhs.pat_desc, c.c_guard) with
          | Tpat_any, None ->
            report ~pass:"catch-all" ~loc:c.c_lhs.pat_loc
              "catch-all `try ... with _ ->`; name the exceptions this handler may swallow"
          (* A wildcard binder spelled [_exn] is the same catch-all wearing
             a name the unused-variable warning will not question. *)
          | Tpat_var (id, _), None when String.starts_with ~prefix:"_" (Ident.name id) ->
            report ~pass:"catch-all" ~loc:c.c_lhs.pat_loc
              (Printf.sprintf
                 "catch-all `try ... with %s ->`; name the exceptions this handler may swallow"
                 (Ident.name id))
          | _ -> ())
        cases
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rec find_cmts dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then find_cmts path acc
      else if Filename.check_suffix name ".cmt" then path :: acc
      else acc)
    acc (Sys.readdir dir)

type cmt_module = {
  m_cmt : string;  (** the [.cmt] path *)
  m_unit : string;  (** dune's unit name, e.g. "Tm_obs__Context" *)
  m_name : string;  (** the source module, e.g. "Context" *)
  m_file : string;  (** the source file, as reported *)
  m_str : Typedtree.structure;
}

let load_cmt path =
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str; cmt_sourcefile; cmt_modname; _ } ->
    let file = match cmt_sourcefile with Some f -> strip_dots f | None -> path in
    Some { m_cmt = path; m_unit = cmt_modname; m_name = short_unit cmt_modname; m_file = file; m_str = str }
  | _ -> None
  | exception _ ->
    prerr_endline ("analyze: warning: cannot read " ^ path);
    None

let cmti_of m = Filename.remove_extension m.m_cmt ^ ".cmti"

(* dune compiles an interface next to every implementation that has
   one; its generated library alias modules ([.ml-gen]) have no source
   to cover. *)
let pass_mli_coverage modules =
  List.iter
    (fun m ->
      if (not (Sys.file_exists (cmti_of m))) && Filename.check_suffix m.m_file ".ml" then
        findings :=
          {
            pass = "mli-coverage";
            file = m.m_file;
            line = 1;
            col = 0;
            message = Printf.sprintf "module has no interface file (%si expected)" m.m_file;
          }
          :: !findings)
    modules

(* unused-export: a [val] in an analyzed interface that no other
   compilation unit names. Modules are keyed by library through dune's
   unit names ("Tm_obs__Context" and the path "Tm_obs.Context" are both
   "Tm_obs.Context"), so two libraries' [Context]s stay apart. A unit's
   own references are local identifiers and never count. *)

(* The uses one unit makes: named values ("Tm_obs.Context.get") and
   modules used whole — a functor argument, an [include], a packed
   first-class module — whose every value counts as named. Module
   aliases ([module X = …], [let module X = …]) resolve to their
   target, so [X.f] names the target's [f]. *)
let collect_uses ~values ~whole (str : Typedtree.structure) =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let rec comps = function
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some c -> c
      | None -> unit_comps (Ident.name id))
    | Path.Pdot (p, s) -> comps p @ [ s ]
    | _ -> []
  in
  let rec alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let super = Tast_iterator.default_iterator in
  let bind it id_opt me =
    match (id_opt, alias_target me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) (comps p)
    | _ -> it.Tast_iterator.module_expr it me
  in
  let module_binding it (mb : Typedtree.module_binding) = bind it mb.mb_id mb.mb_expr in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pdot _ as p, _, _) -> Hashtbl.replace values (String.concat "." (comps p)) ()
    | Texp_letmodule (id, _, _, me, body) ->
      bind it id me;
      it.expr it body
    | _ -> super.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace whole (String.concat "." (comps p)) ()
    | _ -> ());
    super.module_expr it me
  in
  (* [open M] brings names into scope without using any. *)
  let open_declaration _ _ = () in
  let it = { super with expr; module_expr; module_binding; open_declaration } in
  it.structure it str

let pass_unused_export ~analyzed ~users =
  let values = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  List.iter (fun m -> collect_uses ~values ~whole m.m_str) users;
  List.iter
    (fun m ->
      let key = String.concat "." (unit_comps m.m_unit) in
      match Cmt_format.read_cmt (cmti_of m) with
      | { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } when not (Hashtbl.mem whole key) ->
        List.iter
          (fun (si : Typedtree.signature_item) ->
            match si.sig_desc with
            | Tsig_value vd when not (Hashtbl.mem values (key ^ "." ^ vd.val_name.txt)) ->
              report ~pass:"unused-export" ~loc:vd.val_loc
                (Printf.sprintf
                   "`%s.%s` is exported but no other compilation unit names it; delete it \
                    (or drop it from the interface)"
                   m.m_name vd.val_name.txt)
            | _ -> ())
          sg.sig_items
      | _ -> ()
      | exception Sys_error _ -> () (* no interface: mli-coverage reports it *))
    analyzed

let run ?(scope_all = false) roots =
  all_scopes := scope_all;
  findings := [];
  edges := [];
  call_evs := [];
  handler_evs := [];
  binding_contexts := [];
  Hashtbl.reset bindings;
  Hashtbl.reset global_mutexes;
  Hashtbl.reset ticket_globals;
  Hashtbl.reset label_cls;
  Hashtbl.reset site_strings;
  Hashtbl.reset wrappers;
  Hashtbl.reset fn_direct;
  Hashtbl.reset fn_calls;
  Hashtbl.reset type_decls;
  let cmts = List.concat_map (fun r -> find_cmts r []) roots |> List.sort_uniq String.compare in
  (* Modules outside lib/ are read for the uses unused-export counts
     alone. *)
  let users = List.filter_map load_cmt cmts in
  let modules = List.filter (fun m -> analyzed_scope m.m_file) users in
  (* Phase A: two sweeps, so wrappers can resolve cross-module lock
     classes collected in the first. *)
  List.iter (fun m -> collect_module ~curmod:m.m_name ~file:m.m_file m.m_str) modules;
  detect_wrappers ();
  (* Phase B: walk every toplevel binding. *)
  Hashtbl.iter
    (fun _ (b : binding) ->
      let curmod =
        match String.index_opt b.b_key '.' with
        | Some i -> String.sub b.b_key 0 i
        | None -> b.b_key
      in
      let ctx =
        {
          x_curmod = curmod;
          x_file = b.b_file;
          x_key = b.b_key;
          x_attrs = b.b_attrs;
          x_manual = [];
          x_fd_opens = [];
          x_fd_safe = false;
          x_fault_sites = [];
          x_raw_io = [];
        }
      in
      walk_binding ctx b.b_expr;
      binding_contexts := ctx :: !binding_contexts)
    bindings;
  (* Phase C *)
  pass_lock_order ();
  pass_domain_safety ();
  pass_resource_safety ();
  pass_typed_error ();
  pass_failpoint ();
  List.iter (fun m -> pass_source ~file:m.m_file m.m_str) modules;
  pass_mli_coverage modules;
  pass_unused_export ~analyzed:modules ~users;
  (List.sort_uniq finding_compare !findings, List.length modules)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pass_ids =
  [ "lock-order"; "domain-safety"; "resource-safety"; "typed-error"; "failpoint"; "poly-compare";
    "no-failwith"; "catch-all"; "mli-coverage"; "unused-export" ]

let write_sarif path fs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let result f =
        Printf.sprintf
          "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
          f.pass (json_escape f.message) (json_escape f.file) f.line (f.col + 1)
      in
      let rules =
        List.map (fun id -> Printf.sprintf "{\"id\":\"%s\"}" id) pass_ids |> String.concat ","
      in
      Printf.fprintf oc
        "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"tm-analyze\",\"rules\":[%s]}},\"results\":[%s]}]}\n"
        rules
        (String.concat "," (List.map result fs)))

let main argv =
  let rec parse roots json scope_all = function
    | [] -> Ok (List.rev roots, json, scope_all)
    | "--json" :: file :: rest -> parse roots (Some file) scope_all rest
    | "--json" :: [] -> Error "--json needs a file argument"
    | "--all-scopes" :: rest -> parse roots json true rest
    | r :: rest -> parse (r :: roots) json scope_all rest
  in
  match parse [] None false (List.tl argv) with
  | Error msg ->
    prerr_endline ("analyze: " ^ msg);
    2
  | Ok (roots, json, scope_all) ->
    let roots = if roots = [] then [ "lib" ] else roots in
    let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
    if missing <> [] then begin
      prerr_endline ("analyze: no such root: " ^ String.concat ", " missing);
      2
    end
    else begin
      let fs, nmodules = run ~scope_all roots in
      List.iter
        (fun f -> Printf.printf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.pass f.message)
        fs;
      (match json with Some path -> write_sarif path fs | None -> ());
      if fs = [] then begin
        Printf.printf "analyze: clean (%d passes over %d modules)\n" (List.length pass_ids)
          nmodules;
        0
      end
      else begin
        Printf.printf "analyze: %d finding(s) in %d modules\n" (List.length fs) nmodules;
        1
      end
    end
