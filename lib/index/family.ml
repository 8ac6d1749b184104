(** The unified family of path indices (paper Section 3, Figure 3).

    A family member is determined by three choices over the 4-ary
    relation [(HeadId, SchemaPath, LeafValue, IdList)]:

    + which subset of schema paths is stored ({!path_subset});
    + which sublist of the IdList is stored ({!id_sublist});
    + which columns are indexed, and in what order, including whether
      the schema path is stored forward, reversed, or
      dictionary-encoded as an opaque path id ({!component}).

    Instances provided as ready-made configurations:

    - {!dataguide}:    root prefixes,  last id,  key = SchemaPath
    - {!index_fabric}: root-to-leaf,   last id,  key = SchemaPath · LeafValue
    - {!rootpaths}:    root prefixes,  full,     key = LeafValue · reverse(SchemaPath)
    - {!datapaths}:    all subpaths,   full,     key = HeadId · LeafValue · reverse(SchemaPath)

    (The Lore value / forward-link / backward-link indices — length-one
    paths — are realized by {!Tm_xmldb.Edge_table}, whose indices are
    the degenerate members of the family.)

    Lossless and lossy compressions of Section 4 are build options:
    differential IdList encoding (on by default, [`Raw] for the
    ablation), [Schema_id] keys (the Section 4.2 dictionary encoding
    that forfeits [//] support), a [head_filter] (Section 4.3 HeadId
    pruning), and an [id_keep] filter (Section 4.1 IdList pruning). *)

open Tm_storage
open Tm_xmldb

type path_subset =
  | Root_prefixes  (** prefixes of root-to-leaf paths (HeadId = virtual root) *)
  | Root_to_leaf_only  (** only paths reaching a leaf value *)
  | All_subpaths  (** every (ancestor-or-self head, descendant) subpath *)

type id_sublist = Last_id | First_id | Full_idlist

type component =
  | Head  (** fixed-width big-endian head id *)
  | Value  (** escaped leaf value; null encodes as the empty component *)
  | Schema_fwd  (** designator string, root-to-leaf order *)
  | Schema_rev  (** designator string, leaf-to-root order (suffix matching) *)
  | Schema_id  (** catalog path id — Section 4.2 compression; no [//] *)

type config = {
  cfg_name : string;
  paths : path_subset;
  ids : id_sublist;
  key : component list;
}

let dataguide = { cfg_name = "dataguide"; paths = Root_prefixes; ids = Last_id; key = [ Schema_fwd ] }

let index_fabric =
  { cfg_name = "index_fabric"; paths = Root_to_leaf_only; ids = Last_id; key = [ Schema_fwd; Value ] }

let rootpaths =
  { cfg_name = "rootpaths"; paths = Root_prefixes; ids = Full_idlist; key = [ Value; Schema_rev ] }

let datapaths =
  {
    cfg_name = "datapaths";
    paths = All_subpaths;
    ids = Full_idlist;
    key = [ Head; Value; Schema_rev ];
  }

(** Section 4.2 variants: schema paths dictionary-encoded to opaque ids. *)
let rootpaths_schema_compressed =
  { rootpaths with cfg_name = "rootpaths_sc"; key = [ Value; Schema_id ] }

let datapaths_schema_compressed =
  { datapaths with cfg_name = "datapaths_sc"; key = [ Head; Value; Schema_id ] }

type t = {
  config : config;
  tree : Bptree.t;
  catalog : Schema_catalog.t;  (** for [Schema_id] resolution and [//] expansion *)
  raw_idlists : bool;
  head_filter : (int -> bool) option;  (** Section 4.3 pruning, kept for updates *)
  id_keep : (Path_relation.row -> int list -> int list) option;  (** Section 4.1 pruning *)
}

let tree t = t.tree
let config t = t.config
let size_bytes t = Bptree.size_bytes t.tree
let entry_count t = Bptree.entry_count t.tree

(* ------------------------------------------------------------------ *)
(* Key building                                                        *)
(* ------------------------------------------------------------------ *)

let sep = String.make 1 Codec.key_sep

let component_string t (row : Path_relation.row) = function
  | Head -> Codec.u32_to_string row.Path_relation.head
  | Value -> Codec.encode_value row.Path_relation.value
  | Schema_fwd -> Schema_path.encode row.Path_relation.schema
  | Schema_rev -> Schema_path.encode_reversed row.Path_relation.schema
  | Schema_id -> (
    (* marker byte disambiguates catalog ids from literal encodings of
       non-rooted subpaths (which have no catalog id) *)
    match Schema_catalog.find t.catalog row.Path_relation.schema with
    | Some e -> "\x01" ^ Codec.u32_to_string e.Schema_catalog.path_id
    | None -> "\x03" ^ Schema_path.encode row.Path_relation.schema)

let key_of_row t row = String.concat sep (List.map (component_string t row) t.config.key)

let stored_ids config (row : Path_relation.row) =
  match (config.ids, row.Path_relation.idlist) with
  | Full_idlist, ids -> ids
  | Last_id, [] | First_id, [] -> []
  | Last_id, ids -> [ List.nth ids (List.length ids - 1) ]
  | First_id, id :: _ -> [ id ]

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

(** Build a family member over [doc].

    @param idlist_codec [`Delta] (default, Section 4.1 lossless
      compression) or [`Raw] for the ablation.
    @param head_filter keep only rows whose head satisfies the
      predicate (Section 4.3 HeadId pruning; the virtual root is always
      kept so FreeIndex still works).
    @param id_keep per-row IdList pruning (Section 4.1): receives the
      row, returns the ids to keep. Default keeps all. *)
(* The (key, payload) a row stores under this member's layout, or [None]
   when the member's path subset / pruning filters exclude it. *)
let entry_of_row t (row : Path_relation.row) =
  let keep_head =
    match t.head_filter with None -> true | Some f -> row.Path_relation.head = 0 || f row.Path_relation.head
  in
  let keep_row =
    match t.config.paths with
    | Root_to_leaf_only -> Option.is_some row.Path_relation.value
    | Root_prefixes | All_subpaths -> true
  in
  if not (keep_head && keep_row) then None
  else begin
    let ids = stored_ids t.config row in
    let ids = match t.id_keep with None -> ids | Some f -> f row ids in
    let payload =
      if t.raw_idlists then Codec.idlist_raw_to_string ids else Codec.idlist_to_string ids
    in
    Some (key_of_row t row, payload)
  end

(* Rows a single node contributes under this member's path subset. *)
let rows_of_node t info =
  match t.config.paths with
  | Root_prefixes | Root_to_leaf_only -> Path_relation.node_root_rows info
  | All_subpaths -> Path_relation.node_all_rows info

(** Incremental maintenance: add / remove the entries of one node (used
    by {!Twigmatch.Updates}; the bulk path is {!build}). *)
let insert_node t info =
  List.iter
    (fun row ->
      match entry_of_row t row with
      | Some (key, payload) -> Bptree.insert t.tree key payload
      | None -> ())
    (rows_of_node t info)

let remove_node t info =
  List.iter
    (fun row ->
      match entry_of_row t row with
      | Some (key, payload) -> ignore (Bptree.delete t.tree key payload)
      | None -> ())
    (rows_of_node t info)

(** The sorted (key, payload) multiset this member must hold for [doc]
    under its layout and pruning options — [build]'s bulk-load input,
    recomputable after the fact as the fsck ground truth. *)
let expected_entries t ~dict doc =
  let add acc row = match entry_of_row t row with Some entry -> entry :: acc | None -> acc in
  let entries =
    match t.config.paths with
    | Root_prefixes | Root_to_leaf_only -> Path_relation.fold_root_rows doc dict add []
    | All_subpaths -> Path_relation.fold_all_rows doc dict add []
  in
  List.sort Codec.compare_kv entries

(* Merge two runs sorted by [Codec.compare_kv]. Hand-rolled because
   stdlib [List.merge] is not tail-recursive and DATAPATHS runs reach
   hundreds of thousands of entries. *)
let merge_kv a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
      if Codec.compare_kv x y <= 0 then go a' b (x :: acc) else go a b' (y :: acc)
  in
  go a b []

(* Balanced pairwise rounds: O(n log k) for k runs. *)
let rec merge_runs = function
  | [] -> []
  | [ r ] -> r
  | runs ->
    let rec pair acc = function
      | a :: b :: rest -> pair (merge_kv a b :: acc) rest
      | [ a ] -> a :: acc
      | [] -> acc
    in
    merge_runs (pair [] runs)

(* Parallel variant of {!expected_entries}: partition the document's
   nodes (each carrying its root-to-leaf id path) across the pool, have
   every chunk generate and sort its own entries, then merge the sorted
   runs. [Codec.compare_kv] is a total order on (key, payload), so the
   merged result is exactly the sequential sort — bulk-load input and
   fsck ground truth stay byte-identical. The shred pass itself remains
   sequential because it interns tags into the dictionary. *)
let par_entries par t ~dict doc =
  let nodes = List.rev (Shred.fold_nodes doc dict (fun acc info -> info :: acc) []) in
  let entries_of_chunk chunk =
    let add acc row = match entry_of_row t row with Some e -> e :: acc | None -> acc in
    let entries =
      List.fold_left (fun acc info -> List.fold_left add acc (rows_of_node t info)) [] chunk
    in
    List.sort Codec.compare_kv entries
  in
  merge_runs (Tm_par.Pool.map_chunked par entries_of_chunk nodes)

let build ?(idlist_codec = `Delta) ?(prefix_compression = true) ?head_filter ?id_keep ?par ~pool
    ~dict ~catalog config doc =
  let t =
    {
      config;
      tree = Bptree.create ~name:config.cfg_name pool;
      catalog;
      raw_idlists = (match idlist_codec with `Raw -> true | `Delta -> false);
      head_filter;
      id_keep;
    }
  in
  let entries =
    match par with
    | Some p when Tm_par.Pool.jobs p > 1 -> par_entries p t ~dict doc
    | Some _ | None -> expected_entries t ~dict doc
  in
  let tree = Bptree.bulk_load ~prefix_compression ~name:config.cfg_name pool entries in
  { t with tree }

(* ------------------------------------------------------------------ *)
(* Probing                                                             *)
(* ------------------------------------------------------------------ *)

type schema_probe =
  | Exact of Schema_path.t  (** the full (head-anchored) schema path *)
  | Suffix of Schema_path.t  (** paths ending with these tags ([//] head) *)
  | Any_schema

type hit = {
  h_schema : Schema_path.t;  (** decoded schema path of the matching row *)
  h_value : string option;
  h_ids : int list;  (** the stored id sublist *)
}

exception Unsupported of string

let decode_ids t payload =
  if t.raw_idlists then Codec.idlist_raw_of_string payload else Codec.idlist_of_string payload

(* Decode a key back into (head, value, schema) following the layout.
   The decode is positional — [Head] and [Schema_id] are fixed-width and
   may contain 0x00 bytes, so keys cannot simply be split on the
   separator; variable-width components ([Value], designator strings)
   are 0x00-free by construction and end at the next separator. *)
let decode_key t key =
  let n = String.length key in
  let until_sep pos =
    let rec go i = if i < n && key.[i] <> Codec.key_sep then go (i + 1) else i in
    let stop = go pos in
    (String.sub key pos (stop - pos), stop)
  in
  let skip_sep pos = if pos < n && key.[pos] = Codec.key_sep then pos + 1 else pos in
  let rec go comps pos (head, value, schema) =
    match comps with
    | [] -> (head, value, schema)
    | Head :: cs ->
      if pos + 4 > n then invalid_arg "Family.decode_key: truncated head";
      let h = fst (Codec.read_u32 key pos) in
      go cs (skip_sep (pos + 4)) (Some h, value, schema)
    | Value :: cs ->
      let p, stop = until_sep pos in
      go cs (skip_sep stop) (head, Codec.decode_value p, schema)
    | Schema_fwd :: cs ->
      let p, stop = until_sep pos in
      go cs (skip_sep stop) (head, value, Schema_path.decode p)
    | Schema_rev :: cs ->
      let p, stop = until_sep pos in
      go cs (skip_sep stop) (head, value, Schema_path.decode_reversed p)
    | Schema_id :: cs ->
      let schema =
        match key.[pos] with
        | '\x01' ->
          let pid = fst (Codec.read_u32 key (pos + 1)) in
          (match
             List.find_opt
               (fun e -> e.Schema_catalog.path_id = pid)
               (Schema_catalog.entries t.catalog)
           with
          | Some e -> e.Schema_catalog.path
          | None -> Schema_path.empty)
        | '\x03' -> Schema_path.decode (String.sub key (pos + 1) (n - pos - 1))
        | _ -> invalid_arg "Family.decode_key: bad schema-id marker"
      in
      go cs n (head, value, schema)
  in
  go t.config.key 0 (None, None, Schema_path.empty)

let decode_entry_key = decode_key
let decode_idlist = decode_ids

let encode_idlist t ids =
  if t.raw_idlists then Codec.idlist_raw_to_string ids else Codec.idlist_to_string ids

(* Build the scan bounds for a probe. Components before the schema
   component must be fully specified; the schema component itself may be
   a prefix (Suffix probes on Schema_rev). *)
let scan_prefix t ?head ?(value : string option option) schema =
  (* A member built with HeadId pruning (Section 4.3) silently dropped
     every row whose head the filter rejected: probing it with such a
     head would return an empty — and wrong — answer. Refuse instead,
     so the executor can fall back to a complete member. Head 0 (the
     virtual root) is never pruned at build time. *)
  (match (head, t.head_filter) with
  | Some h, Some f when h <> 0 && not (f h) ->
    raise
      (Unsupported
         (t.config.cfg_name ^ ": head id pruned at build time (Section 4.3), index is lossy here"))
  | _ -> ());
  let comp_prefix = Buffer.create 32 in
  let exact = ref true in
  let emit s = if !exact then Buffer.add_string comp_prefix s in
  let stop () = exact := false in
  List.iteri
    (fun i comp ->
      if !exact then begin
        if i > 0 then Buffer.add_string comp_prefix sep;
        match comp with
        | Head -> (
          match head with
          | Some h -> emit (Codec.u32_to_string h)
          | None -> raise (Unsupported (t.config.cfg_name ^ ": probe requires a head id")))
        | Value -> (
          match value with
          | Some v -> emit (Codec.encode_value v)
          | None -> stop ())
        | Schema_fwd -> (
          match schema with
          | Exact p -> emit (Schema_path.encode p)
          | Suffix _ ->
            raise (Unsupported (t.config.cfg_name ^ ": forward schema keys cannot match suffixes"))
          | Any_schema -> stop ())
        | Schema_rev -> (
          match schema with
          | Exact p -> emit (Schema_path.encode_reversed p)
          | Suffix p ->
            emit (Schema_path.encode_reversed p);
            stop () (* prefix of the reversed path: anything may follow *)
          | Any_schema -> stop ())
        | Schema_id -> (
          match schema with
          | Exact p -> (
            match Schema_catalog.find t.catalog p with
            | Some e -> emit ("\x01" ^ Codec.u32_to_string e.Schema_catalog.path_id)
            | None -> emit ("\x03" ^ Schema_path.encode p))
          | Suffix _ ->
            raise (Unsupported (t.config.cfg_name ^ ": schema-id keys cannot match suffixes (no //)"))
          | Any_schema -> stop ())
      end)
    t.config.key;
  (Buffer.contents comp_prefix, !exact)

(* Scan the index for rows matching the probe, folding [f] over hits.
   One call = one index lookup in the paper's accounting; see the .mli
   for the probe parameter semantics. *)
(** One bound of a value-range probe: (value, inclusive). *)
type vbound = string * bool

let bound_ok ~is_lo (b : vbound option) v =
  match b with
  | None -> true
  | Some (bv, inc) ->
    let c = String.compare v bv in
    if is_lo then if inc then c >= 0 else c > 0 else if inc then c <= 0 else c < 0

(* Accounting: a probe is one index lookup (charged before the probe is
   validated, so a lossy member refusing it still counts), and each hit
   handed to the caller is one entry scanned, both on the calling
   domain's query cost record; a span per probe lets EXPLAIN ANALYZE
   attribute B+-tree and buffer-pool work to the index that caused it
   (its name built only while a trace is being captured). *)
let probed t f =
  if Tm_obs.Obs.in_trace () then Tm_obs.Obs.with_span ("probe:" ^ t.config.cfg_name) f else f ()

let start_probe () =
  let q = Tm_exec.Stats.current () in
  q.Tm_exec.Stats.index_lookups <- q.Tm_exec.Stats.index_lookups + 1;
  q

let hit (q : Tm_exec.Stats.t) f acc h =
  q.Tm_exec.Stats.entries_scanned <- q.Tm_exec.Stats.entries_scanned + 1;
  f acc h

(** Range scan over the [Value] component: rows whose (non-null) value
    lies within the bounds and whose schema matches the probe. The
    member's key must contain [Value] (ROOTPATHS, DATAPATHS, Index
    Fabric); value-first key order makes the scan contiguous up to the
    prefix-extension false positives the post-filter removes.
    @raise Unsupported when the key layout lacks a [Value] component. *)
let scan_value_range t ?head ~lo ~hi ~schema f acc =
  let q = start_probe () in
  if not (List.exists (function Value -> true | _ -> false) t.config.key) then
    raise (Unsupported (t.config.cfg_name ^ ": no value component to range-scan"));
  (* the prefix up to (excluding) the value component: probe with an
     unconstrained value, which stops emission there *)
  let prefix, _ = scan_prefix t ?head schema in
  let lo_key =
    match lo with
    | Some (v, _) -> prefix ^ Codec.encode_value (Some v)
    | None -> prefix ^ "\x02" (* smallest non-null value component *)
  in
  let hi_key =
    match hi with
    | Some (v, _) -> Codec.prefix_successor (prefix ^ Codec.encode_value (Some v))
    | None -> Codec.prefix_successor prefix
  in
  let fold_f acc key payload =
    let _, v, s = decode_key t key in
    let value_ok =
      match v with
      | None -> false
      | Some v -> bound_ok ~is_lo:true lo v && bound_ok ~is_lo:false hi v
    in
    let schema_ok =
      match schema with
      | Exact p -> Schema_path.equal s p
      | Suffix p -> Schema_path.has_suffix s p
      | Any_schema -> true
    in
    if value_ok && schema_ok then
      hit q f acc { h_schema = s; h_value = v; h_ids = decode_ids t payload }
    else acc
  in
  probed t (fun () -> Bptree.fold_range t.tree ~lo:lo_key ~hi:hi_key fold_f acc)

let scan t ?head ?value ~schema f acc =
  let q = start_probe () in
  let prefix, was_exact = scan_prefix t ?head ?value schema in
  let fold_f acc key payload =
    let _, v, s = decode_key t key in
    let value_ok =
      (* When the scan prefix stopped before the Value component, enforce
         the value constraint on decoded hits. *)
      match value with None -> true | Some v' -> Option.equal String.equal v v'
    in
    let schema_ok =
      (* Scans whose prefix was cut short of the schema component still
         return only matching rows thanks to this filter. *)
      match schema with
      | Exact p -> Schema_path.equal s p
      | Suffix p -> Schema_path.has_suffix s p
      | Any_schema -> true
    in
    if value_ok && schema_ok then
      hit q f acc { h_schema = s; h_value = v; h_ids = decode_ids t payload }
    else acc
  in
  probed t (fun () ->
      if was_exact then
        (* fully-specified key: equality scan (keys have a fixed component
           count, so nothing real lies in [key, key ^ sep)) *)
        Bptree.fold_range t.tree ~lo:prefix ~hi:(Some (prefix ^ sep)) fold_f acc
      else Bptree.fold_prefix t.tree ~prefix fold_f acc)
