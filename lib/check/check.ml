(** Offline invariant verifier (fsck) for the index family. See the
    interface for the catalogue of checks.

    All B+-tree pages are decoded {e raw} through {!Bptree.view_page}:
    the tree's decoded-node cache is deliberately bypassed, because a
    page corrupted behind the cache's back (the exact post-crash /
    bit-rot scenario an fsck exists for) would otherwise be invisible. *)

open Tm_storage
open Tm_xmldb
open Tm_index

type code =
  | Checksum
  | Page_bounds
  | Page_cycle
  | Page_decode
  | Key_order
  | Leaf_chain
  | Balance
  | Entry_count
  | Roundtrip
  | Key_decode
  | Idlist_codec
  | Idlist_order
  | Idlist_length
  | Missing_row
  | Extra_row
  | Edge_link
  | Catalog

let code_name = function
  | Checksum -> "checksum"
  | Page_bounds -> "page_bounds"
  | Page_cycle -> "page_cycle"
  | Page_decode -> "page_decode"
  | Key_order -> "key_order"
  | Leaf_chain -> "leaf_chain"
  | Balance -> "balance"
  | Entry_count -> "entry_count"
  | Roundtrip -> "roundtrip"
  | Key_decode -> "key_decode"
  | Idlist_codec -> "idlist_codec"
  | Idlist_order -> "idlist_order"
  | Idlist_length -> "idlist_length"
  | Missing_row -> "missing_row"
  | Extra_row -> "extra_row"
  | Edge_link -> "edge_link"
  | Catalog -> "catalog"

type location = { structure : string; page : int option; entry : int option; key : string option }
type violation = { code : code; loc : location; detail : string }
type summary = { structures : int; pages : int; entries : int }
type report = { violations : violation list; summary : summary }

let is_clean r = match r.violations with [] -> true | _ :: _ -> false

(* Observability: fsck work and findings are metrics like any other
   subsystem's, so a monitoring setup can alert on violations. *)
let c_structures = Tm_obs.Obs.counter "check.structures"
let c_pages = Tm_obs.Obs.counter "check.pages_checked"
let c_entries = Tm_obs.Obs.counter "check.entries_checked"
let c_violations = Tm_obs.Obs.counter "check.violations"

(* Violation accumulator: violations are appended in discovery order. *)
type acc = { mutable vs : violation list }

let add acc code ~structure ?page ?entry ?key detail =
  Tm_obs.Obs.incr c_violations;
  acc.vs <- { code; loc = { structure; page; entry; key }; detail } :: acc.vs

(* Stored keys are binary (designators, 0x00 separators); escape them
   for reports. *)
let printable_key k =
  let buf = Buffer.create (String.length k + 8) in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' && c <> '\\' && c <> '"' then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c)))
    k;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* B+-tree structural checks                                           *)
(* ------------------------------------------------------------------ *)

(* Walk [tree] from the root, checking structural invariants; returns
   the collected (page, slot, key, payload) entries (the raw multiset a
   semantic pass compares against ground truth), the pages seen, and
   whether the walk reached every page: [false] once it had to skip a
   page it could not read or follow, whose entries it then lacks. *)
let walk_tree acc tree =
  let structure = Bptree.name tree in
  let page_limit = Pager.page_count (Buffer_pool.pager (Bptree.pool tree)) in
  let visited = Hashtbl.create 64 in
  let collected = ref [] in
  (* leaves in DFS (= key) order: (page, entries, next) *)
  let leaves = ref [] in
  let pages_walked = ref 0 in
  let entry_total = ref 0 in
  let leaf_depth = ref (-1) in
  let complete = ref true in
  let skip code ~page detail =
    complete := false;
    add acc code ~structure ~page detail
  in
  let rec go page lo hi depth =
    if page < 0 || page >= page_limit then
      skip Page_bounds ~page (Printf.sprintf "page id outside pager range [0, %d)" page_limit)
    else if Hashtbl.mem visited page then skip Page_cycle ~page "page reachable twice in one walk"
    else begin
      Hashtbl.add visited page ();
      incr pages_walked;
      Tm_obs.Obs.incr c_pages;
      match Bptree.view_page tree page with
      | exception Pager.Corrupt_page { detail; _ } ->
        (* The page failed its CRC on the fault-in read. Report it and
           prune the walk here: its bytes are untrustworthy, and the
           checksum pass already covers the rest of the pager. *)
        skip Checksum ~page detail
      | Error m -> skip Page_decode ~page m
      | Ok view ->
        (* front-coding round-trip: the canonical re-encoding must equal
           the stored image (up to the pager's zero padding) *)
        let enc = Bptree.encode_view tree view in
        let img = Bptree.page_image tree page in
        let img_ok =
          String.length img >= String.length enc
          && String.equal (String.sub img 0 (String.length enc)) enc
          &&
          let rec zeros i = i >= String.length img || (img.[i] = '\x00' && zeros (i + 1)) in
          zeros (String.length enc)
        in
        if not img_ok then
          add acc Roundtrip ~structure ~page "stored image differs from canonical re-encoding";
        (match view with
        | Bptree.Leaf_view { entries; next } ->
          if !leaf_depth = -1 then leaf_depth := depth
          else if !leaf_depth <> depth then
            add acc Balance ~structure ~page
              (Printf.sprintf "leaf at depth %d, others at %d" depth !leaf_depth);
          Array.iteri
            (fun i (k, p) ->
              Tm_obs.Obs.incr c_entries;
              incr entry_total;
              (* duplicates may equal the separator key on either side *)
              (match lo with
              | Some b when String.compare k b < 0 ->
                add acc Key_order ~structure ~page ~entry:i ~key:(printable_key k)
                  "leaf key below the separator lower bound"
              | _ -> ());
              (match hi with
              | Some b when String.compare k b > 0 ->
                add acc Key_order ~structure ~page ~entry:i ~key:(printable_key k)
                  "leaf key above the separator upper bound"
              | _ -> ());
              if i > 0 && String.compare (fst entries.(i - 1)) k > 0 then
                add acc Key_order ~structure ~page ~entry:i ~key:(printable_key k)
                  "leaf entries out of order";
              collected := (page, i, k, p) :: !collected)
            entries;
          leaves := (page, entries, next) :: !leaves
        | Bptree.Internal_view { keys; children } ->
          Array.iteri
            (fun i k ->
              if i > 0 && String.compare keys.(i - 1) k > 0 then
                add acc Key_order ~structure ~page ~entry:i ~key:(printable_key k)
                  "internal separator keys out of order")
            keys;
          Array.iteri
            (fun i child ->
              let lo' = if i = 0 then lo else Some keys.(i - 1) in
              let hi' = if i = Array.length keys then hi else Some keys.(i) in
              go child lo' hi' (depth + 1))
            children)
    end
  in
  go (Bptree.root_page tree) None None 1;
  Tm_obs.Obs.incr c_structures;
  (* leaf chain: DFS leaf order must equal next-pointer order, and keys
     must not decrease across the chain *)
  let leaves = List.rev !leaves in
  let rec chain = function
    | [] -> ()
    | [ (page, _, next) ] -> (
      match next with
      | None -> ()
      | Some n when n < 0 || n >= page_limit ->
        add acc Page_bounds ~structure ~page
          (Printf.sprintf "next pointer %d outside pager range [0, %d)" n page_limit)
      | Some n ->
        add acc Leaf_chain ~structure ~page (Printf.sprintf "last leaf has next pointer %d" n))
    | (page, entries, next) :: ((page', entries', _) :: _ as rest) ->
      (match next with
      | Some n when n = page' -> ()
      | Some n when n < 0 || n >= page_limit ->
        add acc Page_bounds ~structure ~page
          (Printf.sprintf "next pointer %d outside pager range [0, %d)" n page_limit)
      | Some n ->
        add acc Leaf_chain ~structure ~page
          (Printf.sprintf "next pointer %d, but the following leaf is page %d" n page')
      | None ->
        add acc Leaf_chain ~structure ~page
          (Printf.sprintf "missing next pointer to leaf page %d" page'));
      (match (Array.length entries, Array.length entries') with
      | 0, _ | _, 0 -> ()
      | n, _ ->
        let last = fst entries.(n - 1) and first = fst entries'.(0) in
        if String.compare last first > 0 then
          add acc Leaf_chain ~structure ~page:page' ~key:(printable_key first)
            "first key below the previous leaf's last key");
      chain rest
  in
  chain leaves;
  (if !leaf_depth <> -1 && !leaf_depth <> Bptree.height tree then
     add acc Balance ~structure
       (Printf.sprintf "recorded height %d, observed %d" (Bptree.height tree) !leaf_depth));
  if !entry_total <> Bptree.entry_count tree then
    add acc Entry_count ~structure
      (Printf.sprintf "recorded %d entries, walk found %d" (Bptree.entry_count tree) !entry_total);
  (List.rev !collected, !pages_walked, !complete)

let check_tree tree =
  let acc = { vs = [] } in
  ignore (walk_tree acc tree);
  List.rev acc.vs

(* ------------------------------------------------------------------ *)
(* Checksum pass                                                       *)
(* ------------------------------------------------------------------ *)

(* Verify every stored page image against its sidecar CRC32, directly
   in the pager — below the buffer pool, so a page corrupted on "disk"
   behind a clean cached frame is still found. Read-only and no-op for
   a pager created with [checksums:false]. *)
let walk_pager acc pager =
  let structure = "pager" in
  let n = Pager.page_count pager in
  for page = 0 to n - 1 do
    if not (Pager.verify_page pager page) then
      add acc Checksum ~structure ~page "stored page image does not match its checksum"
  done;
  n

let check_pager pager =
  let acc = { vs = [] } in
  ignore (walk_pager acc pager);
  List.rev acc.vs

(* ------------------------------------------------------------------ *)
(* Semantic checks against the document                                *)
(* ------------------------------------------------------------------ *)

(* Diff a structure's walked (page, slot, key, payload) entries against
   the sorted (key, payload) multiset the document gives it: each row
   only the ground truth holds is [Missing_row], each row only the walk
   found is [Extra_row]. After an incomplete walk ([complete] false) the
   rows of the skipped pages would all read as missing, so none is
   reported; extra rows still are. [describe] renders a key for the
   detail. *)
let diff_rows acc ~structure ~describe ~complete expected walked =
  let actual =
    List.sort (fun (_, _, k1, p1) (_, _, k2, p2) -> Codec.compare_kv (k1, p1) (k2, p2)) walked
  in
  let missing k =
    if complete then
      add acc Missing_row ~structure ~key:(printable_key k)
        (Printf.sprintf "expected row absent (%s)" (describe k))
  in
  let extra page slot k =
    add acc Extra_row ~structure ~page ~entry:slot ~key:(printable_key k)
      (Printf.sprintf "stored row never produced by the document (%s)" (describe k))
  in
  let rec diff exp act =
    match (exp, act) with
    | [], [] -> ()
    | (k, _) :: exp', [] ->
      missing k;
      diff exp' []
    | [], (page, slot, k, _) :: act' ->
      extra page slot k;
      diff [] act'
    | ((ek, ep) :: exp' as exp), ((page, slot, ak, ap) :: act' as act) -> (
      match Codec.compare_kv (ek, ep) (ak, ap) with
      | 0 -> diff exp' act'
      | c when c < 0 ->
        missing ek;
        diff exp' act
      | _ ->
        extra page slot ak;
        diff exp act')
  in
  diff expected actual

(* ------------------------------------------------------------------ *)
(* Index-family semantic checks                                        *)
(* ------------------------------------------------------------------ *)

(* Verify one stored id chain against the edge table and region index:
   every id must carry the tag its schema position claims, be the child
   of its predecessor by both the backward link and region containment,
   and rooted chains must start at a level-1 node under the virtual
   root. An Edge-table page that fails its checksum on the way is listed
   once per structure in [corrupt] (the region index is in memory). *)
let check_links acc ~corrupt ~structure ~page ~entry ~key ~edge ~region ~head schema ids =
  let pkey = printable_key key in
  let tags = Schema_path.to_list schema in
  let anchored = match head with Some h -> h <> 0 | None -> false in
  (* head-anchored rows include the head's own tag in the schema but
     exclude the head from the id list (paper Figure 5) *)
  let tags_for_ids = if anchored then match tags with [] -> [] | _ :: t -> t else tags in
  if List.length tags_for_ids = List.length ids then begin
    let prev = ref (if anchored then head else None) in
    List.iter2
      (fun tag id ->
        (match Edge_table.node_record edge id with
        | exception Pager.Corrupt_page { page = bad; detail } ->
          if not (Hashtbl.mem corrupt bad) then begin
            Hashtbl.replace corrupt bad ();
            add acc Checksum ~structure ~page ~entry ~key:pkey
              (Printf.sprintf "edge table page %d: %s" bad detail)
          end
        | exception Invalid_argument m -> add acc Edge_link ~structure ~page ~entry ~key:pkey m
        | None ->
          add acc Edge_link ~structure ~page ~entry ~key:pkey
            (Printf.sprintf "id %d has no edge record" id)
        | Some (parent_id, _, own_tag, _) ->
          if own_tag <> tag then
            add acc Edge_link ~structure ~page ~entry ~key:pkey
              (Printf.sprintf "id %d has tag %d, schema position says %d" id own_tag tag);
          (match !prev with
          | Some p ->
            if parent_id <> p then
              add acc Edge_link ~structure ~page ~entry ~key:pkey
                (Printf.sprintf "id %d has parent %d, id chain says %d" id parent_id p);
            (match Region.is_parent region ~parent:p ~child:id with
            | true -> ()
            | false ->
              add acc Edge_link ~structure ~page ~entry ~key:pkey
                (Printf.sprintf "region index denies that %d is the parent of %d" p id)
            | exception Invalid_argument m ->
              add acc Edge_link ~structure ~page ~entry ~key:pkey m)
          | None -> (
            if parent_id <> 0 then
              add acc Edge_link ~structure ~page ~entry ~key:pkey
                (Printf.sprintf "rooted chain starts at %d whose parent is %d, not the virtual root"
                   id parent_id);
            match Region.level_of region id with
            | 1 -> ()
            | l ->
              add acc Edge_link ~structure ~page ~entry ~key:pkey
                (Printf.sprintf "rooted chain starts at %d at level %d" id l)
            | exception Invalid_argument m ->
              add acc Edge_link ~structure ~page ~entry ~key:pkey m)));
        prev := Some id)
      tags_for_ids ids
  end

let check_family acc fam ~dict ~catalog ~edge ~region doc =
  let tree = Family.tree fam in
  let structure = Bptree.name tree in
  let entries, pages, complete = walk_tree acc tree in
  let config = Family.config fam in
  let full = match config.Family.ids with Family.Full_idlist -> true | _ -> false in
  let corrupt = Hashtbl.create 4 in
  List.iter
    (fun (pageno, slot, key, payload) ->
      let page = Some pageno and entry = Some slot in
      let pkey = Some (printable_key key) in
      match Family.decode_idlist fam payload with
      | exception Invalid_argument m ->
        add acc Idlist_codec ~structure ?page ?entry ?key:pkey m
      | exception Failure m -> add acc Idlist_codec ~structure ?page ?entry ?key:pkey m
      | ids -> (
        if not (String.equal (Family.encode_idlist fam ids) payload) then
          add acc Idlist_codec ~structure ?page ?entry ?key:pkey
            "payload is not the canonical IdList encoding";
        let rec ordered = function
          | (a : int) :: (b :: _ as rest) -> a < b && ordered rest
          | _ -> true
        in
        if not (ordered ids) then
          add acc Idlist_order ~structure ?page ?entry ?key:pkey
            "decoded ids are not strictly increasing";
        match Family.decode_entry_key fam key with
        | exception Invalid_argument m -> add acc Key_decode ~structure ?page ?entry ?key:pkey m
        | exception Failure m -> add acc Key_decode ~structure ?page ?entry ?key:pkey m
        | head, _value, schema ->
          let anchored = match head with Some h -> h <> 0 | None -> false in
          (* |IdList| = |SchemaPath| (Section 3.1); head-anchored rows
             store one id fewer, their head being named by the key *)
          let expected =
            if anchored then Schema_path.length schema - 1 else Schema_path.length schema
          in
          (if full then begin
             if List.length ids <> expected then
               add acc Idlist_length ~structure ?page ?entry ?key:pkey
                 (Printf.sprintf "IdList has %d ids, schema path of length %d requires %d"
                    (List.length ids) (Schema_path.length schema) expected)
           end
           else if List.length ids > 1 then
             add acc Idlist_length ~structure ?page ?entry ?key:pkey
               (Printf.sprintf "id-sublist member stores %d ids" (List.length ids)));
          if (not anchored) && Option.is_none (Schema_catalog.find catalog schema) then
            add acc Catalog ~structure ?page ?entry ?key:pkey
              (Printf.sprintf "rooted schema path %s is not in the catalog"
                 (Schema_path.to_string dict schema));
          if full && List.length ids = expected then
            check_links acc ~corrupt ~structure ~page:pageno ~entry:slot ~key ~edge ~region ~head
              schema ids))
    entries;
  (* semantic ground truth: the member must hold exactly the (key,
     payload) multiset the document's 4-ary relation produces under its
     layout (ROOTPATHS = root-to-leaf prefixes, DATAPATHS = subpath
     closure, paper Section 3.2) *)
  let describe key =
    match Family.decode_entry_key fam key with
    | exception Invalid_argument _ | exception Failure _ -> "undecodable key"
    | _, value, schema ->
      Printf.sprintf "schema %s, value %s"
        (Schema_path.to_string dict schema)
        (match value with None -> "null" | Some v -> Printf.sprintf "%S" v)
  in
  diff_rows acc ~structure ~describe ~complete (Family.expected_entries fam ~dict doc) entries;
  pages

(* ------------------------------------------------------------------ *)
(* Whole-database verification                                         *)
(* ------------------------------------------------------------------ *)

let check_database (db : Twigmatch.Database.t) =
  Tm_obs.Obs.with_span "fsck" (fun () ->
      let acc = { vs = [] } in
      let structures = ref 0 in
      let pages = ref 0 in
      let entries = ref 0 in
      let count_tree tree =
        incr structures;
        let es, ps, complete = walk_tree acc tree in
        pages := !pages + ps;
        entries := !entries + List.length es;
        (es, complete)
      in
      (* checksum pass first: it points at damaged pages even when the
         structural walks above them cannot proceed *)
      ignore (walk_pager acc db.Twigmatch.Database.pager);
      let region = Region.build db.Twigmatch.Database.doc in
      let edge = db.Twigmatch.Database.edge in
      let dict = db.Twigmatch.Database.dict in
      let catalog = db.Twigmatch.Database.catalog in
      let doc = db.Twigmatch.Database.doc in
      (* the Edge relation: each of its three indices must hold exactly
         the entries the document's Edge tuples give it *)
      List.iter
        (fun (tree, expected) ->
          let walked, complete = count_tree tree in
          diff_rows acc ~structure:(Bptree.name tree) ~describe:(Fun.const "Edge tuple") ~complete
            expected walked)
        (Edge_table.expected_entries edge dict doc);
      (* family members: full structural + codec + semantic checks *)
      let check_fam fam =
        incr structures;
        pages := !pages + check_family acc fam ~dict ~catalog ~edge ~region doc;
        entries := !entries + Family.entry_count fam
      in
      Option.iter check_fam db.Twigmatch.Database.rootpaths;
      Option.iter check_fam db.Twigmatch.Database.datapaths;
      Option.iter check_fam db.Twigmatch.Database.dataguide;
      Option.iter check_fam db.Twigmatch.Database.index_fabric;
      (* ASR / Join Index baselines: per-relation structural checks *)
      let count_trees trees = List.iter (fun tree -> ignore (count_tree tree)) trees in
      Option.iter (fun a -> count_trees (Asr.trees a)) db.Twigmatch.Database.asr_rels;
      Option.iter (fun j -> count_trees (Join_index.trees j)) db.Twigmatch.Database.ji;
      {
        violations = List.rev acc.vs;
        summary = { structures = !structures; pages = !pages; entries = !entries };
      })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let location_to_string loc =
  let parts = [ loc.structure ] in
  let parts = match loc.page with Some p -> Printf.sprintf "page %d" p :: parts | None -> parts in
  let parts =
    match loc.entry with Some e -> Printf.sprintf "entry %d" e :: parts | None -> parts
  in
  let parts = match loc.key with Some k -> Printf.sprintf "key \"%s\"" k :: parts | None -> parts in
  String.concat " " (List.rev parts)

let report_to_string r =
  let head =
    Printf.sprintf "fsck: %s — %d structures, %d pages, %d entries checked"
      (match r.violations with
      | [] -> "clean"
      | vs -> Printf.sprintf "%d violation(s)" (List.length vs))
      r.summary.structures r.summary.pages r.summary.entries
  in
  let line v =
    Printf.sprintf "[%s] %s: %s" (code_name v.code) (location_to_string v.loc) v.detail
  in
  String.concat "\n" (head :: List.map line r.violations)

let json_string = Tm_obs.Export.json_string
let json_opt_int = function Some i -> string_of_int i | None -> "null"
let json_opt_string = function Some s -> json_string s | None -> "null"

let report_to_json r =
  let violation v =
    Printf.sprintf "{\"code\":%s,\"structure\":%s,\"page\":%s,\"entry\":%s,\"key\":%s,\"detail\":%s}"
      (json_string (code_name v.code))
      (json_string v.loc.structure) (json_opt_int v.loc.page) (json_opt_int v.loc.entry)
      (json_opt_string v.loc.key) (json_string v.detail)
  in
  Printf.sprintf "{\"clean\":%b,\"summary\":{\"structures\":%d,\"pages\":%d,\"entries\":%d},\"violations\":[%s]}"
    (is_clean r) r.summary.structures r.summary.pages r.summary.entries
    (String.concat "," (List.map violation r.violations))
