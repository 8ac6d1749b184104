(** Incremental updates — the paper's Section 7 future work.

    Inserting or deleting a subtree must touch one index entry per
    (node, structure) pair: the Edge table and statistics, the schema
    catalog, every built family member (ROOTPATHS inserts all prefixes
    of the new paths, DATAPATHS all subpaths — the update cost the
    paper warns about), and the ASR / Join-Index baselines. The paper's
    own observation is used for lookups: the indexed ancestor chain
    (here: backward-link climbs) locates the affected rooted path in
    O(depth) probes rather than a document scan.

    Fresh nodes receive ids beyond every existing id. Ids serve only as
    identities in this system (joins compare them for equality), so
    insertion does not disturb pre-order properties queries rely on. *)

open Tm_xmldb
open Tm_index
module T = Tm_xml.Xml_tree

exception Writer_conflict of string

let () =
  Printexc.register_printer (function
    | Writer_conflict s -> Some (Printf.sprintf "Writer_conflict(%s)" s)
    | _ -> None)

(* Live durable handles as (directory, database) pairs: one writer per
   directory (by canonical path) and per database (physically). An
   owned database takes updates only inside its handle's logged
   transaction, whose writer is the calling domain; anything else would
   bypass the WAL and the epoch versions pinned readers rely on. Kept
   here, outside {!Database.t}, so ownership never reaches a snapshot. *)
let owners : (string * Database.t) list Atomic.t = Atomic.make []

let rec claim_durable ~dir (db : Database.t) =
  let cur = Atomic.get owners in
  if List.exists (fun (d, o) -> String.equal d dir || o == db) cur then
    raise
      (Writer_conflict
         (dir ^ ": the directory or the database already has a live Durable handle; close it"))
  else if not (Atomic.compare_and_set owners cur ((dir, db) :: cur)) then claim_durable ~dir db

let rec release_durable (db : Database.t) =
  let cur = Atomic.get owners in
  if not (Atomic.compare_and_set owners cur (List.filter (fun (_, o) -> o != db) cur)) then
    release_durable db

let check_writer fn (db : Database.t) =
  if
    List.exists (fun (_, o) -> o == db) (Atomic.get owners)
    && not (Tm_storage.Pager.in_txn_writer db.Database.pager)
  then
    raise
      (Writer_conflict
         (fn ^ ": the database has a live Durable handle; update it through the handle"))

(* Rooted id chain of a node, via backward-link climbs (O(depth)). *)
let id_chain (db : Database.t) id =
  let rec climb acc id =
    if id = 0 then acc
    else
      match Edge_table.parent_of db.Database.edge id with
      | Some (p, _, _) -> climb (id :: acc) p
      | None -> invalid_arg (Printf.sprintf "Updates: unknown node id %d" id)
  in
  climb [] id

(* Tree nodes along a rooted id chain (root first). *)
let nodes_of_chain (db : Database.t) chain =
  let child_with_id (children : T.node array) id =
    match Array.find_opt (fun (c : T.node) -> c.T.id = id) children with
    | Some c -> c
    | None -> invalid_arg "Updates: tree out of sync with Edge table"
  in
  match chain with
  | [] -> []
  | root_id :: rest ->
    let root = child_with_id db.Database.doc.T.roots root_id in
    let rec descend acc node = function
      | [] -> List.rev (node :: acc)
      | id :: rest -> descend (node :: acc) (child_with_id node.T.children id) rest
    in
    descend [] root rest

(* Shred a (sub)tree anchored below known rooted tags/ids, producing one
   node_info per element/attribute node in document order. *)
let shred_subtree (db : Database.t) ~rev_tags ~rev_ids ~parent_id ~parent_tag node =
  let infos = ref [] in
  let rec go ~rev_tags ~rev_ids ~parent_id ~parent_tag (n : T.node) =
    match n.T.label with
    | T.Value _ -> ()
    | T.Elem name | T.Attr name ->
      let tag = Dictionary.intern db.Database.dict name in
      let rev_tags = tag :: rev_tags in
      let rev_ids = n.T.id :: rev_ids in
      infos :=
        {
          Shred.id = n.T.id;
          tag;
          parent_id;
          parent_tag;
          path = Schema_path.of_list (List.rev rev_tags);
          ids = Array.of_list (List.rev rev_ids);
          value = T.leaf_value n;
        }
        :: !infos;
      Array.iter (go ~rev_tags ~rev_ids ~parent_id:n.T.id ~parent_tag:tag) n.T.children
  in
  go ~rev_tags ~rev_ids ~parent_id ~parent_tag node;
  List.rev !infos

(* Apply one node's index maintenance across every built structure. *)
let apply (db : Database.t) ~insert info =
  let family f = if insert then Family.insert_node f info else Family.remove_node f info in
  if insert then Edge_table.insert_node db.Database.edge info
  else Edge_table.remove_node db.Database.edge info;
  if insert then Schema_catalog.record db.Database.catalog info
  else Schema_catalog.unrecord db.Database.catalog info;
  Option.iter family db.Database.rootpaths;
  Option.iter family db.Database.datapaths;
  Option.iter family db.Database.dataguide;
  Option.iter family db.Database.index_fabric;
  Option.iter
    (fun a -> if insert then Asr.insert_node a info else Asr.remove_node a info)
    db.Database.asr_rels;
  Option.iter
    (fun j -> if insert then Join_index.insert_node j info else Join_index.remove_node j info)
    db.Database.ji

(* Assign fresh ids to a subtree in pre-order; value leaves keep no_id. *)
let rec assign_ids (db : Database.t) (n : T.node) =
  match n.T.label with
  | T.Value _ -> n.T.id <- T.no_id
  | T.Elem _ | T.Attr _ ->
    n.T.id <- db.Database.next_id;
    db.Database.next_id <- db.Database.next_id + 1;
    Array.iter (assign_ids db) n.T.children

(** [insert_subtree db ~parent subtree] attaches [subtree] (built with
    {!Tm_xml.Xml_tree.elem} and friends; any ids it carries are
    discarded) as the last child of the node with id [parent], updates
    every built index, and returns the subtree root's new id.

    @raise Invalid_argument if [parent] is unknown or is the virtual
    root (insert a new document by building a new database). *)
let insert_subtree (db : Database.t) ~parent (subtree : T.node) =
  check_writer "Updates.insert_subtree" db;
  if parent = 0 then invalid_arg "Updates.insert_subtree: cannot attach at the virtual root";
  if T.is_value subtree then invalid_arg "Updates.insert_subtree: subtree root must be an element";
  let chain = id_chain db parent in
  let path_nodes = nodes_of_chain db chain in
  let parent_node =
    match List.rev path_nodes with n :: _ -> n | [] -> assert false
  in
  (* rooted context of the parent *)
  let rev_ids = List.rev chain in
  let rev_tags =
    List.rev_map
      (fun (n : T.node) -> Dictionary.intern db.Database.dict (T.label_name n))
      path_nodes
  in
  assign_ids db subtree;
  parent_node.T.children <- Array.append parent_node.T.children [| subtree |];
  let parent_tag = match rev_tags with t :: _ -> t | [] -> -1 in
  let infos = shred_subtree db ~rev_tags ~rev_ids ~parent_id:parent ~parent_tag subtree in
  List.iter (apply db ~insert:true) infos;
  Database.note_index_change db;
  subtree.T.id

(** [delete_subtree db id] detaches the node with id [id] (and its
    whole subtree) from the document and removes its entries from every
    built index. Returns the number of element/attribute nodes removed.

    @raise Invalid_argument if [id] is unknown or is a document root. *)
let delete_subtree (db : Database.t) id =
  check_writer "Updates.delete_subtree" db;
  let chain = id_chain db id in
  if List.length chain < 2 then
    invalid_arg "Updates.delete_subtree: cannot delete a document root";
  let path_nodes = nodes_of_chain db chain in
  let target, parent_node =
    match List.rev path_nodes with
    | t :: p :: _ -> (t, p)
    | _ -> assert false
  in
  (* rooted context of the target = chain/tags up to its parent *)
  let rev_ids = match List.rev chain with _ :: rest -> rest | [] -> [] in
  let rev_tags =
    match
      List.rev_map (fun (n : T.node) -> Dictionary.intern db.Database.dict (T.label_name n)) path_nodes
    with
    | _ :: rest -> rest
    | [] -> []
  in
  let parent_id = match rev_ids with p :: _ -> p | [] -> 0 in
  let parent_tag = match rev_tags with t :: _ -> t | [] -> -1 in
  let infos = shred_subtree db ~rev_tags ~rev_ids ~parent_id ~parent_tag target in
  List.iter (apply db ~insert:false) infos;
  parent_node.T.children <-
    Array.of_list
      (List.filter (fun (c : T.node) -> c != target) (Array.to_list parent_node.T.children));
  Database.note_index_change db;
  List.length infos
