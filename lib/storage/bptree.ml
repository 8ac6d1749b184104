(** Disk-oriented B+-tree over byte-string keys and payloads.

    This is the access method the whole paper rests on: every member of
    the index family (Section 3) is realized as a B+-tree over an
    order-preserving key encoding. Properties:

    - duplicate keys are allowed (entries with equal keys are kept in
      payload order, so scans are deterministic);
    - nodes are serialized into fixed-size pages and accessed through a
      {!Buffer_pool}, so lookups and scans incur realistic page costs;
    - range scans are half-open [[lo, hi)]; prefix scans (the engine of
      the paper's reverse-schema-path trick for [//] queries) are range
      scans up to {!Codec.prefix_successor};
    - leaves optionally use front-coding of keys (prefix compression),
      which the paper cites as what makes B+-trees space-competitive for
      path keys on DB2;
    - sorted inputs can be bulk-loaded bottom-up. *)

(* Decoded nodes are immutable: a write builds a new node, so a node
   handed to one reader is never changed under it by a writer or
   another reader. *)
type node =
  | Leaf of { entries : (string * string) array; next : int (* page id + 1; 0 = none *) }
  | Internal of { keys : string array; children : int array }
      (* |children| = |keys| + 1; keys.(i) is the smallest key reachable
         under children.(i+1). *)

(* Tree-level metadata, kept immutable and swapped wholesale: readers
   load one pointer and get a consistent (root, counts, height) set,
   and a transactional writer stages a private copy that is published
   by the same single pointer write at commit. *)
type meta = { root : int; n_entries : int; n_pages : int; height : int }

type t = {
  pool : Buffer_pool.t;
  page_size : int;
  prefix_compression : bool;
  mutable meta : meta;
  mutable staged : meta option; (* the active transaction's metadata *)
  name : string;
  (* Decoded-node cache. Page I/O accounting still goes through the
     buffer pool on every access; this only memoizes the *parse* of a
     page image into a node, the way a real engine operates directly on
     the buffered page rather than re-deserializing it. Each node is
     kept with the image it was decoded from or written as, and is
     served only when the pool has just returned that same image: the
     pager never changes an installed image in place, so a write, an
     abort or a pinned reader's older version all show as another
     buffer. Nodes enter it when a reader decodes the current image or
     a transaction writes them; a write outside a transaction refreshes
     a cached node but adds none, so a bulk load leaves it empty. The
     lock covers only table lookups and stores (decoding happens
     outside it), and a snapshot's marshal ([with_nodes_detached]),
     which must not see the table. *)
  cache_lock : Lock.t;
  mutable decoded : (int, bytes * node) Hashtbl.t;
}

(* True iff the calling domain is the pager transaction's writer: the
   signal to stage metadata and cache written nodes. *)
let in_txn_writer t = Buffer_pool.in_txn_writer t.pool

(* The transaction's own metadata once it has written this tree. *)
let m t = match t.staged with Some mt when in_txn_writer t -> mt | Some _ | None -> t.meta

(* Inside a transaction, the first change stages the metadata and
   registers the participant that publishes (commit) or drops (abort)
   it when the transaction ends. *)
let set_m t f =
  if in_txn_writer t then begin
    if Option.is_none t.staged then
      Buffer_pool.add_participant t.pool (fun ~committed ->
          (match t.staged with Some mt when committed -> t.meta <- mt | Some _ | None -> ());
          t.staged <- None);
    t.staged <- Some (f (m t))
  end
  else t.meta <- f t.meta

let max_entry_size t = t.page_size / 4

(* ------------------------------------------------------------------ *)
(* Node serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* Eight bytes per step while they match: path keys share long
   prefixes, and the leaf encoder takes this twice per entry. *)
let shared_prefix_len a b =
  let n = Int.min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i + 8 <= n && Int64.equal (String.get_int64_ne a !i) (String.get_int64_ne b !i) do
    i := !i + 8
  done;
  while !i < n && Char.equal a.[!i] b.[!i] do
    incr i
  done;
  !i

(* Leaf image: tag 'L', u16 entry count, u32 next, then per entry the
   varint length of the key prefix shared with the previous key (0
   without prefix compression), the length-prefixed key suffix and the
   length-prefixed payload. Sized first, then written into one buffer:
   nothing is allocated per entry. *)
let encode_leaf t entries next =
  let n = Array.length entries in
  let shared i =
    if t.prefix_compression && i > 0 then shared_prefix_len (fst entries.(i - 1)) (fst entries.(i))
    else 0
  in
  let size = ref 7 in
  for i = 0 to n - 1 do
    let k, p = entries.(i) in
    let sh = shared i in
    let suffix = String.length k - sh in
    size :=
      !size + Codec.varint_len sh + Codec.varint_len suffix + suffix
      + Codec.varint_len (String.length p)
      + String.length p
  done;
  let b = Bytes.create !size in
  Bytes.set b 0 'L';
  Bytes.set_uint16_be b 1 n;
  Bytes.set_int32_be b 3 (Int32.of_int next);
  let pos = ref 7 in
  for i = 0 to n - 1 do
    let k, p = entries.(i) in
    let sh = shared i in
    let suffix = String.length k - sh in
    let q = Codec.set_varint b (Codec.set_varint b !pos sh) suffix in
    Bytes.blit_string k sh b q suffix;
    let q = Codec.set_varint b (q + suffix) (String.length p) in
    Bytes.blit_string p 0 b q (String.length p);
    pos := q + String.length p
  done;
  Bytes.unsafe_to_string b

let encode_internal keys children =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'I';
  Codec.add_u16 buf (Array.length keys);
  Codec.add_u32 buf children.(0);
  Array.iteri
    (fun i k ->
      Codec.add_lstring buf k;
      Codec.add_u32 buf children.(i + 1))
    keys;
  Buffer.contents buf

let encode_node t = function
  | Leaf l -> encode_leaf t l.entries l.next
  | Internal n -> encode_internal n.keys n.children

let decode_node s =
  match s.[0] with
  | 'L' ->
    let count, pos = Codec.read_u16 s 1 in
    let next, pos = Codec.read_u32 s pos in
    let entries = Array.make count ("", "") in
    let pos = ref pos in
    let prev = ref "" in
    for i = 0 to count - 1 do
      let shared, p = Codec.read_varint s !pos in
      let suffix, p = Codec.read_lstring s p in
      let payload, p = Codec.read_lstring s p in
      let key = String.sub !prev 0 shared ^ suffix in
      entries.(i) <- (key, payload);
      prev := key;
      pos := p
    done;
    Leaf { entries; next }
  | 'I' ->
    let count, pos = Codec.read_u16 s 1 in
    let child0, pos = Codec.read_u32 s pos in
    let keys = Array.make count "" in
    let children = Array.make (count + 1) child0 in
    let pos = ref pos in
    for i = 0 to count - 1 do
      let k, p = Codec.read_lstring s !pos in
      let c, p = Codec.read_u32 s p in
      keys.(i) <- k;
      children.(i + 1) <- c;
      pos := p
    done;
    Internal { keys; children }
  | c -> invalid_arg (Printf.sprintf "Bptree.decode_node: bad tag %C" c)

let c_node_visits = Tm_obs.Obs.counter "bptree.node_visits"
let c_node_decodes = Tm_obs.Obs.counter "bptree.node_decodes"

let read_node t id =
  (* the buffer-pool read happens unconditionally so that logical reads
     and misses are accounted exactly as without the decode cache *)
  let image = Buffer_pool.read t.pool id in
  Tm_obs.Obs.incr c_node_visits;
  let cached =
    Lock.with_lock t.cache_lock (fun () ->
        match Hashtbl.find_opt t.decoded id with
        | Some (decoded_from, node) when decoded_from == image -> Some node
        | Some _ | None -> None)
  in
  match cached with
  | Some node -> node
  | None ->
    Tm_obs.Obs.incr c_node_decodes;
    (* Decode outside the lock: concurrent readers missing on different
       pages parse in parallel. The node is kept only if its image is
       still the page's current one, so neither a pinned reader's older
       version nor a decode that a writer has overtaken replaces a
       newer entry; racing decoders of one image store equal nodes. *)
    let node = decode_node (Bytes.unsafe_to_string image) in
    Lock.with_lock t.cache_lock (fun () ->
        if Pager.image (Buffer_pool.pager t.pool) id == image then
          Hashtbl.replace t.decoded id (image, node));
    node

(* Store an already-encoded node image and cache the node with the
   image the write installed. The pager copies the image, so the fresh
   string is passed without one. *)
let commit_node t id node encoded =
  let image = Buffer_pool.write t.pool id (Bytes.unsafe_of_string encoded) in
  let store = in_txn_writer t in
  Lock.with_lock t.cache_lock (fun () ->
      if store || Hashtbl.mem t.decoded id then Hashtbl.replace t.decoded id (image, node))

let write_node t id node = commit_node t id node (encode_node t node)

let alloc_page t =
  set_m t (fun mt -> { mt with n_pages = mt.n_pages + 1 });
  Buffer_pool.alloc t.pool

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(prefix_compression = true) ~name pool =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let t =
    {
      pool;
      page_size;
      prefix_compression;
      meta = { root = -1; n_entries = 0; n_pages = 0; height = 1 };
      staged = None;
      name;
      cache_lock = Lock.create Lock.Outer;
      decoded = Hashtbl.create 256;
    }
  in
  let root = alloc_page t in
  write_node t root (Leaf { entries = [||]; next = 0 });
  set_m t (fun mt -> { mt with root });
  t

(* A snapshot stores pages, not their decoded forms: the tables are
   swapped for empty ones while [f] runs, and swapped back, under the
   locks that guard them, so no reader sees either swap. *)
let with_nodes_detached trees f =
  Lock.with_all (List.map (fun t -> t.cache_lock) trees) (fun () ->
      let saved =
        List.map
          (fun t ->
            let d = t.decoded in
            t.decoded <- Hashtbl.create 1;
            d)
          trees
      in
      (* Reattached in reverse, so a tree listed twice gets its own
         table back last. *)
      Fun.protect
        ~finally:(fun () ->
          List.iter2 (fun t d -> t.decoded <- d) (List.rev trees) (List.rev saved))
        f)

let name t = t.name
let entry_count t = (m t).n_entries
let page_count t = (m t).n_pages
let size_bytes t = (m t).n_pages * t.page_size
let height t = (m t).height

(* ------------------------------------------------------------------ *)
(* Search helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Index of the child to descend into for [key]: the first [i] with
   key <= keys.(i). Equality descends LEFT because duplicate keys may
   span a leaf boundary (the separator is the right leaf's first key);
   a scan starting in the left leaf reaches the right duplicates via
   the next pointer. *)
let child_index keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare key keys.(mid) <= 0 then hi := mid else lo := mid + 1
  done;
  !lo

(* First entry index with entry key >= [key]. *)
let lower_bound entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = entries.(mid) in
    if String.compare k key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

(* Insert position among duplicates: after all entries with the same key
   and payload <= the new payload, giving (key, payload) order. *)
let insert_position entries key payload =
  let i = ref (lower_bound entries key) in
  let n = Array.length entries in
  while
    !i < n
    &&
    let k, p = entries.(!i) in
    String.compare k key = 0 && String.compare p payload <= 0
  do
    incr i
  done;
  !i

type split = No_split | Split of string * int (* separator key, new right page *)

let rec insert_at t page key payload =
  match read_node t page with
  | Leaf l ->
    let entries = array_insert l.entries (insert_position l.entries key payload) (key, payload) in
    let encoded = encode_leaf t entries l.next in
    if String.length encoded <= t.page_size then begin
      commit_node t page (Leaf { entries; next = l.next }) encoded;
      No_split
    end
    else begin
      let n = Array.length entries in
      let mid = n / 2 in
      let left = Array.sub entries 0 mid in
      let right = Array.sub entries mid (n - mid) in
      let right_page = alloc_page t in
      write_node t right_page (Leaf { entries = right; next = l.next });
      write_node t page (Leaf { entries = left; next = right_page + 1 });
      Split (fst right.(0), right_page)
    end
  | Internal node ->
    let ci = child_index node.keys key in
    (match insert_at t node.children.(ci) key payload with
    | No_split -> No_split
    | Split (sep, right_page) ->
      let keys = array_insert node.keys ci sep in
      let children = array_insert node.children (ci + 1) right_page in
      let encoded = encode_internal keys children in
      if String.length encoded <= t.page_size then begin
        commit_node t page (Internal { keys; children }) encoded;
        No_split
      end
      else begin
        let n = Array.length keys in
        let mid = n / 2 in
        let sep_up = keys.(mid) in
        let left_keys = Array.sub keys 0 mid in
        let right_keys = Array.sub keys (mid + 1) (n - mid - 1) in
        let left_children = Array.sub children 0 (mid + 1) in
        let right_children = Array.sub children (mid + 1) (n - mid) in
        let right_page = alloc_page t in
        write_node t right_page (Internal { keys = right_keys; children = right_children });
        write_node t page (Internal { keys = left_keys; children = left_children });
        Split (sep_up, right_page)
      end)

let insert t key payload =
  let entry_size = String.length key + String.length payload + 16 in
  if entry_size > max_entry_size t then
    invalid_arg
      (Printf.sprintf "Bptree.insert(%s): entry of %d bytes exceeds max %d" t.name entry_size
         (max_entry_size t));
  (match insert_at t (m t).root key payload with
  | No_split -> ()
  | Split (sep, right_page) ->
    let new_root = alloc_page t in
    write_node t new_root
      (Internal { keys = [| sep |]; children = [| (m t).root; right_page |] });
    set_m t (fun mt -> { mt with root = new_root; height = mt.height + 1 }));
  set_m t (fun mt -> { mt with n_entries = mt.n_entries + 1 })

(* ------------------------------------------------------------------ *)
(* Deletion                                                            *)
(* ------------------------------------------------------------------ *)

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Lazy deletion: the entry is removed from its leaf but no rebalancing
   happens (underfull and even empty leaves are legal; scans walk the
   next-pointer chain regardless). This matches the common commercial
   practice of deferring structure maintenance to reorganization. *)
let rec delete_from_leaf t page key payload =
  match read_node t page with
  | Internal _ -> assert false
  | Leaf l ->
    let n = Array.length l.entries in
    let rec find i =
      if i >= n then None
      else
        let k, p = l.entries.(i) in
        let c = String.compare k key in
        if c > 0 then None
        else if c = 0 && String.equal p payload then Some i
        else find (i + 1)
    in
    (match find (lower_bound l.entries key) with
    | Some i ->
      write_node t page (Leaf { entries = array_remove l.entries i; next = l.next });
      true
    | None ->
      (* duplicates may continue in the next leaf *)
      if l.next = 0 then false
      else begin
        let next = l.next - 1 in
        match read_node t next with
        | Leaf nl
          when Array.length nl.entries = 0
               || String.compare (fst nl.entries.(0)) key <= 0 ->
          delete_from_leaf t next key payload
        | _ -> false
      end)

(** Remove one entry equal to ([key], [payload]); returns whether an
    entry was found. *)
let delete t key payload =
  let rec descend page =
    match read_node t page with
    | Leaf _ -> page
    | Internal node -> descend node.children.(child_index node.keys key)
  in
  let leaf = descend (m t).root in
  let found = delete_from_leaf t leaf key payload in
  if found then set_m t (fun mt -> { mt with n_entries = mt.n_entries - 1 });
  found

(* ------------------------------------------------------------------ *)
(* Scans                                                               *)
(* ------------------------------------------------------------------ *)

let rec find_leaf t page key =
  match read_node t page with
  | Leaf _ as l -> (page, l)
  | Internal node -> find_leaf t node.children.(child_index node.keys key) key

(** [fold_range t ~lo ~hi f acc] folds [f] over all entries with
    [lo <= key < hi] in key order. [hi = None] means unbounded above. *)
let fold_range t ~lo ~hi f acc =
  let below_hi k = match hi with None -> true | Some h -> String.compare k h < 0 in
  let rec walk_leaf l acc i =
    match l with
    | Internal _ -> assert false
    | Leaf leaf ->
      let n = Array.length leaf.entries in
      let rec entries acc i =
        if i >= n then
          if leaf.next = 0 then acc
          else
            let next_page = leaf.next - 1 in
            walk_leaf (read_node t next_page) acc 0
        else
          let k, p = leaf.entries.(i) in
          if below_hi k then entries (f acc k p) (i + 1) else acc
      in
      entries acc i
  in
  let _, leaf = find_leaf t (m t).root lo in
  match leaf with
  | Internal _ -> assert false
  | Leaf l -> walk_leaf leaf acc (lower_bound l.entries lo)

(** All entries whose key starts with [prefix], in key order. *)
let fold_prefix t ~prefix f acc =
  fold_range t ~lo:prefix ~hi:(Codec.prefix_successor prefix) f acc

(** Payloads of all entries with exactly [key], sorted. (Duplicate
    entries are key-ordered in the tree but their payload order across
    leaf boundaries is unspecified, so we sort for determinism.) *)
let lookup_all t key =
  List.sort String.compare
    (fold_range t ~lo:key ~hi:(Codec.prefix_successor key)
       (fun acc k p -> if String.equal k key then p :: acc else acc)
       [])

let lookup_first t key =
  match lookup_all t key with [] -> None | p :: _ -> Some p

let count_range t ~lo ~hi = fold_range t ~lo ~hi (fun acc _ _ -> acc + 1) 0
let count_prefix t ~prefix = fold_prefix t ~prefix (fun acc _ _ -> acc + 1) 0

let to_list t = List.rev (fold_range t ~lo:"" ~hi:None (fun acc k p -> (k, p) :: acc) [])

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                        *)
(* ------------------------------------------------------------------ *)

(** [bulk_load ?prefix_compression ~name pool entries] builds a tree
    bottom-up from [entries], which must be sorted by (key, payload).
    Leaves are packed to a ~90% fill factor. *)
let bulk_load ?(prefix_compression = true) ~name pool entries =
  let t = create ~prefix_compression ~name pool in
  let budget = t.page_size * 9 / 10 in
  (* Pack leaves greedily. We approximate the encoded size incrementally:
     exact enough because we re-check against the real encoding. *)
  let leaves = ref [] in
  let current = ref [] in
  let current_size = ref 16 in
  let current_count = ref 0 in
  let first_keys = ref [] in
  (* Each leaf is written once, with its final next pointer: it waits
     here until the next leaf's page is allocated. *)
  let unwritten = ref None in
  let write_unwritten next =
    Option.iter (fun (page, entries) -> write_node t page (Leaf { entries; next })) !unwritten
  in
  let flush_leaf () =
    if !current_count > 0 then begin
      let arr = Array.of_list (List.rev !current) in
      let page = alloc_page t in
      leaves := page :: !leaves;
      first_keys := fst arr.(0) :: !first_keys;
      write_unwritten (page + 1);
      unwritten := Some (page, arr);
      current := [];
      current_size := 16;
      current_count := 0
    end
  in
  let last_key = ref None in
  List.iter
    (fun (k, p) ->
      (match !last_key with
      | Some prev when String.compare prev k > 0 ->
        invalid_arg (Printf.sprintf "Bptree.bulk_load(%s): input not sorted" name)
      | _ -> ());
      let shared =
        match !last_key with
        | Some prev when prefix_compression && !current_count > 0 -> shared_prefix_len prev k
        | _ -> 0
      in
      last_key := Some k;
      let esize = String.length k - shared + String.length p + 12 in
      if esize > max_entry_size t then
        invalid_arg (Printf.sprintf "Bptree.bulk_load(%s): oversized entry (%d bytes)" name esize);
      if !current_size + esize > budget then flush_leaf ();
      current := (k, p) :: !current;
      current_size := !current_size + esize;
      current_count := !current_count + 1;
      set_m t (fun mt -> { mt with n_entries = mt.n_entries + 1 }))
    entries;
  flush_leaf ();
  write_unwritten 0;
  let leaf_pages = Array.of_list (List.rev !leaves) in
  let leaf_keys = Array.of_list (List.rev !first_keys) in
  if Array.length leaf_pages = 0 then t
  else begin
    (* Build internal levels bottom-up. Each internal node takes as many
       children as fit in a page. *)
    let rec build_level pages keys height =
      if Array.length pages = 1 then
        set_m t (fun mt -> { mt with root = pages.(0); height })
      else begin
        let parents = ref [] and parent_keys = ref [] in
        let i = ref 0 in
        let n = Array.length pages in
        while !i < n do
          (* Greedily extend a parent while the encoding fits. *)
          let child_list = ref [ pages.(!i) ] in
          let key_list = ref [] in
          let start_key = keys.(!i) in
          incr i;
          let fits () =
            let ks = Array.of_list (List.rev !key_list) in
            let cs = Array.of_list (List.rev !child_list) in
            String.length (encode_internal ks cs) <= budget
          in
          let continue = ref true in
          while !continue && !i < n do
            key_list := keys.(!i) :: !key_list;
            child_list := pages.(!i) :: !child_list;
            if fits () then incr i
            else begin
              key_list := List.tl !key_list;
              child_list := List.tl !child_list;
              continue := false
            end
          done;
          let ks = Array.of_list (List.rev !key_list) in
          let cs = Array.of_list (List.rev !child_list) in
          let page = alloc_page t in
          write_node t page (Internal { keys = ks; children = cs });
          parents := page :: !parents;
          parent_keys := start_key :: !parent_keys
        done;
        build_level
          (Array.of_list (List.rev !parents))
          (Array.of_list (List.rev !parent_keys))
          (height + 1)
      end
    in
    (* The initial empty-leaf root page is wasted; acceptable bookkeeping. *)
    build_level leaf_pages leaf_keys 1;
    t
  end

(* ------------------------------------------------------------------ *)
(* Raw page views (fsck support)                                       *)
(* ------------------------------------------------------------------ *)

type view =
  | Leaf_view of { entries : (string * string) array; next : int option (* page id *) }
  | Internal_view of { keys : string array; children : int array }

let root_page t = (m t).root
let pool t = t.pool

(** The stored image of [page] (exactly as the pager holds it). *)
let page_image t page = Bytes.to_string (Buffer_pool.read t.pool page)

(** Decode the stored image of [page] afresh, bypassing the decoded-node
    cache: an offline checker must see what is actually on the page, not
    what the tree last parsed from it. *)
let view_page t page =
  match Buffer_pool.read t.pool page with
  | exception Invalid_argument m -> Error m
  | image -> (
    match decode_node (Bytes.unsafe_to_string image) with
    | Leaf l ->
      Ok (Leaf_view { entries = l.entries; next = (if l.next = 0 then None else Some (l.next - 1)) })
    | Internal n -> Ok (Internal_view { keys = n.keys; children = n.children })
    | exception Invalid_argument m -> Error m
    | exception Failure m -> Error m)

(** Re-encode a view with this tree's settings (page tag, front-coding):
    the canonical image the round-trip invariant compares against. *)
let encode_view t = function
  | Leaf_view { entries; next } ->
    encode_leaf t entries (match next with None -> 0 | Some p -> p + 1)
  | Internal_view { keys; children } -> encode_internal keys children
