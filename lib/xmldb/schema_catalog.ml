(** Catalog of the distinct rooted schema paths in a database.

    This is the structural summary the paper calls on repeatedly: the
    DataGuide is an index over exactly these paths; the ASR / Join-Index
    baselines materialize one relation per entry ("902 and 235 tables
    for XMark and DBLP"); and plans for [//] patterns expand the
    recursion by enumerating the catalog entries that end with the
    pattern's tag sequence. In a well-structured database the catalog is
    small (paper Section 4.2), so it lives in memory, as a real system
    would keep it in its catalog cache. *)

type entry = {
  path : Schema_path.t;
  path_id : int;  (** dense id, usable for dictionary-encoding schema paths *)
  mutable instance_count : int;  (** number of data paths with this schema path *)
  mutable value_count : int;  (** how many of those end at a node with a leaf value *)
}

type t = {
  (* Guards [by_encoding]/[next_id] mutation and lookup: a durable
     ingest records new paths while epoch-pinned readers resolve
     existing ones, and a Hashtbl resize under a concurrent find is
     undefined. The [entries] spine is published by prepending — a
     single pointer write — so list readers see a consistent (possibly
     slightly stale) snapshot without the lock; counts are monotone
     estimates. A ticketed Tm_storage.Lock so the catalog stays
     marshal-safe inside snapshots. *)
  lock : Tm_storage.Lock.t;
  by_encoding : (string, entry) Hashtbl.t;
  mutable entries : entry list; (* insertion order, path_id ascending *)
  mutable next_id : int;
}

let create () =
  { lock = Tm_storage.Lock.create Tm_storage.Lock.Inner; by_encoding = Hashtbl.create 256; entries = []; next_id = 0 }

let record t (info : Shred.node_info) =
  let enc = Schema_path.encode info.Shred.path in
  Tm_storage.Lock.with_lock t.lock (fun () ->
      let entry =
        match Hashtbl.find_opt t.by_encoding enc with
        | Some e -> e
        | None ->
          let e =
            { path = info.Shred.path; path_id = t.next_id; instance_count = 0; value_count = 0 }
          in
          t.next_id <- t.next_id + 1;
          Hashtbl.replace t.by_encoding enc e;
          t.entries <- e :: t.entries;
          e
      in
      entry.instance_count <- entry.instance_count + 1;
      if Option.is_some info.Shred.value then entry.value_count <- entry.value_count + 1)

(** Reverse of {!record} for node deletion. The entry survives at zero
    instances (its path id must stay stable for Section 4.2 keys). *)
let unrecord t (info : Shred.node_info) =
  let enc = Schema_path.encode info.Shred.path in
  Tm_storage.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.by_encoding enc with
      | Some e ->
        e.instance_count <- max 0 (e.instance_count - 1);
        if Option.is_some info.Shred.value then e.value_count <- max 0 (e.value_count - 1)
      | None -> ())

(** Build the catalog for [doc] (interning tags into [dict]). *)
let build dict doc =
  let t = create () in
  Shred.iter_nodes doc dict (fun info -> record t info);
  t

(** Number of distinct rooted schema paths — the paper's "902 / 235". *)
let path_count t = Tm_storage.Lock.with_lock t.lock (fun () -> t.next_id)

let entries t = List.rev t.entries

let find t path =
  let enc = Schema_path.encode path in
  Tm_storage.Lock.with_lock t.lock (fun () -> Hashtbl.find_opt t.by_encoding enc)

(** All distinct rooted schema paths that end with the tag sequence
    [suffix] — the expansion of a PCsubpath pattern with an initial [//].
    This is how DataGuide/ASR/JI plans handle recursion: one access per
    matching path (the cost Figure 13 measures). *)
let paths_with_suffix t suffix =
  List.filter (fun e -> Schema_path.has_suffix e.path suffix) (entries t)

(** All distinct rooted paths equal to [prefix ^ suffix] for some prefix —
    i.e. paths with given rooted prefix and trailing tags. *)
let paths_with_prefix t prefix =
  List.filter (fun e -> Schema_path.has_prefix e.path prefix) (entries t)
