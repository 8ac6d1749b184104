(** A chosen physical plan for one twig: the PCsubpath cover with
    per-path cardinality estimates, the join order, the winning strategy
    and the full cost comparison it won. Executor results carry the
    plan; [explain], the journal and [twigql plan] render it. *)

type path_est = {
  p_label : string;  (** rendered path, e.g. [//site/people/person/name] *)
  p_raw_est : int;  (** estimate straight from catalog / Edge statistics *)
  p_est : int;  (** estimate the plan used: raw, or observed on a replan *)
}

type t = {
  shape : string;  (** normalized twig shape — the cache key *)
  strategy : Strategy.t;
  cover : path_est array;  (** one entry per linear path, decomposition order *)
  join_order : int array;  (** indices into [cover], driver (most selective) first *)
  est_rows : int;  (** estimated result cardinality *)
  cost : float;  (** winning cost, in entries-touched units *)
  rivals : (Strategy.t * float) list;  (** every costed strategy, cheapest first *)
  cached : bool;  (** served from the plan cache *)
  reason : string;  (** one-line justification *)
}

let trivial ~shape ~strategy reason =
  {
    shape;
    strategy;
    cover = [||];
    join_order = [||];
    est_rows = 0;
    cost = 0.0;
    rivals = [];
    cached = false;
    reason;
  }

let to_string p =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "shape: %s%s" p.shape (if p.cached then "  [plan cache hit]" else "");
  add "strategy: %s  (%s)" (Strategy.name p.strategy) p.reason;
  Array.iteri
    (fun rank i ->
      let pe = p.cover.(i) in
      add "  join %d: path %d: %s  (est. %d rows%s)" (rank + 1) (i + 1) pe.p_label pe.p_est
        (if Int.equal pe.p_est pe.p_raw_est then ""
         else Printf.sprintf ", raw %d" pe.p_raw_est))
    p.join_order;
  add "  estimated result rows: %d" p.est_rows;
  (match p.rivals with
  | [] -> ()
  | rivals ->
    add "  costs: %s"
      (String.concat "  "
         (List.map (fun (s, c) -> Printf.sprintf "%s~%.0f" (Strategy.name s) c) rivals)));
  Buffer.contents buf

let json_string s = Printf.sprintf "%S" s

let to_json p =
  let cover =
    Array.to_list p.cover
    |> List.map (fun pe ->
           Printf.sprintf "{\"path\":%s,\"est\":%d,\"raw_est\":%d}" (json_string pe.p_label)
             pe.p_est pe.p_raw_est)
    |> String.concat ","
  in
  let order =
    Array.to_list p.join_order |> List.map string_of_int |> String.concat ","
  in
  let rivals =
    List.map
      (fun (s, c) -> Printf.sprintf "{\"strategy\":%s,\"cost\":%.1f}" (json_string (Strategy.name s)) c)
      p.rivals
    |> String.concat ","
  in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"shape\":%s," (json_string p.shape);
      Printf.sprintf "\"strategy\":%s," (json_string (Strategy.name p.strategy));
      Printf.sprintf "\"cover\":[%s]," cover;
      Printf.sprintf "\"join_order\":[%s]," order;
      Printf.sprintf "\"est_rows\":%d," p.est_rows;
      Printf.sprintf "\"cost\":%.1f," p.cost;
      Printf.sprintf "\"rivals\":[%s]," rivals;
      Printf.sprintf "\"cached\":%b," p.cached;
      Printf.sprintf "\"reason\":%s" (json_string p.reason);
      "}";
    ]
