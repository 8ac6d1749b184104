(** Post-mortem dumps of the flight recorder ({!Tm_obs.Flight}): every
    domain ring in one file, framed with the WAL's frame codec
    ({!Wal.add_frame}, magic ["FB"]) — a header frame, one frame per
    domain ring, a footer with the total count — so a dump truncated by
    the dying process parses up to the damage. *)

type dump_file = {
  d_version : int;  (** 2 *)
  d_pid : int;
  d_reason : string;
  d_time : float;  (** wall clock at dump, Unix epoch seconds *)
  d_domains : (int * Tm_obs.Flight.event list) list;
  d_total : int;  (** footer count; -1 when the footer never made it *)
  d_damaged : string option;  (** [Some why] when the walk stopped at damage *)
}

val dump_to : path:string -> reason:string -> unit
(** Snapshot every ring into a post-mortem file (temp + rename, so an
    interrupted dump never clobbers a previous complete one). *)

val dump : reason:string -> string option
(** The automatic trigger: when the recorder is enabled and a dump path
    is configured ({!Tm_obs.Flight.set_dump_path}), record a [Dump]
    event, write the post-mortem there and return the path. Never
    raises — a failing dump must not mask the incident that triggered
    it. *)

type last_dump = {
  ld_path : string;
  ld_reason : string;
  ld_time : float;  (** wall clock, Unix epoch seconds *)
  ld_events : int;
  ld_domains : int;
}

val last_dump : unit -> last_dump option
(** Metadata of the most recent dump written by this process. *)

val parse_dump : string -> dump_file
(** Parse dump-file contents. Raises [Failure] only when no valid
    header frame exists; later damage is reported via [d_damaged]. *)

val load_dump : string -> dump_file
(** {!parse_dump} over a file's contents. *)

val render_dump : dump_file -> string
(** Human-readable merged timeline of a parsed dump. *)
