(** Marshal-safe mutexes for stored structures.

    [Mutex.t] is a runtime custom block that {!Marshal} rejects, so a
    structure embedding one directly (pager, buffer-pool stripes,
    B+-tree decode caches) would lose snapshot support
    ({!Twigmatch.Persist}). A [Lock.t] is instead a plain-integer
    ticket into a process-global mutex registry: the ticket itself
    marshals, and a structure loaded from a snapshot lazily re-creates
    its mutex in the registry on first acquisition.

    A loaded ticket can collide with a live one, making two structures
    share a mutex — harmless contention, {e unless} sharing could
    invert a lock order and deadlock. The registry therefore allocates
    tickets from two disjoint classes reflecting the storage layer's
    acquisition discipline, and a collision can only pair locks of the
    same class:

    - [Outer]: buffer-pool stripe and decode-cache locks. A thread
      holds at most one Outer lock at a time, except under {!with_all}.
    - [Inner]: pager locks, acquired while holding Outer locks only;
      no lock is acquired under an Inner lock.

    Sharing within a class keeps the global Outer -> Inner order
    acyclic, so colliding tickets cannot deadlock. {!with_all} takes
    its Outer tickets in ascending order, so a thread waiting in it
    waits only for a larger ticket than it holds, and the holder of
    that ticket waits, if at all, for an Inner lock or a larger
    ticket still. *)

type t

type cls = Outer | Inner

val create : cls -> t

val acquire : t -> unit
val release : t -> unit

val with_lock : t -> (unit -> 'a) -> 'a
(** [acquire], run, [release] (also on exception). *)

val with_all : t list -> (unit -> 'a) -> 'a
(** Run holding every ticket of the list: the Outer locks of a set of
    structures, taken in ascending ticket order, each distinct ticket
    once. Inner locks may be taken inside, as under one Outer lock. *)
