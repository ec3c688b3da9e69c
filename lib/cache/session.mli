(** Session-owned cache handles.

    A session is an explicit, first-class capability to consult (or
    skip) the artifact cache: either a handle on an open {!Store.t} or
    the disabled session, which computes everything in place. The flow
    layers ({!Core.Flow}, the pre-characterised unit delays, the MILP
    solve) take a session parameter instead of consulting process-global
    state, so one process can serve many concurrent requests that share
    a single store — or mix cached and uncached work — without any
    cross-request cache-state leakage. There is no process-global
    cache: each CLI command builds one session and passes it down.

    Sessions are cheap records; share one {!Store.t} between as many
    sessions (and {!Support.Pool} domains) as needed — the store itself
    is domain-safe. *)

type t

val disabled : t
(** The no-cache session: {!memo} is exactly [f ()]. *)

val of_store : Store.t -> t
(** A session backed by an open store. The caller keeps ownership of
    the store (one {!Store.finish} when the owner is done). *)

val of_dir : ?mem_bytes:int -> string -> t
(** [of_store (Store.open_dir ?mem_bytes dir)]. Raises [Sys_error] if
    the directory cannot be created. *)

val enabled : t -> bool
val store : t -> Store.t option

val memo : t -> kind:string -> key:string -> (unit -> 'a) -> 'a
(** [memo t ~kind ~key f] returns the cached value for [(kind, key)] or
    computes [f ()] and stores it. Values are [Marshal]-encoded; the
    store's header checksums and version stamps guarantee a decoded
    payload is byte-exact and written by this model version, so the
    only type obligation is the caller's: {b one [kind] string must map
    to exactly one result type} across the whole code base. On the
    disabled session this is exactly [f ()]. *)

val finish : t -> unit
(** {!Store.finish} on the underlying store, if any. Only call from the
    session that owns the store. *)
