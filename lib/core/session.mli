(** The explicit per-request environment of a flow run.

    Everything a {!Flow} invocation needs beyond its input graph and
    {!Flow.config} — which cache store to consult, how much MILP search
    budget it may burn, whether it has been cancelled, where to stream
    status — lives in this record instead of process-global state. One
    long-lived process (the [regulate serve] daemon) builds one session
    per request, all sharing one {!Cache.Store.t}, and serves them
    concurrently on a {!Support.Pool} with no cross-request leakage; a
    one-shot CLI command builds one session and shares it between all of
    its pool tasks. *)

exception Cancelled
(** Raised by {!check_cancel} (i.e. from inside a flow, between
    iterations, before each MILP solve and at every branch & bound node
    through {!milp_poll}) when the session's [cancelled] poll returns
    true. Cooperative: a request is abandoned at a stage boundary or
    between two nodes, never mid-pivot. *)

type t = {
  cache : Cache.Session.t;      (** artifact cache handle (possibly disabled) *)
  milp_nodes : int option;      (** per-request B&B node-budget override *)
  milp_budget_s : float option; (** per-solve MILP wall-clock cancel ({!milp_poll}) *)
  cancelled : unit -> bool;     (** cooperative cancellation poll; must be cheap *)
  on_status : (string -> unit) option;
      (** per-request status sink (streamed to daemon clients); called
          from whichever domain runs the flow *)
}

val make :
  ?cache:Cache.Session.t ->
  ?milp_nodes:int ->
  ?milp_budget_s:float ->
  ?cancelled:(unit -> bool) ->
  ?on_status:(string -> unit) ->
  unit ->
  t
(** A session with explicit fields; [cache] defaults to
    {!Cache.Session.disabled}. *)

val check_cancel : t -> unit
(** Raise {!Cancelled} if the session was cancelled. *)

val status : t -> string -> unit
(** Feed the status sink, if any. *)

val milp_config : t -> Buffering.Formulation.config -> Buffering.Formulation.config
(** Apply the session's node-budget override to a MILP config. *)

val milp_poll : t -> unit -> unit
(** The [poll] for one {!Buffering.Formulation.solve}: raises
    {!Cancelled} once [t] is cancelled and [Failure "buffer MILP wall
    budget exhausted …"] once [milp_budget_s] has passed since this
    call. The clock can only abandon a solve, never change its answer. *)
