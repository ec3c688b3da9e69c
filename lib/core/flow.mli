(** The paper's primary contribution: iterative, mapping-aware frequency
    regulation (Figure 4, §V), plus the one-shot mapping-agnostic
    baseline it is compared against (§VI-A).

    Iterative flow:
    + seed opaque buffers on all loop back edges (fixed);
    + synthesise and LUT-map the circuit, build the mapping-aware timing
      model and channel penalties;
    + solve the buffer-placement MILP (Eq. 3);
    + re-synthesise with the chosen buffers and measure logic levels;
    + if the target is met (or iterations are exhausted) stop; otherwise
      keep a sparse subset of the found buffers — per basic block, the
      one with the lowest penalty — as additional fixed buffers and
      repeat.

    Baseline flow: seed back edges, build the pre-characterised model,
    solve the same MILP once without penalties (Eq. 1), done. *)

type config = {
  target_levels : int;
      (** the paper targets 6; the only place the level target is set —
          both flows derive the MILP's clock-period target from it
          ({!cp_target}) *)
  max_iterations : int;
  milp : Buffering.Formulation.config;
  routing_aware : bool;
      (** fold placement-estimated wire delays into the timing model (the
          §VI future-work enhancement; off in the paper's configuration) *)
  slack_match : bool;
      (** pad reconvergent paths with transparent capacity after buffer
          placement (the FPGA'20 sizing companion; off by default) *)
  balance : bool;
      (** run the depth-reducing AND re-association pass before LUT
          mapping (ABC's [balance]; off to match the paper's `if -K 6`
          only run) *)
  tv_exact : bool;
      (** translation-validation gates confirm every signature-mismatch
          witness by scalar replay and exhaustive evaluation of the
          offending cone (the [--tv-exact] CLI flag; off by default —
          the cheap 64-lane signature pass always runs) *)
  narrow : bool;
      (** run the abstract-interpretation value analysis and the verified
          narrowing rewrite ({!module:Absint}) on the seeded graph before
          synthesis (on by default; the [--no-narrow] CLI escape hatch).
          The rewrite is gated by random-simulation equivalence
          ([equiv-narrow]): a mismatch aborts the flow *)
}
(** Every stage of both flows is audited by the {!module:Lint} rule set:
    errors abort the run with {!Lint.Engine.Lint_error}, warnings and
    infos are collected into {!outcome.lint}. The LUT size and the
    per-level delay are the fabric constants {!Support.Fabric.lut_k} and
    {!Support.Fabric.level_delay}. *)

val default_config : config

val cp_target : int -> float
(** The clock-period target of a level target, in ns:
    [levels × Support.Fabric.level_delay] (6 levels give 4.2). *)

type iteration = {
  it_index : int;
  model_pairs : int;
  delay_nodes : int;
  fake_nodes : int;
  proposed_buffers : int;
  kept_as_fixed : int;      (** buffers promoted to the fixed set after this iteration *)
  achieved_levels : int;    (** post-synthesis levels with this iteration's buffers *)
  milp_objective : float;
  milp_proved : bool;
  milp_phi : float;
      (** the MILP's own throughput claim: min over its per-CFDFC
          [theta]s (1.0 for an acyclic circuit) *)
  certified_bound : float;
      (** the LP-free certified throughput bound of this iteration's
          candidate placement ({!Analysis.Certify}); the [perf] gate
          enforces [milp_phi <= certified_bound + eps] *)
}

type outcome = {
  graph : Dataflow.Graph.t;     (** final buffered circuit *)
  net : Net.t;
      (** elaborated netlist of {!field:graph} — the flow's own final
          synthesis, so downstream measurement (P&R, STA) need not
          re-synthesise the circuit *)
  lutgraph : Techmap.Lutgraph.t;
      (** LUT mapping of {!field:net}; [lutgraph.max_level] always equals
          {!field:final_levels}, including under [slack_match] (the
          transparent buffers are part of this netlist) *)
  iterations : iteration list;
  met_target : bool;
  final_levels : int;           (** levels of the {e final} circuit, after slack matching *)
  total_buffers : int;
  certified : Analysis.Certify.t;
      (** the final placement's throughput & liveness certificate (from
          the last MILP solve's candidate; slack matching only adds
          transparent capacity, which cannot invalidate it) *)
  lint : Lint.Engine.report;    (** non-fatal findings from the stage gates *)
  lint_stages : string list;
      (** audit trail: the gate stages that actually ran, in order; both
          flavors end with ["final-dfg"] *)
  narrowing : Absint.Narrow.report option;
      (** what the value-range narrowing stage did (widths shrunk, units
          folded, dead code deleted); [None] when [config.narrow] is off *)
}

val seed_back_edges : Dataflow.Graph.t -> Dataflow.Graph.channel_id list
(** Place (and return) the opaque buffers required on loop back edges.
    Mutates the graph. *)

val iterative : ?config:config -> session:Session.t -> Dataflow.Graph.t -> outcome
(** Mapping-aware iterative flow. The input graph is not mutated.
    [session] supplies the cache handle, MILP budget overrides, the
    cooperative-cancellation poll (checked at every iteration boundary,
    before every MILP solve and at every branch & bound node — raises
    {!Session.Cancelled}), the MILP wall-clock safety cancel
    ({!Session.milp_poll}) and the status sink. *)

val baseline : ?config:config -> session:Session.t -> Dataflow.Graph.t -> outcome
(** Mapping-agnostic one-shot flow (the paper's "Prev."). Takes the same
    [session] environment as {!iterative}. *)

val synth_map :
  session:Session.t -> config -> Dataflow.Graph.t -> Net.t * Techmap.Lutgraph.t
(** Elaborate, synthesise (with the configured optimisation passes) and
    LUT-map the graph, memoizing through the session's cache. *)

val certify_placement :
  cfdfcs:Buffering.Cfdfc.t list ->
  Dataflow.Graph.t ->
  Buffering.Formulation.placement ->
  Dataflow.Graph.t * Analysis.Certify.t * Lint.Engine.report
(** The placement audit both flows run after every MILP solve: add the
    placement's new opaque buffers to a copy of the graph the MILP was
    built on, certify that candidate ({!Analysis.Certify}: min cycle
    ratio by Howard with a Karp cross-check, marked-graph liveness), and
    check the MILP's per-CFDFC throughput claims ([cfdfcs] zipped with
    the placement's [throughput]) against the certified bound
    ({!Lint.Engine.check_perf}). Returns the candidate, its certificate
    and the [perf] report. *)
