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
  target_levels : int;      (** the paper targets 6 *)
  level_delay : float;      (** 0.7 ns *)
  max_iterations : int;
  milp : Buffering.Formulation.config;
  lut_k : int;              (** LUT input count, 6 *)
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
  lint_gates : bool;
      (** audit every stage with the {!module:Lint} rule set: errors
          abort the run with {!Lint.Engine.Lint_error}, warnings and
          infos are collected into {!outcome.lint} (on by default) *)
  tv_exact : bool;
      (** translation-validation gates confirm every signature-mismatch
          witness by scalar replay and exhaustive evaluation of the
          offending cone (the [--tv-exact] CLI flag; off by default —
          the cheap 64-lane signature pass always runs when
          [lint_gates] is on) *)
  narrow : bool;
      (** run the abstract-interpretation value analysis and the verified
          narrowing rewrite ({!module:Absint}) on the seeded graph before
          synthesis (on by default; the [--no-narrow] CLI escape hatch).
          The rewrite is always gated by random-simulation equivalence
          ([equiv-narrow]) — a mismatch aborts the flow even when
          [lint_gates] is off *)
}

val default_config : config

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
      (** audit trail: the gate stages that actually ran, in order (empty
          when [lint_gates] is off); both flavors end with ["final-dfg"] *)
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
    cooperative-cancellation poll (checked at every iteration boundary
    and before every MILP solve — raises {!Session.Cancelled}) and the
    status sink. *)

val baseline : ?config:config -> session:Session.t -> Dataflow.Graph.t -> outcome
(** Mapping-agnostic one-shot flow (the paper's "Prev."). Takes the same
    [session] environment as {!iterative}. *)

val synth_map :
  session:Session.t -> config -> Dataflow.Graph.t -> Net.t * Techmap.Lutgraph.t
(** Elaborate, synthesise (with the configured optimisation passes) and
    LUT-map the graph, memoizing through the session's cache. *)
