(** Random-simulation equivalence of two circuit variants.

    The translation-validation gate behind the narrowing optimizer
    ({!Absint.Narrow}): both graphs are simulated on identical initial
    memories and their observable outcomes — exit value and final memory
    contents — are compared.  Round 0 runs on zero-initialised memories,
    subsequent rounds on random images (stressing load-value masking at
    narrowed widths).  Rounds where the original does not finish within
    the cycle budget prove nothing: they are skipped, counted in the
    result and in the [tv.simdiff.skipped] trace counter. *)

val default_rounds : int

type result = {
  rounds_run : int;         (** rounds where both outcomes were compared *)
  rounds_skipped : int;     (** rounds where the original did not finish *)
  mismatches : string list; (** human-readable mismatch descriptions *)
}

val check :
  ?rounds:int ->
  ?seed:int ->
  ?config:Sim.Elastic.config ->
  original:Dataflow.Graph.t ->
  variant:Dataflow.Graph.t ->
  unit ->
  result
(** [mismatches = []] means every conclusive round agreed; it proves
    nothing when [rounds_run = 0]. *)
