(** The target FPGA fabric's two calibration constants, shared by the
    mapper, the timing models, static timing analysis and the flow. *)

val lut_k : int
(** LUT input count: 6 (Stratix-style 6-LUTs, as the paper's ABC
    [if -K 6] run). *)

val level_delay : float
(** 0.7 ns per logic level — the paper's calibration constant. A level
    target of [n] is the clock-period target [n × level_delay]. *)
