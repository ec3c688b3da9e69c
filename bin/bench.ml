(* The `regulate bench` targets: regenerate every table and figure of the
   paper's evaluation (§VI) plus the ablations called out in DESIGN.md.

     table1               Table I (E1, E3, E4); also writes results.csv
     figure5              Figure 5 (E2)
     ablation-penalty     A1 (Eq. 1 vs Eq. 3)
     ablation-iterations  A2 (one-shot vs iterative)
     ablation-routing     A3 (wire-aware model)
     ablation-slack       A4 (transparent sizing)
     ablation-balance     A5 (AND re-association)
     ablation-width       A6 (8- vs 16-bit datapath)
     sweep                E5 (level-target sweep)
     micro                B1 (Bechamel stage timings)

   Timing lines and the run summary go to stderr so that stdout (the
   tables, the CSV) is byte-identical whatever the jobs width and with or
   without the cache.

   Absolute numbers come from the OCaml substrate (simulated synthesis,
   placement and routing), so they differ from the paper's Stratix-IV
   runs; the comparison SHAPE — who wins, by roughly what factor — is the
   reproduction target.  See EXPERIMENTS.md. *)

type env = {
  session : Core.Session.t;
  jobs : int;
  rows : Core.Experiment.row list Lazy.t;  (** Table I rows, shared by table1 and figure5 *)
}

let fmt = Format.std_formatter

let banner title =
  Format.fprintf fmt "@\n============================================================@\n";
  Format.fprintf fmt "%s@\n" title;
  Format.fprintf fmt "============================================================@\n@."

let compute_rows ~session ~jobs ~narrow names =
  Printf.eprintf "[bench] running %d kernels x 2 flavors, jobs=%d\n%!"
    (match names with Some ns -> List.length ns | None -> List.length Hls.Kernels.all)
    jobs;
  let config = { Core.Flow.default_config with Core.Flow.narrow } in
  let r, timings, wall = Core.Experiment.run_all_timed ~config ~session ~jobs ?names () in
  List.iter
    (fun t ->
      Printf.eprintf "[bench]   %-15s %-9s %8.2fs\n%!" t.Core.Experiment.t_bench
        t.Core.Experiment.t_flavor t.Core.Experiment.t_seconds)
    timings;
  let seq = List.fold_left (fun a t -> a +. t.Core.Experiment.t_seconds) 0. timings in
  Printf.eprintf
    "[bench] wall-clock %.2fs at jobs=%d; sequential-equivalent (sum of tasks) %.2fs; speedup %.2fx\n%!"
    wall jobs seq
    (if wall > 0. then seq /. wall else 1.);
  r

(* [kernels] restricts table1/figure5 to a subset ([None]: all nine) *)
let env ~session ~jobs ~narrow ~kernels =
  { session; jobs; rows = lazy (compute_rows ~session ~jobs ~narrow kernels) }

let table1 e =
  banner "Table I: iterative mapping-aware (Iter.) vs mapping-agnostic (Prev.)";
  let r = Lazy.force e.rows in
  Core.Report.table1 fmt r;
  Format.fprintf fmt "@\n";
  Core.Report.iterations fmt r;
  Format.pp_print_flush fmt ();
  (try
     Out_channel.with_open_text "results.csv" (fun oc ->
         let cfmt = Format.formatter_of_out_channel oc in
         Core.Report.csv cfmt r;
         Format.pp_print_flush cfmt ())
   with Sys_error msg ->
     Printf.eprintf "regulate bench: cannot write results.csv: %s\n" msg;
     exit 1);
  Format.fprintf fmt "(wrote results.csv)@."

let figure5 e =
  banner "Figure 5: normalised execution time and resources";
  Core.Report.figure5 fmt (Lazy.force e.rows);
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Paired-run tables: every ablation compares two runs per row. Both
   runs of every row are submitted to the pool up front and awaited in
   submission order, so the printed table never depends on the jobs
   width. *)

let paired e ~title ~header ?(footer = []) ~row rows =
  banner title;
  let results =
    Support.Pool.run ~jobs:e.jobs (fun pool ->
        List.map
          (fun (key, a, b) ->
            let fa = Support.Pool.submit pool a in
            let fb = Support.Pool.submit pool b in
            (key, fa, fb))
          rows
        |> List.map (fun (key, fa, fb) -> (key, Support.Pool.await fa, Support.Pool.await fb)))
  in
  List.iter (Format.fprintf fmt "%s@\n") header;
  List.iter (fun (key, a, b) -> Format.fprintf fmt "%s@\n" (row key a b)) results;
  List.iter (Format.fprintf fmt "%s@\n") footer;
  Format.pp_print_flush fmt ()

(* One measured flow run, as a pool task. *)
let flow_task e ?config ?(flavor = `Iterative) k () =
  fst (Core.Experiment.run_flow ?config ~session:e.session ~flavor k)

(* An ablation of the iterative flow: the default configuration against
   [config'] (or, when [base_first] is false, [config'] first), one row
   per kernel. *)
let versus e ?(base_first = true) config' names =
  List.map
    (fun name ->
      let k = Hls.Kernels.by_name name in
      let base = flow_task e k and alt = flow_task e ~config:config' k in
      if base_first then (name, base, alt) else (name, alt, base))
    names

let ablation_penalty e =
  let d = Core.Flow.default_config in
  let no_penalty =
    { d with Core.Flow.milp = { d.Core.Flow.milp with Buffering.Formulation.use_penalty = false } }
  in
  paired e ~title:"Ablation A1: Eq. 3 penalty term on/off (iterative flow, subset)"
    ~header:
      [
        Printf.sprintf "%-12s | %18s | %18s" "kernel" "with penalty" "without penalty";
        Printf.sprintf "%-12s | %8s %9s | %8s %9s" "" "buffers" "levels" "buffers" "levels";
      ]
    ~footer:
      [
        "(the penalty steers buffers away from channels with shared logic;";
        " without it the same period target is met with more disruptive placements)";
      ]
    ~row:(fun name (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-12s | %8d %9d | %8d %9d" name a.buffers a.levels b.buffers b.levels)
    (versus e no_penalty [ "gsum"; "gsumif"; "matrix" ])

let ablation_iterations e =
  let one_shot = { Core.Flow.default_config with Core.Flow.max_iterations = 1 } in
  paired e ~title:"Ablation A2: one-shot mapping-aware vs full iterative (subset)"
    ~header:
      [
        Printf.sprintf "%-12s | %22s | %22s" "kernel" "max_iterations = 1" "full iterative";
        Printf.sprintf "%-12s | %9s %12s | %9s %12s" "" "levels" "target met" "levels" "target met";
      ]
    ~row:(fun name (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-12s | %9d %12b | %9d %12b" name a.levels a.met_target b.levels b.met_target)
    (versus e ~base_first:false one_shot [ "gsum"; "gsumif"; "matrix" ])

let ablation_routing e =
  paired e ~title:"Ablation A3: routing-aware timing model on/off (subset)"
    ~header:
      [
        Printf.sprintf "%-12s | %24s | %24s" "kernel" "mapping-aware" "+ routing aware";
        Printf.sprintf "%-12s | %9s %6s %7s | %9s %6s %7s" "" "cp(ns)" "bufs" "levels" "cp(ns)"
          "bufs" "levels";
      ]
    ~footer:
      [ "(wire-delay surcharges make the model stricter: more buffers, achieved CP closer to target)" ]
    ~row:(fun name (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-12s | %9.2f %6d %7d | %9.2f %6d %7d" name a.cp a.buffers a.levels b.cp
        b.buffers b.levels)
    (versus e { Core.Flow.default_config with Core.Flow.routing_aware = true } [ "gsum"; "gsumif" ])

let ablation_slack e =
  paired e ~title:"Ablation A4: slack matching on/off (subset)"
    ~header:
      [
        Printf.sprintf "%-12s | %14s | %14s" "kernel" "no sizing" "slack matched";
        Printf.sprintf "%-12s | %14s | %14s" "" "cycles" "cycles";
      ]
    ~footer:[ "(transparent capacity on shallow reconvergent paths absorbs stalls)" ]
    ~row:(fun name (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-12s | %14d | %14d" name a.cycles b.cycles)
    (versus e { Core.Flow.default_config with Core.Flow.slack_match = true } [ "matrix"; "mvt" ])

let ablation_balance e =
  paired e ~title:"Ablation A5: AND re-association (balance) before mapping (subset)"
    ~header:
      [
        Printf.sprintf "%-12s | %20s | %20s" "kernel" "if -K 6 only" "balance; if -K 6";
        Printf.sprintf "%-12s | %9s %10s | %9s %10s" "" "levels" "luts" "levels" "luts";
      ]
    ~row:(fun name (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-12s | %9d %10d | %9d %10d" name a.levels a.luts b.levels b.luts)
    (versus e { Core.Flow.default_config with Core.Flow.balance = true } [ "gsum"; "matrix" ])

(* A6: one kernel only — the 16-bit MILP instances are several times
   larger. Each run is checked functionally at its own width. *)
let ablation_width e =
  let run k width () =
    let g = Hls.Kernels.graph ~width k in
    let outcome = Core.Flow.iterative ~session:e.session g in
    let pr = Placeroute.Sta.analyze ~seed:7 outcome.Core.Flow.net outcome.Core.Flow.lutgraph in
    let sim = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) outcome.Core.Flow.graph in
    assert (sim.Sim.Elastic.exit_value = Some (Hls.Kernels.reference ~width k));
    pr
  in
  let k = Hls.Kernels.by_name "gsum" in
  paired e ~title:"Ablation A6: datapath width 8 vs 16 bits (iterative flow)"
    ~header:
      [
        Printf.sprintf "%-12s | %26s | %26s" "kernel" "8-bit" "16-bit";
        Printf.sprintf "%-12s | %7s %7s %9s | %7s %7s %9s" "" "luts" "ffs" "cp(ns)" "luts" "ffs"
          "cp(ns)";
      ]
    ~footer:
      [
        "(resources scale with the datapath; levels and CP grow with the wider carry chains,";
        " which is why the reproduction runs 8-bit by default)";
      ]
    ~row:(fun name (a : Placeroute.Sta.report) (b : Placeroute.Sta.report) ->
      Printf.sprintf "%-12s | %7d %7d %9.2f | %7d %7d %9.2f" name a.n_luts a.n_ffs a.cp b.n_luts
        b.n_ffs b.cp)
    [ ("gsum", run k 8, run k 16) ]

(* E5: §VI-B's "achieved CP unpredictably diverges for slight target
   changes" on the baseline, vs the iterative flow *)
let sweep e =
  let k = Hls.Kernels.by_name "gsumif" in
  paired e ~title:"Target sweep (E5): achieved levels under varying level targets (gsumif)"
    ~header:
      [
        Printf.sprintf "%-8s | %20s | %20s" "target" "baseline" "iterative";
        Printf.sprintf "%-8s | %9s %10s | %9s %10s" "levels" "achieved" "cp(ns)" "achieved" "cp(ns)";
      ]
    ~footer:[ "(the iterative flow tracks the target; the baseline's levels do not respond to it)" ]
    ~row:(fun target (a : Core.Experiment.metrics) (b : Core.Experiment.metrics) ->
      Printf.sprintf "%-8d | %9d %10.2f | %9d %10.2f" target a.levels a.cp b.levels b.cp)
    (List.map
       (fun target ->
         let config = { Core.Flow.default_config with Core.Flow.target_levels = target } in
         (target, flow_task e ~config ~flavor:`Baseline k, flow_task e ~config k))
       [ 5; 6; 7; 8 ])

(* ------------------------------------------------------------------ *)
(* B1: Bechamel micro-benchmarks of the flow's stages *)

let micro _ =
  banner "Micro-benchmarks (Bechamel): per-stage cost on gsum";
  let open Bechamel in
  let k = Hls.Kernels.by_name "gsum" in
  let g0 = Hls.Kernels.graph k in
  let _ = Core.Flow.seed_back_edges g0 in
  let net = Elaborate.run g0 in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  let tests =
    [
      Test.make ~name:"elaborate" (Staged.stage (fun () -> ignore (Elaborate.run g0)));
      Test.make ~name:"synthesize-aig" (Staged.stage (fun () -> ignore (Techmap.Synth.run net)));
      Test.make ~name:"lut-map" (Staged.stage (fun () -> ignore (Techmap.Mapper.run synth)));
      Test.make ~name:"timing-model"
        (Staged.stage (fun () -> ignore (Timing.Mapping_aware.build g0 ~net lg)));
      Test.make ~name:"cfdfc-extract"
        (Staged.stage (fun () -> ignore (Buffering.Cfdfc.extract g0)));
      Test.make ~name:"place-and-sta"
        (Staged.stage (fun () -> ignore (Placeroute.Sta.analyze ~seed:7 ~effort:0.2 net lg)));
      Test.make ~name:"simulate"
        (Staged.stage (fun () ->
             ignore (Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g0)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Format.fprintf fmt "  %-18s %12.1f ns/run@\n" name est
          | _ -> Format.fprintf fmt "  %-18s (no estimate)@\n" name)
        analysed)
    tests;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)

let targets =
  [
    ("table1", table1);
    ("figure5", figure5);
    ("ablation-penalty", ablation_penalty);
    ("ablation-iterations", ablation_iterations);
    ("ablation-routing", ablation_routing);
    ("ablation-slack", ablation_slack);
    ("ablation-balance", ablation_balance);
    ("ablation-width", ablation_width);
    ("sweep", sweep);
    ("micro", micro);
  ]

(* sweep and ablation-width are slow: they run only on request *)
let default_targets =
  [
    "table1";
    "figure5";
    "ablation-penalty";
    "ablation-iterations";
    "ablation-routing";
    "ablation-slack";
    "ablation-balance";
    "micro";
  ]

(* Each target becomes one span of the trace, so the trace's durations
   account for the whole run. *)
let run e name =
  Support.Trace.with_span ~cat:"bench" ("bench:" ^ name) (fun () -> List.assoc name targets e)
