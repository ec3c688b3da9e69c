(* The full paper pipeline on one kernel: C source -> dataflow circuit ->
   iterative mapping-aware buffering -> place & route -> simulation.

   Run with: dune exec examples/gsum_pipeline.exe *)

let () =
  let kernel = Hls.Kernels.by_name "gsum" in
  print_endline "=== kernel source ===";
  print_endline kernel.Hls.Kernels.source;

  let g = Hls.Kernels.graph kernel in
  Printf.printf "compiled: %d units, %d channels, %d loop back edges\n\n"
    (Dataflow.Graph.n_units g) (Dataflow.Graph.n_channels g)
    (List.length (Dataflow.Graph.marked_back_edges g));

  print_endline "=== iterative mapping-aware flow (Figure 4) ===";
  let outcome = Core.Flow.iterative ~session:(Core.Session.make ()) g in
  List.iter
    (fun (it : Core.Flow.iteration) ->
      Printf.printf "iteration %d: %d buffers proposed, achieved %d levels\n"
        it.Core.Flow.it_index it.Core.Flow.proposed_buffers it.Core.Flow.achieved_levels)
    outcome.Core.Flow.iterations;
  Printf.printf "target met: %b with %d opaque buffers\n\n" outcome.Core.Flow.met_target
    outcome.Core.Flow.total_buffers;

  print_endline "=== place & route + simulation ===";
  let final = outcome.Core.Flow.graph in
  let net = Elaborate.run final in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  let pr = Placeroute.Sta.analyze ~seed:7 net lg in
  Printf.printf "CP %.2f ns over %d levels; %d LUTs, %d FFs\n" pr.Placeroute.Sta.cp
    pr.Placeroute.Sta.logic_levels pr.Placeroute.Sta.n_luts pr.Placeroute.Sta.n_ffs;
  let mems = kernel.Hls.Kernels.mems () in
  let sim = Sim.Elastic.run ~memories:mems final in
  let reference = Hls.Kernels.reference kernel in
  Printf.printf "simulated %d cycles -> result %s (reference %d)\n" sim.Sim.Elastic.cycles
    (match sim.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "-")
    reference;
  Printf.printf "execution time: %.0f ns\n"
    (pr.Placeroute.Sta.cp *. float_of_int sim.Sim.Elastic.cycles)
