(* Bring your own kernel: write mini-C, compile it to an elastic
   circuit, and check the circuit against the reference interpreter.

   Run with: dune exec examples/custom_kernel.exe *)

let source =
  {|
int dot_product(int a[32], int b[32]) {
  int acc = 0;
  for (int i = 0; i < 32; i = i + 1) {
    acc = acc + a[i] * b[i];
  }
  return acc;
}
|}

let () =
  let func = Hls.Parser.parse source in
  Printf.printf "parsed kernel '%s' with %d parameters\n" func.Hls.Ast.fname
    (List.length func.Hls.Ast.params);

  let g = Hls.Compile.compile func in
  Printf.printf "circuit: %d units, %d channels\n" (Dataflow.Graph.n_units g)
    (Dataflow.Graph.n_channels g);

  (* deterministic input data *)
  let rng = Support.Rng.create 2024 in
  let a = Array.init 32 (fun _ -> Support.Rng.int rng 16) in
  let b = Array.init 32 (fun _ -> Support.Rng.int rng 16) in
  let memories = [ ("a", Array.copy a); ("b", Array.copy b) ] in

  let expected = Hls.Interp.run func ~args:[] ~memories:[ ("a", a); ("b", b) ] in

  (* make the circuit realisable and simulate it *)
  let _ = Core.Flow.seed_back_edges g in
  let sim = Sim.Elastic.run ~memories g in
  Printf.printf "interpreter: %d\ncircuit:     %s  (in %d cycles)\n" expected
    (match sim.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "-")
    sim.Sim.Elastic.cycles;

  (* optimise it and simulate again: same value, better schedule *)
  let outcome = Core.Flow.iterative ~session:(Core.Session.make ()) g in
  let sim2 = Sim.Elastic.run ~memories:[ ("a", Array.copy a); ("b", Array.copy b) ] outcome.Core.Flow.graph in
  Printf.printf "after buffering: %s in %d cycles with %d buffers (levels %d)\n"
    (match sim2.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "-")
    sim2.Sim.Elastic.cycles outcome.Core.Flow.total_buffers outcome.Core.Flow.final_levels;

  (* export for inspection *)
  let oc = open_out "dot_product.dot" in
  Dataflow.Dot.to_channel oc outcome.Core.Flow.graph;
  close_out oc;
  print_endline "wrote dot_product.dot"
