(* Probe: how long does the production B&B need to close the gap on a
   kernel MILP when given a large budget?  Builds the same MILP as the
   flow, then re-runs Bb.solve with a 1M-node budget and a 600s wall
   cancel, seeded with the production incumbent.  MILP_BB_DEBUG=1 shows
   gap progress. *)

module G = Dataflow.Graph
module F = Buffering.Formulation
open Milp

let () =
  let name = Sys.argv.(1) in
  let levels = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  let milp_cfg = Core.Flow.default_config.Core.Flow.milp in
  let cp_target = Core.Flow.cp_target levels in
  let k = Hls.Kernels.by_name name in
  let input = Hls.Kernels.graph k in
  let g = G.copy input in
  G.clear_buffers g;
  let back =
    match G.marked_back_edges g with [] -> Dataflow.Analysis.back_edges g | m -> m
  in
  List.iter (fun c -> G.set_buffer g c (Some { G.transparent = false; slots = 2 })) back;
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  let model = Timing.Mapping_aware.build g ~net lg in
  let cfdfcs = Buffering.Cfdfc.extract g in
  match F.solve ~cache:Cache.Session.disabled ~cp_target milp_cfg g model cfdfcs with
  | Error e -> Printf.printf "formulation: error %s\n" e
  | Ok p ->
    Printf.printf "production: objective=%.9g buffers=%d\n" p.F.objective
      (List.length p.F.all_buffered);
    Printf.printf "lp dims: n_vars=%d n_constrs=%d\n" (Lp.n_vars p.F.lp)
      (Lp.n_constrs p.F.lp);
    let t0 = Unix.gettimeofday () in
    (match
       Bb.solve ~node_limit:1_000_000
         ~poll:(Core.Session.milp_poll (Core.Session.make ~milp_budget_s:600. ()))
         ~initial:p.F.solution p.F.lp
     with
    | Bb.Optimal { obj; proved_optimal; nodes; _ } ->
      Printf.printf "probe: objective=%.9g proved=%b nodes=%d wall=%.1fs\n" obj
        proved_optimal nodes
        (Unix.gettimeofday () -. t0)
    | Bb.Infeasible -> print_endline "probe: infeasible"
    | Bb.Unbounded -> print_endline "probe: unbounded"
    | Bb.Exhausted -> print_endline "probe: exhausted")
