let () =
  let name = Sys.argv.(1) in
  let k = Hls.Kernels.by_name name in
  let t0 = Unix.gettimeofday () in
  let row = Core.Experiment.run_kernel ~session:(Core.Session.make ()) k in
  Core.Report.table1 Format.std_formatter [ row ];
  Core.Report.iterations Format.std_formatter [ row ];
  Printf.printf "(total %.1fs)\n" (Unix.gettimeofday () -. t0)
