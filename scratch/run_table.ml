let () =
  let rows =
    List.map
      (fun k ->
        let t0 = Unix.gettimeofday () in
        let row = Core.Experiment.run_kernel ~session:(Core.Session.make ()) k in
        Printf.eprintf "[%s done in %.0fs]\n%!" k.Hls.Kernels.name (Unix.gettimeofday () -. t0);
        row)
      Hls.Kernels.all
  in
  Core.Report.table1 Format.std_formatter rows;
  Format.print_newline ();
  Core.Report.figure5 Format.std_formatter rows;
  Format.print_newline ();
  Core.Report.iterations Format.std_formatter rows
