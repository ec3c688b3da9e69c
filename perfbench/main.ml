(* The repository benchmark. See README.md for the workloads, the
   metrics and what each per-layer metric should move.

   One invocation measures one workload. The orchestrating process
   starts fresh child processes of this same executable:
   - set-up children (several, for the [setup_s] median): compile the
     kernels, run the reference interpreter, force the lint catalogue
     and, for a warm workload, prime a cache directory;
   - batch children: one closed-loop batch each, every kernel x flavor
     flow submitted at once to a [Support.Pool] of the workload's width.
     A fresh process per batch keeps batches independent: nothing a
     flow memoizes in process memory carries over to the next batch.
   Children hand their results back by [Marshal] over a pipe.

   Every flow goes through the public API only: [Hls.Kernels.graph] ->
   [Core.Flow.baseline | iterative] under an explicit [Core.Session] ->
   [Placeroute.Sta.analyze ~seed] -> [Sim.Elastic.run], checked against
   [Hls.Kernels.reference]. The MILP runs under a node budget with a
   wall budget far above the run, so only the node budget can bind and
   every circuit is a function of its inputs.

   The last stdout line is one JSON object: end-to-end metrics with
   [--trace 0], per-layer metrics with [--trace 1] (from [Support.Trace]
   spans and counters of traced batches). Tables go to stderr. *)

module Trace = Support.Trace

let milp_budget_s = 3600.
let now = Unix.gettimeofday

(* caches, Chrome traces and the cross-run ledger; ignored by git *)
let state = Filename.concat ".bench_build" "perfbench"

(* ------------------------------------------------------------------ *)
(* Workloads *)

type cache_mode = Disabled | Cold | Warm

type workload = {
  w_name : string;
  kernels : string list;
  nodes : int;  (** B&B node budget of every MILP solve *)
  jobs : int;  (** pool width *)
  cache : cache_mode;
}

let gsums = [ "gsum"; "gsumif" ]

let workloads =
  [
    (* the only kernels cheap enough for the run-length budget; see README.md *)
    { w_name = "cold-compile"; kernels = gsums; nodes = 300; jobs = 2; cache = Cold };
    { w_name = "warm-recompile"; kernels = gsums; nodes = 300; jobs = 2; cache = Warm };
    (* not listed in BENCHMARK.json: single-search B&B throughput, by hand
       (too noisy for a bound on a shared host; see README.md) *)
    { w_name = "milp-search"; kernels = gsums; nodes = 600; jobs = 1; cache = Disabled };
    (* not listed in BENCHMARK.json: the self-test's tiny run *)
    { w_name = "smoke"; kernels = [ "gsum" ]; nodes = 50; jobs = 1; cache = Disabled };
  ]

type flavor = Baseline | Iterative

let flavor_name = function Baseline -> "baseline" | Iterative -> "iterative"

type opts = {
  w : workload;
  seed : int;
  plant : bool;  (** expect a wrong value for the first kernel (self-test) *)
}

(* ------------------------------------------------------------------ *)
(* One flow *)

type job = { kernel : Hls.Kernels.t; reference : int; flavor : flavor }

let job_name j = j.kernel.Hls.Kernels.name ^ "/" ^ flavor_name j.flavor

type flow = {
  name : string;  (** kernel/flavor *)
  flavor : flavor;
  seconds : float;
  error : string option;  (** why the flow failed; [None] when it passed *)
  digest : string;  (** [Serve.Protocol.outcome_digest] *)
  cp : float;
  cycles : int;
  luts : int;
  ffs : int;
  met_target : bool;
  iterations : Core.Flow.iteration list;
  bits_saved : int;
}

let bench_span name f = Trace.with_span ~cat:"bench" ("bench:" ^ name) f

let run_flow opts ~session job =
  let t0 = now () in
  let result =
    try
      let k = job.kernel in
      let g = bench_span "hls.compile" (fun () -> Hls.Kernels.graph k) in
      let o =
        bench_span "core.flow" (fun () ->
            match job.flavor with
            | Baseline -> Core.Flow.baseline ~session g
            | Iterative -> Core.Flow.iterative ~session g)
      in
      let pr =
        bench_span "placeroute.sta" (fun () ->
            Placeroute.Sta.analyze ~seed:opts.seed o.Core.Flow.net o.Core.Flow.lutgraph)
      in
      let sim =
        bench_span "sim.elastic" (fun () ->
            Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) o.Core.Flow.graph)
      in
      let reference = bench_span "hls.interp" (fun () -> Hls.Kernels.reference k) in
      Ok (o, pr, sim, reference)
    with e -> Error ("raised " ^ Printexc.to_string e)
  in
  let seconds = now () -. t0 in
  let flow =
    {
      name = job_name job;
      flavor = job.flavor;
      seconds;
      error = None;
      digest = "";
      cp = 0.;
      cycles = 0;
      luts = 0;
      ffs = 0;
      met_target = false;
      iterations = [];
      bits_saved = 0;
    }
  in
  match result with
  | Error msg -> { flow with error = Some msg }
  | Ok (o, pr, sim, reference) ->
    let error =
      if not sim.Sim.Elastic.finished then Some "simulation did not finish"
      else if reference <> job.reference then
        Some (Printf.sprintf "expected value %d, reference interpreter %d" job.reference reference)
      else if sim.Sim.Elastic.exit_value <> Some reference then
        Some
          (Printf.sprintf "exit value %s, reference %d"
             (match sim.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "none")
             reference)
      else if seconds >= 0.25 *. milp_budget_s then
        Some "flow reached 25% of the MILP wall budget: the dive deadline could have bound"
      else None
    in
    {
      flow with
      error;
      digest = Serve.Protocol.outcome_digest o;
      cp = pr.Placeroute.Sta.cp;
      cycles = sim.Sim.Elastic.cycles;
      luts = pr.Placeroute.Sta.n_luts;
      ffs = pr.Placeroute.Sta.n_ffs;
      met_target = o.Core.Flow.met_target;
      iterations = o.Core.Flow.iterations;
      bits_saved =
        (match o.Core.Flow.narrowing with
        | Some r -> r.Absint.Narrow.r_bits_before - r.Absint.Narrow.r_bits_after
        | None -> 0);
    }

(* ------------------------------------------------------------------ *)
(* Set-up: kernel compile, reference values, lint catalogue *)

let prepare opts =
  ignore (Lint.Engine.catalogue ());
  List.concat_map
    (fun name ->
      let kernel = Hls.Kernels.by_name name in
      ignore (Hls.Kernels.graph kernel);
      let reference = Hls.Kernels.reference kernel in
      let reference =
        if opts.plant && name = List.hd opts.w.kernels then reference + 1 else reference
      in
      [ { kernel; reference; flavor = Baseline }; { kernel; reference; flavor = Iterative } ])
    opts.w.kernels

(* ------------------------------------------------------------------ *)
(* One batch *)

type batch = {
  flows : flow list;
  wall : float;
  cpu : float;  (** process user + system seconds during the batch *)
  puts : int;  (** cache entries written *)
  rss_mb : float;  (** the child's peak resident set *)
  report : Trace.report option;  (** traced batches only *)
}

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  scan ()

let with_store dir f =
  let cache = Cache.Session.of_dir dir in
  Fun.protect ~finally:(fun () -> Cache.Session.finish cache) (fun () -> f cache)

let run_batch opts ~traced ~cache jobs =
  let w = opts.w in
  let session = Core.Session.make ~cache ~milp_nodes:w.nodes ~milp_budget_s () in
  if traced then Trace.start ();
  let t0 = now () and cpu0 = cpu_seconds () in
  let flows =
    bench_span "batch" @@ fun () ->
    let ctx = Trace.current_context () in
    Support.Pool.run ~jobs:w.jobs (fun pool ->
        jobs
        |> List.map (fun j ->
               Support.Pool.submit pool (fun () ->
                   Trace.with_context ctx (fun () ->
                       bench_span ("flow:" ^ job_name j) (fun () -> run_flow opts ~session j))))
        |> List.map Support.Pool.await)
  in
  let wall = now () -. t0 and cpu = cpu_seconds () -. cpu0 in
  let report = if traced then Some (Trace.stop ()) else None in
  let puts = match Cache.Session.store cache with Some s -> Cache.Store.puts s | None -> 0 in
  { flows; wall; cpu; puts; rss_mb = 0.; report }

(* ------------------------------------------------------------------ *)
(* Child roles *)

let primed_file dir = Filename.concat dir "primed.tsv"

(* Set-up child: everything before the first timed batch. A warm
   workload primes [dir] by compiling every flow once and records each
   flow's digest for the warm batches to match. *)
let setup_child opts ~dir =
  let jobs = prepare opts in
  match opts.w.cache with
  | Warm ->
    let b = with_store dir (fun cache -> run_batch opts ~traced:false ~cache jobs) in
    let oc = open_out (primed_file dir) in
    List.iter (fun f -> Printf.fprintf oc "%s\t%s\n" f.name f.digest) b.flows;
    close_out oc
  | Disabled | Cold -> ()

let batch_child opts ~dir ~traced =
  let jobs = prepare opts in
  let b =
    match opts.w.cache with
    | Disabled -> run_batch opts ~traced ~cache:Cache.Session.disabled jobs
    | Cold | Warm -> with_store dir (fun cache -> run_batch opts ~traced ~cache jobs)
  in
  let b = { b with rss_mb = peak_rss_mb () } in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (b : batch) [];
  flush stdout

(* ------------------------------------------------------------------ *)
(* Orchestration *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let child_args opts role extra =
  Array.of_list
    ([
       Sys.executable_name;
       "--workload"; opts.w.w_name;
       "--seed"; string_of_int opts.seed;
       "--role"; role;
     ]
    @ (if opts.plant then [ "--plant-wrong-reference" ] else [])
    @ extra)

let wait_ok pid what =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (what ^ " child failed")

(* Returns the set-up time measured from the child's spawn to its exit. *)
let spawn_setup opts ~dir =
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name (child_args opts "setup" [ "--dir"; dir ])
      Unix.stdin Unix.stderr Unix.stderr
  in
  wait_ok pid "set-up";
  now () -. t0

let spawn_batch opts ~dir ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (child_args opts "batch" ([ "--dir"; dir ] @ if traced then [ "--trace-batch" ] else []))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let b = try Some (Marshal.from_channel ic : batch) with End_of_file | Failure _ -> None in
  close_in ic;
  wait_ok pid "batch";
  match b with Some b -> b | None -> failwith "batch child sent no result"

(* Batches until the time is spent, and at least [min_batches]: a run's
   first batch tends to be its slowest, and a median of three leaves it
   out. *)
let repeat ~seconds ~min_batches run =
  let t0 = now () in
  let rec go acc n =
    let acc = run n :: acc in
    let elapsed = now () -. t0 in
    if n + 1 < min_batches || elapsed *. float_of_int (n + 2) /. float_of_int (n + 1) <= seconds
    then go acc (n + 1)
    else List.rev acc
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Checks *)

let read_tsv path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec lines acc =
      match input_line ic with
      | l -> (
        match String.index_opt l '\t' with
        | Some i ->
          lines ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
        | None -> lines acc)
      | exception End_of_file -> List.rev acc
    in
    lines []

let write_tsv path rows =
  Trace.ensure_parent_dir path;
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out tmp in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) rows;
  close_out oc;
  Sys.rename tmp path

(* The seed-independent result of a flow. *)
let flow_fact f =
  Printf.sprintf "digest=%s cycles=%d luts=%d ffs=%d iterations=%d" f.digest f.cycles f.luts f.ffs
    (List.length f.iterations)

(* Failed flows with their reasons: the flow's own checks, then every
   batch must repeat the first one and a warm flow its priming digest. *)
let flow_failures ~primed batches =
  let first = match batches with b :: _ -> b.flows | [] -> [] in
  List.concat_map
    (fun b ->
      List.filter_map
        (fun f ->
          match f.error with
          | Some e -> Some (f, e)
          | None -> (
            match List.find_opt (fun g -> g.name = f.name) first with
            | Some g when g.error = None && flow_fact g <> flow_fact f ->
              Some (f, "result differs between batches of one run")
            | _ -> (
              match List.assoc_opt f.name primed with
              | Some d when d <> f.digest -> Some (f, "digest differs from the priming pass")
              | _ -> None)))
        b.flows)
    batches

(* The machine-independent counters of a traced batch. *)
let counter_fact b =
  match b.report with
  | None -> None
  | Some r ->
    Some
      (String.concat " "
         (List.map
            (fun n -> Printf.sprintf "%s=%d" n (Trace.counter r n))
            [ "milp.bb.nodes"; "milp.simplex.pivots"; "techmap.cuts.enumerated"; "tv.vectors" ]
         @ [ Printf.sprintf "sim.cycles=%d" (List.fold_left (fun a f -> a + f.cycles) 0 b.flows) ]))

(* Cross-run repeatability: the first run of a source version records
   the seed-independent facts of the workload; every later run of the
   same sources must repeat them exactly. Returns the mismatches. *)
let ledger_mismatches path batches =
  let facts =
    (match batches with
    | b :: _ ->
      List.filter_map
        (fun f -> if f.error = None then Some ("flow " ^ f.name, flow_fact f) else None)
        b.flows
    | [] -> [])
    @ List.filter_map (fun b -> Option.map (fun c -> ("counters", c)) (counter_fact b)) batches
  in
  let known = read_tsv path in
  let mismatches =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k known with
        | Some v' when v' <> v -> Some (Printf.sprintf "%s: %s, recorded %s" k v v')
        | _ -> None)
      facts
  in
  (* the first traced batch of the first traced run sets the counters *)
  let fresh =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
      known facts
  in
  if fresh <> known then write_tsv path fresh;
  mismatches

(* Informational: the committed Table I rows, when bench_output.txt is
   present. CP depends on the placement seed, so it is compared at the
   seed Table I was made with (7) only. *)
let table1_rows () =
  match open_in "bench_output.txt" with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let pair s =
      match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
      | [ a; b ] -> Some (a, b)
      | _ -> None
    in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | l -> (
        match String.split_on_char '|' l with
        | name :: cp :: cyc :: _ :: _ :: luts :: _ :: ffs :: _ -> (
          match (pair cp, pair cyc, pair luts, pair ffs) with
          | Some (cp_p, cp_i), Some (c_p, c_i), Some (l_p, l_i), Some (f_p, f_i) ->
            let name = String.trim name in
            go
              ((name ^ "/baseline", (cp_p, c_p, l_p, f_p))
              :: (name ^ "/iterative", (cp_i, c_i, l_i, f_i))
              :: acc)
          | _ -> go acc)
        | _ -> go acc)
    in
    go []

let report_table1 ~seed flows =
  match table1_rows () with
  | [] -> ()
  | rows ->
    let same f =
      match List.assoc_opt f.name rows with
      | Some (cp, c, l, ff) ->
        (seed <> 7 || cp = Printf.sprintf "%.2f" f.cp)
        && (c, l, ff) = (string_of_int f.cycles, string_of_int f.luts, string_of_int f.ffs)
      | None -> false
    in
    Printf.eprintf "[perfbench] table I: %d of %d flows equal their bench_output.txt row (%s)\n"
      (List.length (List.filter same flows))
      (List.length flows)
      (if seed = 7 then "CP, cycles, LUTs, FFs" else "cycles, LUTs, FFs; CP only at seed 7")

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let end_to_end ~setups batches =
  let first = (List.hd batches).flows in
  let ok = List.filter (fun f -> f.error = None) first in
  let iter = List.filter (fun f -> f.flavor = Iterative) first in
  let flows = List.concat_map (fun b -> b.flows) batches in
  Printf.eprintf "[perfbench] medians over %d set-ups, %d batches, %d flows\n" (List.length setups)
    (List.length batches) (List.length flows);
  [
    metric "setup_s" "s" (median setups);
    metric "wall_s" "s" (median (List.map (fun b -> b.wall) batches));
    (* per flow its median over batches, then the median over flows:
       robust where the flows' times form separate clusters *)
    metric "flow_s_p50" "s"
      (median
         (List.map
            (fun f ->
              median
                (List.filter_map
                   (fun g -> if g.name = f.name then Some g.seconds else None)
                   flows))
            first));
    metric "peak_rss_mb" "MB" (median (List.map (fun b -> b.rss_mb) batches));
    metric "exec_ns_geomean" "ns" (geomean (List.map (fun f -> f.cp *. float_of_int f.cycles) ok));
    metric "luts_geomean" "count" (geomean (List.map (fun f -> float_of_int f.luts) ok));
    metric "ffs_geomean" "count" (geomean (List.map (fun f -> float_of_int f.ffs) ok));
    metric "target_met_frac" "ratio"
      (ratio
         (sum (fun f -> if f.met_target then 1. else 0.) iter)
         (float_of_int (List.length iter)));
  ]

(* Every value is a mean per traced batch. *)
let per_layer w ~untraced traced =
  let n = float_of_int (List.length traced) in
  let reports = List.filter_map (fun b -> b.report) traced in
  let rows = List.concat_map Trace.summary reports in
  let rows_sum pick keep = sum (fun r -> if keep r.Trace.row_name then pick r else 0.) rows /. n in
  let total name = rows_sum (fun r -> r.Trace.row_total) (( = ) name) in
  let self name = rows_sum (fun r -> r.Trace.row_self) (( = ) name) in
  let counter name = sum (fun r -> float_of_int (Trace.counter r name)) reports /. n in
  let per_flow f = sum (fun b -> sum f b.flows) traced /. n in
  let per_iteration f = per_flow (fun fl -> sum f fl.iterations) in
  let per_batch f = sum f traced /. n in
  let ms s = s *. 1000. in
  let solves = per_iteration (fun _ -> 1.) in
  let hits = counter "cache.hit" and misses = counter "cache.miss" in
  let cycles = per_flow (fun f -> float_of_int f.cycles) in
  let sim_s = total "bench:sim.elastic" and bb_s = total "milp:bb" and equiv_s = total "tv:equiv" in
  let wall bs = median (List.map (fun b -> b.wall) bs) in
  [
    metric "hls.compile_ms" "ms" (ms (total "bench:hls.compile"));
    metric "hls.interp_ms" "ms" (ms (total "bench:hls.interp"));
    metric "core.flow_ms" "ms" (ms (total "bench:core.flow"));
    metric "core.iterations" "count" solves;
    metric "core.synthmap_reused" "count" (counter "flow.synthmap.reused");
    metric "absint.ms" "ms" (ms (self "flow:absint"));
    metric "absint.bits_saved" "bits" (per_flow (fun f -> float_of_int f.bits_saved));
    metric "tv.narrow_gate_ms" "ms" (ms (total "lint:tv-narrow"));
    metric "tv.equiv_ms" "ms" (ms equiv_s);
    metric "tv.vectors" "count" (counter "tv.vectors");
    metric "tv.luts" "count" (counter "tv.luts");
    metric "tv.cos" "count" (counter "tv.cos");
    metric "tv.lut_checks_per_s" "1/s" (ratio (counter "tv.luts") equiv_s);
    metric "netlist.elaborate_ms" "ms" (ms (self "flow:synth+map"));
    metric "techmap.synth_ms" "ms" (ms (total "techmap:synth"));
    metric "techmap.map_ms" "ms" (ms (total "techmap:map"));
    metric "techmap.cuts_enumerated" "count" (counter "techmap.cuts.enumerated");
    metric "techmap.cuts_kept" "count" (counter "techmap.cuts.kept");
    metric "timing.model_ms" "ms" (ms (total "flow:model"));
    metric "timing.delay_nodes" "count"
      (per_iteration (fun i -> float_of_int i.Core.Flow.delay_nodes));
    metric "timing.fake_nodes" "count"
      (per_iteration (fun i -> float_of_int i.Core.Flow.fake_nodes));
    metric "buffering.formulate_ms" "ms" (ms (self "flow:milp"));
    metric "buffering.solves" "count" solves;
    metric "milp.bb_ms" "ms" (ms bb_s);
    metric "milp.bb.nodes" "count" (counter "milp.bb.nodes");
    metric "milp.lp.relaxations" "count" (counter "milp.lp.relaxations");
    metric "milp.simplex.pivots" "count" (counter "milp.simplex.pivots");
    metric "milp.simplex.refactors" "count" (counter "milp.simplex.refactors");
    metric "milp.bb.fathomed_by_cert" "count" (counter "milp.bb.fathomed_by_cert");
    metric "milp.bb.rc_fixed" "count" (counter "milp.bb.rc_fixed");
    metric "milp.nodes_per_s" "1/s" (ratio (counter "milp.bb.nodes") bb_s);
    metric "milp.pivots_per_s" "1/s" (ratio (counter "milp.simplex.pivots") bb_s);
    metric "milp.proved_frac" "ratio"
      (ratio (per_iteration (fun i -> if i.Core.Flow.milp_proved then 1. else 0.)) solves);
    metric "analysis.certify_ms" "ms" (ms (total "flow:certify"));
    metric "perf.howard.iters" "count" (counter "perf.howard.iters");
    metric "lint.gate_ms" "ms"
      (ms (rows_sum (fun r -> r.Trace.row_self) (String.starts_with ~prefix:"lint:")));
    metric "placeroute.place_ms" "ms" (ms (total "placeroute:place"));
    metric "placeroute.sta_ms" "ms" (ms (total "bench:placeroute.sta" -. total "placeroute:place"));
    metric "sim.elastic_ms" "ms" (ms sim_s);
    metric "sim.cycles" "count" cycles;
    metric "sim.cycles_per_s" "1/s" (ratio cycles sim_s);
    metric "cache.hit" "count" hits;
    metric "cache.miss" "count" misses;
    metric "cache.bytes" "bytes" (counter "cache.bytes");
    metric "cache.hit_rate" "ratio" (ratio hits (hits +. misses));
    metric "cache.puts" "count" (per_batch (fun b -> float_of_int b.puts));
    metric "pool.busy_frac" "ratio"
      (per_batch (fun b ->
           ratio (sum (fun f -> f.seconds) b.flows) (b.wall *. float_of_int w.jobs)));
    metric "pool.cpu_s" "s" (per_batch (fun b -> b.cpu));
    metric "trace.overhead_frac" "ratio" (ratio (wall traced) (wall untraced) -. 1.);
  ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let print_result ~attempted ~failed metrics =
  List.iter (fun m -> Printf.eprintf "  %-26s %16.6g %s\n" m.m_name m.m_value m.m_unit) metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value)
          m.m_unit)
      metrics
  in
  flush stderr;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " body)

(* The top-level run: set-ups, untraced batches, then (with
   [--trace 1]) traced batches; checks; one JSON line. *)
let orchestrate opts ~seconds ~traced ~source_id =
  let w = opts.w in
  let run_dir = Filename.concat state (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> rm_rf run_dir) @@ fun () ->
  let setup_dir i = Filename.concat run_dir (Printf.sprintf "setup-%d" i) in
  (* without priming a set-up is a few ms of process start, whose jitter
     needs many samples for a steady median *)
  let n_setups = match w.cache with Warm -> 3 | Disabled | Cold -> 25 in
  let setups =
    List.init n_setups (fun i ->
        if i > 0 then rm_rf (setup_dir (i - 1));
        spawn_setup opts ~dir:(setup_dir i))
  in
  let warm_dir = setup_dir (n_setups - 1) in
  let primed = read_tsv (primed_file warm_dir) in
  let batch ~traced n =
    let dir =
      match w.cache with
      | Warm -> warm_dir
      | Disabled | Cold -> Filename.concat run_dir (Printf.sprintf "batch-%d" n)
    in
    let b = spawn_batch opts ~dir ~traced in
    if w.cache = Cold then rm_rf dir;
    b
  in
  let untraced =
    repeat
      ~seconds:(if traced then seconds /. 2. else seconds)
      ~min_batches:(if traced then 1 else 3)
      (batch ~traced:false)
  in
  let traced_batches =
    if traced then repeat ~seconds:(seconds /. 2.) ~min_batches:1 (batch ~traced:true) else []
  in
  let batches = untraced @ traced_batches in
  let failures = flow_failures ~primed batches in
  let repeat_errors =
    (match List.filter_map counter_fact traced_batches with
    | c :: rest when List.exists (( <> ) c) rest -> [ "counters differ between traced batches" ]
    | _ -> [])
    @
    if source_id = "" then []
    else
      ledger_mismatches
        (Filename.concat state (Printf.sprintf "ledger-%s-%s.tsv" source_id w.w_name))
        batches
  in
  List.iter (fun (f, e) -> Printf.eprintf "FAILED %s: %s\n" f.name e) failures;
  List.iter (fun e -> Printf.eprintf "FAILED repeatability: %s\n" e) repeat_errors;
  let all_flows = List.concat_map (fun b -> b.flows) batches in
  let attempted = List.length all_flows in
  let failed =
    if repeat_errors <> [] then attempted
    else List.length (List.filter (fun f -> List.exists (fun (g, _) -> g == f) failures) all_flows)
  in
  Printf.eprintf "[perfbench] %s: %d of %d flows failed (failed_frac %.3f)\n" w.w_name failed
    attempted
    (ratio (float_of_int failed) (float_of_int attempted));
  report_table1 ~seed:opts.seed (List.hd batches).flows;
  let metrics =
    match traced_batches with
    | { report = Some r; _ } :: _ ->
      let path = Filename.concat state (Printf.sprintf "trace-%s.json" w.w_name) in
      Trace.write_chrome_json r path;
      Printf.eprintf "[perfbench] chrome trace of the first traced batch: %s\n" path;
      Format.eprintf "%a@." Trace.pp_summary r;
      Printf.eprintf "[perfbench] %s per-layer metrics (mean per traced batch, %d traced)\n"
        w.w_name (List.length traced_batches);
      per_layer w ~untraced traced_batches
    | _ ->
      Printf.eprintf "[perfbench] %s end-to-end metrics (seed %d)\n" w.w_name opts.seed;
      end_to_end ~setups untraced
  in
  print_result ~attempted ~failed metrics;
  failed = 0

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10. and trace = ref 0 in
  let source_id = ref "" in
  let plant = ref false and role = ref "" and dir = ref "" and trace_batch = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N placement seed (default 7, the Table I seed)");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--source-id", Arg.Set_string source_id, "ID source version keying the cross-run ledger");
      ("--plant-wrong-reference", Arg.Set plant, " expect a wrong value for the first kernel");
      ("--role", Arg.Set_string role, "setup|batch (internal: child process)");
      ("--dir", Arg.Set_string dir, "DIR (internal) the child's cache directory");
      ("--trace-batch", Arg.Set trace_batch, " (internal) trace the child's batch");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" !workload;
      exit 2
  in
  let opts = { w; seed = !seed; plant = !plant } in
  match !role with
  | "setup" -> setup_child opts ~dir:!dir
  | "batch" -> batch_child opts ~dir:!dir ~traced:!trace_batch
  | _ ->
    if
      not
        (orchestrate opts ~seconds:!seconds ~traced:(!trace = 1) ~source_id:!source_id)
    then exit 1
