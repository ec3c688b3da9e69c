(* Cross-check the production MILP path (revised simplex + warm starts +
   cert pruning) against a dense-reference branch & bound on the real
   kernel buffering MILPs: objectives must agree to tolerance. *)

module G = Dataflow.Graph
module F = Buffering.Formulation
open Milp

(* the pre-rewrite branch & bound, relaxations solved by the dense
   reference tableau *)
let dense_bb ?(node_limit = 200_000) ?(eps = 1e-6) ?initial lp =
  let maximize, obj_terms = Lp.objective lp in
  let sense = if maximize then 1. else -1. in
  let nv = Lp.n_vars lp in
  let int_vars =
    List.filter
      (fun v -> match Lp.var_kind lp v with Lp.Binary | Lp.Integer -> true | _ -> false)
      (List.init nv (fun i -> i))
  in
  let original_bounds = Array.init nv (fun v -> Lp.bounds lp v) in
  let restore () = Array.iteri (fun v (lo, hi) -> Lp.set_bounds lp v ~lo ~hi) original_bounds in
  let apply_fixes fixes =
    restore ();
    List.iter
      (fun (v, lo, hi) ->
        let cur_lo, cur_hi = Lp.bounds lp v in
        Lp.set_bounds lp v ~lo:(max lo cur_lo) ~hi:(min hi cur_hi))
      fixes
  in
  let frac x = abs_float (x -. Float.round x) in
  let most_fractional x =
    List.fold_left
      (fun best v ->
        let f = frac x.(v) in
        if f > eps then match best with Some (_, bf) when bf >= f -> best | _ -> Some (v, f)
        else best)
      None int_vars
  in
  let incumbent =
    ref
      (match initial with
      | Some x0 when Lp.feasible lp x0 -> Some (Lp.eval_expr obj_terms x0, Array.copy x0)
      | _ -> None)
  in
  let nodes = ref 0 in
  let pending = ref [ (infinity, ([] : (int * float * float) list)) ] in
  let better obj =
    match !incumbent with None -> true | Some (bo, _) -> sense *. obj > (sense *. bo) +. 1e-9
  in
  let result = ref `Running in
  while !result = `Running do
    match !pending with
    | [] -> result := `Done
    | (bound, fixes) :: rest ->
      pending := rest;
      if !nodes >= node_limit then result := `Done
      else begin
        incr nodes;
        let prune =
          match !incumbent with Some (bo, _) -> bound <= (sense *. bo) +. 1e-9 | None -> false
        in
        if not prune then begin
          apply_fixes fixes;
          match Dense_reference.solve lp with
          | Dense_reference.Infeasible | Dense_reference.Unbounded -> ()
          | Dense_reference.Optimal { obj; x } -> (
            if better obj then
              match most_fractional x with
              | None -> incumbent := Some (obj, Array.copy x)
              | Some (v, _) ->
                let f = Float.of_int (int_of_float (floor (x.(v) +. 1e-9))) in
                let lo, hi = original_bounds.(v) in
                let lo = List.fold_left (fun a (w, l, _) -> if w = v then max a l else a) lo fixes in
                let hi = List.fold_left (fun a (w, _, h) -> if w = v then min a h else a) hi fixes in
                let children = ref [] in
                if f >= lo -. 1e-9 then children := (sense *. obj, (v, lo, f) :: fixes) :: !children;
                if f +. 1. <= hi +. 1e-9 then
                  children := (sense *. obj, (v, f +. 1., hi) :: fixes) :: !children;
                (* best-first: keep the list sorted by bound, descending *)
                pending :=
                  List.sort (fun (a, _) (b, _) -> compare b a) (!children @ !pending))
        end
      end
  done;
  restore ();
  match !incumbent with
  | None -> None
  | Some (_, x) ->
    let x = Array.copy x in
    List.iter (fun v -> x.(v) <- Float.round x.(v)) int_vars;
    Some (Lp.eval_expr obj_terms x, x, !nodes)

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
  | Error e -> Printf.printf "revised: error %s\n" e
  | Ok p ->
    Printf.printf "revised: objective=%.9g buffers=%d thetas=[%s]\n" p.F.objective
      (List.length p.F.all_buffered)
      (String.concat ";" (List.map (Printf.sprintf "%.4f") p.F.throughput));
    Printf.printf "lp dims: n_vars=%d n_constrs=%d\n" (Lp.n_vars p.F.lp)
      (Lp.n_constrs p.F.lp);
    if Sys.getenv_opt "DIMS_ONLY" <> None then exit 0;
    Printf.printf "revised solution feasible per Lp.feasible: %b\n"
      (Lp.feasible p.F.lp p.F.solution);
    (* seed the dense search with the revised incumbent: if it proves no
       strictly better point exists, the revised answer is optimal *)
    (match dense_bb ~initial:p.F.solution p.F.lp with
    | Some (obj, _, nodes) ->
      Printf.printf "dense:   objective=%.9g nodes=%d\n" obj nodes;
      let gap = abs_float (obj -. p.F.objective) in
      Printf.printf "gap=%.3g %s\n" gap (if gap < 1e-5 then "AGREE" else "DISAGREE")
    | None -> Printf.printf "dense:   no incumbent\n")
