module Lp = Milp.Lp
module Simplex = Milp.Simplex
module Bb = Milp.Bb

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let feps = 1e-5
let float_t = Alcotest.float feps

(* ------------------------------------------------------------------ *)
(* Simplex on known problems *)

let test_lp_basic () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12 *)
  let m = Lp.create "basic" in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constr m [ (1., x); (3., y) ] Lp.Le 6.;
  Lp.set_objective m ~maximize:true [ (3., x); (2., y) ];
  match Simplex.solve m with
  | Simplex.Optimal { obj; x = sol } ->
    check float_t "obj" 12. obj;
    check float_t "x" 4. sol.(x);
    check float_t "y" 0. sol.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_ge_eq () =
  (* min 2x + 3y s.t. x + y = 10, x >= 3 -> x=7? no: min => maximize x
     since coeff smaller: x=10-y; obj = 2(10-y)+3y = 20+y -> y=0, x=10;
     but x >= 3 satisfied. obj 20 *)
  let m = Lp.create "ge_eq" in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 10.;
  Lp.add_constr m [ (1., x) ] Lp.Ge 3.;
  Lp.set_objective m ~maximize:false [ (2., x); (3., y) ];
  match Simplex.solve m with
  | Simplex.Optimal { obj; x = sol } ->
    check float_t "obj" 20. obj;
    check float_t "x" 10. sol.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let m = Lp.create "infeasible" in
  let x = Lp.add_var m "x" in
  Lp.add_constr m [ (1., x) ] Lp.Ge 5.;
  Lp.add_constr m [ (1., x) ] Lp.Le 3.;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  check Alcotest.bool "infeasible" true (Simplex.solve m = Simplex.Infeasible)

let test_lp_unbounded () =
  let m = Lp.create "unbounded" in
  let x = Lp.add_var m "x" in
  Lp.add_constr m [ (-1., x) ] Lp.Le 0.;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  check Alcotest.bool "unbounded" true (Simplex.solve m = Simplex.Unbounded)

let test_lp_bounds () =
  (* variable bounds only: max x + y with x in [1,2], y in [-3,-1] *)
  let m = Lp.create "bounds" in
  let x = Lp.add_var m ~lo:1. ~hi:2. "x" in
  let y = Lp.add_var m ~lo:(-3.) ~hi:(-1.) "y" in
  Lp.set_objective m ~maximize:true [ (1., x); (1., y) ];
  match Simplex.solve m with
  | Simplex.Optimal { obj; x = sol } ->
    check float_t "obj" 1. obj;
    check float_t "x" 2. sol.(x);
    check float_t "y" (-1.) sol.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_free_var () =
  (* free variable: min x s.t. x >= -7 via constraint *)
  let m = Lp.create "free" in
  let x = Lp.add_var m ~lo:neg_infinity "x" in
  Lp.add_constr m [ (1., x) ] Lp.Ge (-7.);
  Lp.set_objective m ~maximize:false [ (1., x) ];
  match Simplex.solve m with
  | Simplex.Optimal { obj; _ } -> check float_t "obj" (-7.) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate () =
  (* degenerate vertex should still terminate *)
  let m = Lp.create "degen" in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 1.;
  Lp.add_constr m [ (1., x) ] Lp.Le 1.;
  Lp.add_constr m [ (1., y) ] Lp.Le 1.;
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  match Simplex.solve m with
  | Simplex.Optimal { obj; _ } -> check float_t "obj" 1. obj
  | _ -> Alcotest.fail "expected optimal"

(* Property: on random LPs over a bounded box, the simplex optimum
   dominates every feasible point of an integer grid sample, and the
   returned point is feasible. *)
let prop_simplex_dominates_grid =
  QCheck.Test.make ~name:"simplex optimum dominates grid samples" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let n = 2 + Support.Rng.int rng 2 in
      let m = Lp.create "rand" in
      let vars = Array.init n (fun i -> Lp.add_var m ~lo:0. ~hi:5. (Printf.sprintf "x%d" i)) in
      let n_constr = 1 + Support.Rng.int rng 3 in
      for _ = 1 to n_constr do
        let terms =
          Array.to_list (Array.map (fun v -> (float_of_int (Support.Rng.int rng 5) -. 1., v)) vars)
        in
        Lp.add_constr m terms Lp.Le (float_of_int (5 + Support.Rng.int rng 10))
      done;
      let obj =
        Array.to_list (Array.map (fun v -> (float_of_int (Support.Rng.int rng 7) -. 2., v)) vars)
      in
      Lp.set_objective m ~maximize:true obj;
      match Simplex.solve m with
      | Simplex.Unbounded -> false (* impossible: box-bounded *)
      | Simplex.Infeasible -> false (* impossible: 0 is feasible *)
      | Simplex.Optimal { obj = opt; x } ->
        if not (Lp.feasible m x) then false
        else begin
          (* enumerate grid points in {0..5}^n *)
          let ok = ref true in
          let point = Array.make n 0. in
          let rec enum i =
            if i = n then begin
              if Lp.feasible m point then
                if Lp.eval_expr obj point > opt +. 1e-4 then ok := false
            end
            else
              for v = 0 to 5 do
                point.(i) <- float_of_int v;
                enum (i + 1)
              done
          in
          enum 0;
          !ok
        end)

(* ------------------------------------------------------------------ *)
(* Branch & bound *)

let test_milp_knapsack () =
  (* knapsack: max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> a,b -> 16 *)
  let m = Lp.create "knap" in
  let a = Lp.add_var m ~kind:Lp.Binary "a" in
  let b = Lp.add_var m ~kind:Lp.Binary "b" in
  let c = Lp.add_var m ~kind:Lp.Binary "c" in
  Lp.add_constr m [ (1., a); (1., b); (1., c) ] Lp.Le 2.;
  Lp.set_objective m ~maximize:true [ (10., a); (6., b); (4., c) ];
  match Bb.solve m with
  | Bb.Optimal { obj; x; proved_optimal; _ } ->
    check float_t "obj" 16. obj;
    check float_t "a" 1. x.(a);
    check float_t "b" 1. x.(b);
    check float_t "c" 0. x.(c);
    check Alcotest.bool "proved" true proved_optimal
  | _ -> Alcotest.fail "expected optimal"

let test_milp_fractional_lp_integral_milp () =
  (* LP relaxation fractional: max x s.t. 2x <= 3, x integer -> 1 *)
  let m = Lp.create "floor" in
  let x = Lp.add_var m ~kind:Lp.Integer ~hi:10. "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 3.;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  match Bb.solve m with
  | Bb.Optimal { obj; _ } -> check float_t "obj" 1. obj
  | _ -> Alcotest.fail "expected optimal"

let test_milp_infeasible_integrality () =
  (* 0.4 <= x <= 0.6, x binary: infeasible *)
  let m = Lp.create "gap" in
  let x = Lp.add_var m ~kind:Lp.Binary "x" in
  Lp.add_constr m [ (1., x) ] Lp.Ge 0.4;
  Lp.add_constr m [ (1., x) ] Lp.Le 0.6;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  check Alcotest.bool "infeasible" true (Bb.solve m = Bb.Infeasible)

let test_milp_mixed () =
  (* mixed: max y + 0.5 t, y binary, t cont <= 2.5, t <= 3 y -> y=1, t=2.5 *)
  let m = Lp.create "mixed" in
  let y = Lp.add_var m ~kind:Lp.Binary "y" in
  let t = Lp.add_var m ~hi:2.5 "t" in
  Lp.add_constr m [ (1., t); (-3., y) ] Lp.Le 0.;
  Lp.set_objective m ~maximize:true [ (1., y); (0.5, t) ];
  match Bb.solve m with
  | Bb.Optimal { obj; x; _ } ->
    check float_t "obj" 2.25 obj;
    check float_t "y" 1. x.(y);
    check float_t "t" 2.5 x.(t)
  | _ -> Alcotest.fail "expected optimal"

(* Property: MILP over binaries only == brute-force enumeration. *)
let prop_bb_matches_bruteforce =
  QCheck.Test.make ~name:"branch&bound matches brute force on binary MILPs" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let n = 2 + Support.Rng.int rng 4 in
      let m = Lp.create "rand" in
      let vars = Array.init n (fun i -> Lp.add_var m ~kind:Lp.Binary (Printf.sprintf "b%d" i)) in
      let n_constr = 1 + Support.Rng.int rng 3 in
      for _ = 1 to n_constr do
        let terms =
          Array.to_list
            (Array.map (fun v -> (float_of_int (Support.Rng.int rng 7) -. 2., v)) vars)
        in
        Lp.add_constr m terms
          (if Support.Rng.bool rng then Lp.Le else Lp.Ge)
          (float_of_int (Support.Rng.int rng 6) -. 1.);
      done;
      let obj =
        Array.to_list (Array.map (fun v -> (float_of_int (Support.Rng.int rng 9) -. 3., v)) vars)
      in
      Lp.set_objective m ~maximize:true obj;
      (* brute force *)
      let best = ref neg_infinity in
      let point = Array.make n 0. in
      for mask = 0 to (1 lsl n) - 1 do
        for i = 0 to n - 1 do
          point.(i) <- float_of_int ((mask lsr i) land 1)
        done;
        if Lp.feasible m point then best := max !best (Lp.eval_expr obj point)
      done;
      match Bb.solve m with
      | Bb.Infeasible -> !best = neg_infinity
      | Bb.Unbounded | Bb.Exhausted -> false
      | Bb.Optimal { obj = got; x; _ } ->
        Lp.feasible m x && abs_float (got -. !best) < 1e-5)

(* Property: general-integer MILPs over a small box match brute force. *)
let prop_bb_integers_bruteforce =
  QCheck.Test.make ~name:"branch&bound matches brute force on integer MILPs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let n = 2 + Support.Rng.int rng 2 in
      let m = Lp.create "randint" in
      let vars =
        Array.init n (fun i -> Lp.add_var m ~kind:Lp.Integer ~hi:3. (Printf.sprintf "k%d" i))
      in
      for _ = 1 to 1 + Support.Rng.int rng 3 do
        let terms =
          Array.to_list (Array.map (fun v -> (float_of_int (Support.Rng.int rng 5) -. 2., v)) vars)
        in
        Lp.add_constr m terms
          (if Support.Rng.bool rng then Lp.Le else Lp.Ge)
          (float_of_int (Support.Rng.int rng 8) -. 2.)
      done;
      let obj =
        Array.to_list (Array.map (fun v -> (float_of_int (Support.Rng.int rng 9) -. 4., v)) vars)
      in
      Lp.set_objective m ~maximize:true obj;
      let best = ref neg_infinity in
      let point = Array.make n 0. in
      let rec enum i =
        if i = n then begin
          if Lp.feasible m point then best := max !best (Lp.eval_expr obj point)
        end
        else
          for v = 0 to 3 do
            point.(i) <- float_of_int v;
            enum (i + 1)
          done
      in
      enum 0;
      match Bb.solve m with
      | Bb.Infeasible -> !best = neg_infinity
      | Bb.Unbounded | Bb.Exhausted -> false
      | Bb.Optimal { obj = got; x; _ } -> Lp.feasible m x && abs_float (got -. !best) < 1e-5)

let test_bb_initial_incumbent () =
  (* a feasible integral initial point is accepted and never worsened *)
  let m = Lp.create "warm" in
  let a = Lp.add_var m ~kind:Lp.Binary "a" in
  let b = Lp.add_var m ~kind:Lp.Binary "b" in
  Lp.add_constr m [ (1., a); (1., b) ] Lp.Le 1.;
  Lp.set_objective m ~maximize:true [ (2., a); (1., b) ] ;
  match Bb.solve ~initial:[| 0.; 1. |] m with
  | Bb.Optimal { obj; _ } -> check float_t "optimum found despite weak start" 2. obj
  | _ -> Alcotest.fail "expected optimal"

let test_bb_clock_independent () =
  (* Jeroslow's knapsack: sum 2*x_i <= 11 over 11 binaries. The LP bound
     stays at 5.5 until six variables are fixed, so proving the optimum 5
     takes hundreds of nodes. A poll that sleeps (a slow or loaded
     machine) must not change what the search returns, whether it runs
     to a proof or stops on the node budget. *)
  let model () =
    let m = Lp.create "jeroslow" in
    let xs = List.init 11 (fun i -> Lp.add_var m ~kind:Lp.Binary (Printf.sprintf "x%d" i)) in
    Lp.add_constr m (List.map (fun x -> (2., x)) xs) Lp.Le 11.;
    Lp.set_objective m ~maximize:true (List.map (fun x -> (1., x)) xs);
    m
  in
  let run ?node_limit poll =
    match Bb.solve ?node_limit ~poll (model ()) with
    | Bb.Optimal { obj; x; proved_optimal; nodes } -> (obj, x, proved_optimal, nodes)
    | _ -> Alcotest.fail "expected an incumbent"
  in
  let slow () = Unix.sleepf 1e-4 in
  let ((obj, _, proved, nodes) as fast) = run ignore in
  check float_t "optimum" 5. obj;
  check Alcotest.bool "proved" true proved;
  check Alcotest.bool "needs more than 100 nodes" true (nodes > 100);
  check Alcotest.bool "slow poll, same answer" true (run slow = fast);
  let ((_, _, proved, nodes) as fast) = run ~node_limit:60 ignore in
  check Alcotest.bool "budget binds" false proved;
  check Alcotest.int "budget spent" 60 nodes;
  check Alcotest.bool "slow poll, same budgeted answer" true (run ~node_limit:60 slow = fast)

let test_bb_rebranch_same_var () =
  (* QCheck counterexample (generator seed 7622): branching the same
     integer variable twice down one path must intersect the box fixes,
     not let the older, wider fix overwrite the newer one — the overwrite
     made the node re-branch forever and exhaust the budget with no
     incumbent, reporting a feasible model infeasible *)
  let m = Lp.create "rebranch" in
  let k0 = Lp.add_var m ~kind:Lp.Integer ~hi:3. "k0" in
  let k1 = Lp.add_var m ~kind:Lp.Integer ~hi:3. "k1" in
  Lp.add_constr m [ (2., k0); (2., k1) ] Lp.Ge 1.;
  Lp.add_constr m [ (2., k0); (-2., k1) ] Lp.Le 1.;
  Lp.set_objective m ~maximize:true [ (3., k0); (-4., k1) ];
  match Bb.solve m with
  | Bb.Optimal { obj; x; proved_optimal; _ } ->
    check float_t "optimum" (-1.) obj;
    check float_t "k0" 1. x.(k0);
    check float_t "k1" 1. x.(k1);
    check Alcotest.bool "proved" true proved_optimal
  | _ -> Alcotest.fail "expected optimal -1 at (1, 1)"

let test_lp_violations () =
  let m = Lp.create "cert" in
  let x = Lp.add_var m ~hi:1. ~kind:Lp.Binary "x" in
  let y = Lp.add_var m ~hi:10. "y" in
  Lp.add_constr m ~name:"cap" [ (1., x); (1., y) ] Lp.Le 1.;
  check Alcotest.int "clean assignment" 0 (List.length (Lp.violations m [| 1.; 0. |]));
  (match Lp.violations m [| 1.; 3. |] with
  | [ Lp.V_constr { row = 0; name = "cap"; lhs; _ } ] -> check float_t "lhs" 4. lhs
  | _ -> Alcotest.fail "expected one row violation");
  (match Lp.violations m [| 0.5; 0. |] with
  | [ Lp.V_integrality { var; value } ] ->
    check Alcotest.int "var" x (check Alcotest.bool "frac" true (value = 0.5); var)
  | _ -> Alcotest.fail "expected one integrality violation");
  (match Lp.violations m [| 1.; -2. |] with
  | [ Lp.V_bound { var; _ } ] -> check Alcotest.int "y out of bounds" y var
  | _ -> Alcotest.fail "expected one bound violation");
  match Lp.violations m [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on length mismatch"

let test_lp_feasible_check () =
  let m = Lp.create "feas" in
  let x = Lp.add_var m ~hi:2. "x" in
  Lp.add_constr m [ (1., x) ] Lp.Ge 1.;
  check Alcotest.bool "ok" true (Lp.feasible m [| 1.5 |]);
  check Alcotest.bool "bound violated" false (Lp.feasible m [| 2.5 |]);
  check Alcotest.bool "constr violated" false (Lp.feasible m [| 0.5 |])

let suite =
  [
    ("lp basic", `Quick, test_lp_basic);
    ("lp ge/eq", `Quick, test_lp_ge_eq);
    ("lp infeasible", `Quick, test_lp_infeasible);
    ("lp unbounded", `Quick, test_lp_unbounded);
    ("lp variable bounds", `Quick, test_lp_bounds);
    ("lp free variable", `Quick, test_lp_free_var);
    ("lp degenerate", `Quick, test_lp_degenerate);
    ("lp feasibility check", `Quick, test_lp_feasible_check);
    qtest prop_simplex_dominates_grid;
    ("milp knapsack", `Quick, test_milp_knapsack);
    ("milp floor", `Quick, test_milp_fractional_lp_integral_milp);
    ("milp integrality infeasible", `Quick, test_milp_infeasible_integrality);
    ("milp mixed", `Quick, test_milp_mixed);
    qtest prop_bb_matches_bruteforce;
    qtest prop_bb_integers_bruteforce;
    ("bb initial incumbent", `Quick, test_bb_initial_incumbent);
    ("bb re-branch same variable", `Quick, test_bb_rebranch_same_var);
    ("lp violations certificate", `Quick, test_lp_violations);
    ("bb result independent of the clock", `Quick, test_bb_clock_independent);
  ]
