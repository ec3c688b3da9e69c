(* Random-simulation equivalence of two circuit variants (the translation
   validation gate behind [Absint.Narrow]): simulate both on the same
   initial memories and compare the observable outcome — exit value and
   final memory state.

   Round 0 uses the declared zero-initialised memories (the semantics the
   kernels' reference values are defined against); the remaining rounds
   draw random memory images, which in particular exercises load-value
   masking at narrowed widths.  A round where the original does not finish
   within the cycle budget proves nothing about the variant: it is skipped
   and counted, so a caller can tell a pass from a check of nothing. *)

module G = Dataflow.Graph

let default_rounds = 3

let mems_of ~random rng g =
  List.map
    (fun (name, size) ->
      let a = Array.make size 0 in
      if random then
        for i = 0 to size - 1 do
          a.(i) <- Support.Rng.int rng 65536
        done;
      (name, a))
    (G.memories g)

type result = { rounds_run : int; rounds_skipped : int; mismatches : string list }

let check ?(rounds = default_rounds) ?(seed = 0xd1ff) ?config ~original ~variant () =
  let config =
    match config with
    | Some c -> c
    | None -> { Sim.Elastic.max_cycles = 200_000; deadlock_window = 256 }
  in
  let mismatches = ref [] in
  let skipped = ref 0 in
  let add fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  for round = 0 to rounds - 1 do
    let rng = Support.Rng.create (seed + (round * 7919)) in
    let m1 = mems_of ~random:(round > 0) rng original in
    let m2 = List.map (fun (n, a) -> (n, Array.copy a)) m1 in
    let r1 = Sim.Elastic.run ~config ~memories:m1 original in
    if r1.Sim.Elastic.finished then begin
      let r2 = Sim.Elastic.run ~config ~memories:m2 variant in
      if not r2.Sim.Elastic.finished then
        add "round %d: original finished (exit %s) but variant %s" round
          (match r1.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "?")
          (if r2.Sim.Elastic.deadlocked then "deadlocked" else "timed out")
      else begin
        if r1.Sim.Elastic.exit_value <> r2.Sim.Elastic.exit_value then
          add "round %d: exit value %s <> %s" round
            (match r1.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "none")
            (match r2.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "none");
        List.iter
          (fun (name, a1) ->
            match List.assoc_opt name m2 with
            | Some a2 ->
                (* cap the noise; one differing cell is already fatal *)
                Array.iteri
                  (fun i v1 ->
                    if a2.(i) <> v1 && List.length !mismatches < 8 then
                      add "round %d: memory %s[%d] = %d <> %d" round name i v1 a2.(i))
                  a1
            | None -> add "round %d: memory %s missing in variant" round name)
          m1
      end
    end
    else incr skipped
  done;
  if !skipped > 0 then Support.Trace.add "tv.simdiff.skipped" !skipped;
  { rounds_run = rounds - !skipped; rounds_skipped = !skipped; mismatches = List.rev !mismatches }
