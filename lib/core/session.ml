exception Cancelled

type t = {
  cache : Cache.Session.t;
  milp_nodes : int option;
  milp_budget_s : float option;
  cancelled : unit -> bool;
  on_status : (string -> unit) option;
}

let never_cancelled () = false

let make ?(cache = Cache.Session.disabled) ?milp_nodes ?milp_budget_s
    ?(cancelled = never_cancelled) ?on_status () =
  { cache; milp_nodes; milp_budget_s; cancelled; on_status }

let check_cancel t = if t.cancelled () then raise Cancelled

let status t msg = match t.on_status with None -> () | Some f -> f msg

let milp_config t (cfg : Buffering.Formulation.config) =
  match t.milp_nodes with
  | None -> cfg
  | Some n -> { cfg with Buffering.Formulation.node_limit = n }

let milp_poll t =
  match t.milp_budget_s with
  | None -> fun () -> check_cancel t
  | Some budget ->
    let deadline = Unix.gettimeofday () +. budget in
    fun () ->
      check_cancel t;
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "buffer MILP wall budget exhausted (%gs)" budget)
