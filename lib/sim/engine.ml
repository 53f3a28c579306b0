type kind = Coarse | Wormhole | Flit

let all_kinds = [ Coarse; Wormhole; Flit ]

let kind_name = function Coarse -> "coarse" | Wormhole -> "wormhole" | Flit -> "flit"

let kind_of_name = function
  | "coarse" -> Some Coarse
  | "wormhole" -> Some Wormhole
  | "flit" -> Some Flit
  | _ -> None

type t = C of Network.t | W of Wormhole.t | F of Flitsim.t

let create ?coarse_config ?wormhole_config ?flit_config kind arch =
  match kind with
  | Coarse -> C (Network.create ?config:coarse_config arch)
  | Wormhole -> W (Wormhole.create ?config:wormhole_config arch)
  | Flit -> F (Flitsim.create ?config:flit_config arch)

let kind = function C _ -> Coarse | W _ -> Wormhole | F _ -> Flit
let name t = kind_name (kind t)

let now = function C n -> Network.now n | W w -> Wormhole.now w | F f -> Flitsim.now f

let inject ?tag ?payload ?size_flits t ~src ~dst =
  match t with
  | C n -> Network.inject ?tag ?payload ?size_flits n ~src ~dst
  | W w -> Wormhole.inject ?tag ?payload ?size_flits w ~src ~dst
  | F f -> Flitsim.inject ?tag ?payload ?size_flits f ~src ~dst

let step = function C n -> Network.step n | W w -> Wormhole.step w | F f -> Flitsim.step f

let pending = function
  | C n -> Network.pending n
  | W w -> Wormhole.pending w
  | F f -> Flitsim.pending f

type verdict = Idle | Deadlock | Limit of int

let verdict_name = function Idle -> "idle" | Deadlock -> "deadlock" | Limit _ -> "limit"

let pp_verdict ppf = function
  | Idle -> Format.pp_print_string ppf "idle"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Limit n -> Format.fprintf ppf "limit (%d pending)" n

let run_until_idle ?max_cycles t =
  match t with
  | C n -> (
      match Network.run_until_idle ?max_cycles n with
      | `Idle -> Idle
      | `Limit p -> Limit p)
  | W w -> (
      match Wormhole.run_until_idle ?max_cycles w with
      | `Idle -> Idle
      | `Deadlock -> Deadlock
      | `Limit -> Limit (Wormhole.pending w))
  | F f -> (
      match Flitsim.run_until_idle ?max_cycles f with
      | `Idle -> Idle
      | `Deadlock -> Deadlock
      | `Limit p -> Limit p)

let deliveries = function
  | C n -> Network.deliveries n
  | W w ->
      List.map
        (fun (d : Wormhole.delivery) ->
          { Network.packet = d.Wormhole.packet; Network.delivered_at = d.Wormhole.delivered_at })
        (Wormhole.deliveries w)
  | F f ->
      List.map
        (fun (d : Flitsim.delivery) ->
          { Network.packet = d.Flitsim.packet; Network.delivered_at = d.Flitsim.delivered_at })
        (Flitsim.deliveries f)

let summary t = Stats.summarize (deliveries t)

let flit_hops = function
  | C n -> Network.flit_hops n
  | W w -> Wormhole.flit_hops w
  | F f -> Flitsim.flit_hops f

let metrics = function
  | C n -> Network.metrics n
  | W w -> Wormhole.metrics w
  | F f -> Flitsim.metrics f

let vc_truncated = function C _ | F _ -> false | W w -> Wormhole.vc_truncated w

let flitsim = function F f -> Some f | _ -> None
