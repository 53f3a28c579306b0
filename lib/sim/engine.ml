type kind = Coarse | Wormhole | Flit

let all_kinds = [ Coarse; Wormhole; Flit ]

let kind_name = function Coarse -> "coarse" | Wormhole -> "wormhole" | Flit -> "flit"

let kind_of_name = function
  | "coarse" -> Some Coarse
  | "wormhole" -> Some Wormhole
  | "flit" -> Some Flit
  | _ -> None

module type S = sig
  type t

  val now : t -> int

  val inject :
    ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int

  val step : t -> unit
  val pending : t -> int
  val run_until_idle : ?max_cycles:int -> t -> [ `Idle | `Deadlock | `Limit of int ]
  val deliveries : t -> Packet.delivery list
  val flit_hops : t -> int
  val metrics : t -> (string * float) list
  val vc_truncated : t -> bool
  val conserved : t -> bool
end

(* only the wormhole engine has virtual channels to run short of *)
module Coarse_engine = struct
  include Network

  let vc_truncated _ = false
end

module Flit_engine = struct
  include Flitsim

  let vc_truncated _ = false
end

type t = T : kind * (module S with type t = 'a) * 'a -> t

let create ?coarse_config ?wormhole_config ?flit_config kind arch =
  match kind with
  | Coarse -> T (kind, (module Coarse_engine), Network.create ?config:coarse_config arch)
  | Wormhole -> T (kind, (module Wormhole), Wormhole.create ?config:wormhole_config arch)
  | Flit -> T (kind, (module Flit_engine), Flitsim.create ?config:flit_config arch)

let of_network net = T (Coarse, (module Coarse_engine), net)

let kind (T (k, _, _)) = k
let name t = kind_name (kind t)
let now (T (_, (module M), x)) = M.now x

let inject ?tag ?payload ?size_flits (T (_, (module M), x)) ~src ~dst =
  M.inject ?tag ?payload ?size_flits x ~src ~dst

let step (T (_, (module M), x)) = M.step x
let pending (T (_, (module M), x)) = M.pending x

type verdict = Idle | Deadlock | Limit of int

let verdict_name = function Idle -> "idle" | Deadlock -> "deadlock" | Limit _ -> "limit"

let pp_verdict ppf = function
  | Idle -> Format.pp_print_string ppf "idle"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Limit n -> Format.fprintf ppf "limit (%d pending)" n

let run_until_idle ?max_cycles (T (_, (module M), x)) =
  match M.run_until_idle ?max_cycles x with
  | `Idle -> Idle
  | `Deadlock -> Deadlock
  | `Limit n -> Limit n

let deliveries (T (_, (module M), x)) = M.deliveries x
let summary t = Stats.summarize (deliveries t)
let flit_hops (T (_, (module M), x)) = M.flit_hops x
let metrics (T (_, (module M), x)) = M.metrics x
let vc_truncated (T (_, (module M), x)) = M.vc_truncated x
let conserved (T (_, (module M), x)) = M.conserved x
