(** One façade over the three simulation fidelities.

    The repo grew three traffic engines with deliberately parallel APIs —
    {!Network} (coarse store-and-forward, fault-aware), {!Wormhole}
    (lockstep worms over virtual channels) and {!Flitsim} (cycle-accurate
    VOQ routers with credits and serialization).  This module packages
    them behind one dispatch type so benchkit, resilience campaigns,
    sweeps and the CLI select fidelity per run
    ([nocsynth simulate --engine coarse|wormhole|flit]) instead of hard
    -coding one model.

    Verdicts are unified: the coarse engine cannot deadlock (per-hop
    buffering with retries), so its [`Limit] maps to {!Limit}; the flit
    and wormhole engines report genuine circular waits as {!Deadlock}. *)

type kind = Coarse | Wormhole | Flit

val all_kinds : kind list
(** In increasing fidelity order: [Coarse; Wormhole; Flit]. *)

val kind_name : kind -> string
(** ["coarse"] / ["wormhole"] / ["flit"]. *)

val kind_of_name : string -> kind option

type t

val create :
  ?coarse_config:Network.config ->
  ?wormhole_config:Wormhole.config ->
  ?flit_config:Flitsim.config ->
  kind ->
  Noc_core.Synthesis.t ->
  t
(** Only the config matching [kind] is consulted; the others are accepted
    so callers can thread one record of knobs around. *)

val kind : t -> kind
val name : t -> string

val now : t -> int

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** [size_flits] defaults to 1 on every engine.
    @raise Invalid_argument if the architecture has no route. *)

val step : t -> unit
val pending : t -> int

type verdict = Idle | Deadlock | Limit of int
(** [Limit n]: the cycle budget ran out with [n] packets outstanding. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_name : verdict -> string

val run_until_idle : ?max_cycles:int -> t -> verdict

val deliveries : t -> Network.delivery list
(** Unified view: every engine's deliveries as the coarse engine's record
    (packet + delivery cycle). *)

val summary : t -> Stats.summary

val flit_hops : t -> int

val metrics : t -> (string * float) list
(** The underlying engine's metric snapshot (keys are engine-specific). *)

val vc_truncated : t -> bool
(** [true] iff this is a wormhole engine whose VC allocation was capped
    below what the increasing-channel discipline required (see
    {!Wormhole.vc_truncated}) — a [Deadlock] verdict is then attributable
    to under-provisioned VCs rather than the architecture.  Always
    [false] for the other engines. *)

val flitsim : t -> Flitsim.t option
(** The underlying flit engine, for callers that check its conservation
    invariant; [None] for the other kinds. *)
