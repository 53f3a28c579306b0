(** One signature over the three simulation fidelities.

    The repo has three traffic engines — {!Network} (coarse
    store-and-forward, fault-aware), {!Wormhole} (lockstep worms over
    virtual channels) and {!Flitsim} (cycle-accurate VOQ routers with
    credits and serialization).  Each satisfies {!S}, and an engine
    value is one of them packed as a first-class module with its state,
    so benchkit, resilience campaigns, sweeps, {!Traffic} and the CLI
    select fidelity per run ([nocsynth simulate --engine
    coarse|wormhole|flit]) without a per-engine code path.

    Verdicts are unified: the coarse engine cannot deadlock (per-hop
    buffering with retries), so it only ever reports {!Idle} or
    {!Limit}; the flit and wormhole engines report genuine circular waits
    as {!Deadlock}. *)

type kind = Coarse | Wormhole | Flit

val all_kinds : kind list
(** In increasing fidelity order: [Coarse; Wormhole; Flit]. *)

val kind_name : kind -> string
(** ["coarse"] / ["wormhole"] / ["flit"]. *)

val kind_of_name : string -> kind option

(** What an engine provides.  [Network], [Wormhole] and [Flitsim]
    satisfy it; the coarse and flit engines answer [vc_truncated] with a
    constant [false] (they have no virtual channels). *)
module type S = sig
  type t

  val now : t -> int

  val inject :
    ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
  (** [size_flits] defaults to 1 on every engine.
      @raise Invalid_argument if the architecture has no route. *)

  val step : t -> unit

  val pending : t -> int
  (** Packets injected but not yet delivered (nor, on the coarse engine,
      dropped). *)

  val run_until_idle : ?max_cycles:int -> t -> [ `Idle | `Deadlock | `Limit of int ]
  (** [max_cycles] defaults to the engine's own bound. *)

  val deliveries : t -> Packet.delivery list
  (** In delivery order. *)

  val flit_hops : t -> int

  val metrics : t -> (string * float) list
  (** Metric snapshot; the keys are engine-specific. *)

  val vc_truncated : t -> bool
  (** [true] iff the wormhole engine's VC allocation was capped below
      what the increasing-channel discipline required (see
      {!Wormhole.vc_truncated}) — a [Deadlock] verdict is then
      attributable to under-provisioned VCs rather than the
      architecture. *)

  val conserved : t -> bool
  (** The engine's accounting invariant: every injected packet (flit, on
      the flit engine) is delivered, dropped or still in flight.  Holds
      after every [step] unless the engine itself is broken. *)
end

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

val of_network : Network.t -> t
(** A coarse engine over a network the caller built — with a routing
    policy, a fault policy or scheduled faults — and keeps driving
    directly for what only {!Network} has (faults, energy counters). *)

val kind : t -> kind
val name : t -> string

include S with type t := t
(** Each operation calls the packed engine's. *)

type verdict = Idle | Deadlock | Limit of int
(** [Limit n]: the cycle budget ran out with [n] packets outstanding. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_name : verdict -> string

val run_until_idle : ?max_cycles:int -> t -> verdict
(** {!S.run_until_idle} with the unified verdict. *)

val summary : t -> Stats.summary
(** {!Stats.summarize} of {!deliveries}. *)
