(** The one traffic driver over {!Engine.t}: synthetic Bernoulli flows
    and the one-packet-per-flow burst.

    Flows mirror the ACG: each ACG edge becomes a flow whose injection rate
    is proportional to its bandwidth requirement.  Injection is Bernoulli
    per cycle (a discrete Poisson-like process), deterministic under the
    given PRNG — so every engine driven with the same seed and flows is
    offered the same packets, and fidelity is the only variable. *)

type flow = { src : int; dst : int; size_flits : int; rate : float }
(** [rate] = expected injections per cycle, in [0, 1]. *)

val flows_of_acg : rate_scale:float -> Noc_core.Acg.t -> flow list
(** One flow of 1-flit packets per ACG edge, in edge order, with
    [rate = rate_scale * b(e) / max_b] (all zero-bandwidth edges get
    [rate_scale] — uniform load). *)

val drain_cycles : int
(** 200 000: the drain bound of {!run} and the default of {!burst}, the
    same on every engine, so a [Limit] verdict means the same on each
    fidelity. *)

val run :
  rng:Noc_util.Prng.t ->
  flows:flow list ->
  cycles:int ->
  Engine.t ->
  Engine.verdict * int
(** Drives the engine for [cycles] cycles — each cycle, one Bernoulli
    draw per flow in list order, then a step — and then lets in-flight
    packets drain for at most {!drain_cycles} cycles.  Returns the drain's
    verdict and the number of packets injected; the deliveries are the
    engine's ({!Engine.deliveries}, {!Engine.summary}). *)

type burst = {
  verdict : Engine.verdict;
  delivered : int;
  clean : bool;
      (** the drain went [Idle], every packet was delivered and the
          engine's accounting invariant ({!Engine.conserved}) holds *)
}

val burst : ?max_cycles:int -> size_flits:int -> Engine.t -> (int * int) list -> burst
(** Injects one [size_flits] packet per [(src, dst)] pair, in list order
    at the current cycle, then drains for at most [max_cycles] cycles
    (default {!drain_cycles}). *)

val offered_load : flow list -> float
(** Sum of flow rates: expected packets injected per cycle. *)
