(** Flit-level wormhole switching with virtual channels.

    The store-and-forward engine of {!Network} buffers whole packets per
    hop; real NoC prototypes of the paper's era (and its FPGA prototype's
    "packet switching") pipeline {e flits} through the network in wormhole
    fashion: the head flit reserves a virtual channel on each link it
    enters, body flits stream behind it, and the whole worm stalls in place
    — holding its channels — whenever the head blocks.  This engine models
    exactly that, with the textbook one-flit-per-VC buffer abstraction:

    - a packet of [n] flits occupies up to [n] consecutive channels of its
      (fixed) route;
    - each physical channel carries at most one flit per cycle (the VCs
      time-share the link);
    - a worm advances in lockstep — every flit moves one slot — when (a)
      its head can enter the next channel on a free virtual channel (or the
      sink consumes), and (b) it wins the link for every channel it
      occupies this cycle; otherwise it stalls in place;
    - virtual channels are allocated with the increasing-channel-order
      discipline of {!Noc_core.Deadlock.vc_of_hop}, capped at
      [num_vcs - 1];
    - a zero-hop flow ([src = dst]) never touches the fabric: its flits
      stream from the source NI straight into the sink, one per cycle, so
      an [n]-flit packet completes [n] cycles after injection.

    Because stalled worms hold their channels, routes with a cyclic channel
    dependency graph genuinely deadlock when [num_vcs] is too small —
    {!run_until_idle} returns [`Deadlock] — and become live again with the
    virtual channels {!Noc_core.Deadlock.analyze} prescribes.  The test
    suite demonstrates both outcomes on a wrap-around ring.

    The VC cap is a soundness cliff, not a free knob: when the discipline
    wants more channels than [num_vcs] provides, the capped assignment no
    longer establishes deadlock freedom, so the engine counts every such
    worm and reports it ({!vcs_required}, {!vc_truncated}) — a [`Deadlock]
    verdict with [vc_truncated = true] is attributable to under-provisioned
    VCs rather than to the architecture. *)

type config = {
  num_vcs : int;  (** virtual channels per physical link, >= 1 *)
  flit_bits : int;
}

val default_config : config
(** [num_vcs = 2], [flit_bits = 8]. *)

type t

val create : ?config:config -> Noc_core.Synthesis.t -> t

val now : t -> int

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** Queues a worm at its source at the current cycle (amortized O(1));
    returns the packet id.
    @raise Invalid_argument if the architecture has no route. *)

val step : t -> unit

val pending : t -> int

val conserved : t -> bool
(** Every injected worm is delivered or pending; holds after every
    [step] unless the engine itself is broken. *)

val run_until_idle : ?max_cycles:int -> t -> [ `Idle | `Deadlock | `Limit of int ]
(** [`Deadlock] is returned when worms remain but a full arbitration
    round moved none of them — with fixed routes and in-place stalling
    that state is a fixpoint, so it is a genuine circular wait (check
    {!vc_truncated} to tell an under-provisioned-VC deadlock from an
    architectural one).  [`Limit pending] means the cycle budget ran out
    while progress was still being made, with [pending] worms left. *)

val deliveries : t -> Packet.delivery list

val flit_hops : t -> int
(** Total flit-link traversals (for energy accounting, compatible with
    {!Stats}-style counting). *)

val link_flits : t -> int Noc_graph.Digraph.Edge_map.t

val vcs_required : t -> int
(** The largest VC count the increasing-channel discipline asked for over
    all worms injected so far (0 before the first multi-hop worm). *)

val vc_truncated : t -> bool
(** [true] when at least one injected worm needed more VCs than
    [config.num_vcs], i.e. its assignment was capped and the
    deadlock-freedom argument does not cover it. *)

val vc_truncated_count : t -> int
(** How many worms were capped. *)

val metrics : t -> (string * float) list
(** Flat snapshot: cycles, injected/delivered/pending worms, flit hops,
    VC requirement and truncation count. *)
