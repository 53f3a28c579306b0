(** One cycle-accurate VOQ router: the building block of {!Flitsim}.

    The microarchitecture follows the classic input-queued router used by
    NoC prototypes of the paper's era (and by the reference RTL designs
    this engine is validated against): every input port — the local
    network interface plus one per incoming link — keeps a {e virtual
    output queue} (VOQ) per output port, so a flit blocked on one output
    never head-of-line-blocks traffic for another.  Each output port runs
    an independent round-robin arbiter over the VOQs that target it, and
    sends are gated on credit-based backpressure: the output port holds a
    {!Credit.t} mirroring the free space of the downstream VOQ its flits
    will land in (see {!Flitsim} for the wiring).

    This module owns the {e state} — queues, arbiter pointers, link
    occupancy — and the arbitration primitive; the clocking discipline
    (what moves in which phase of a cycle) lives in {!Flitsim}. *)

type in_key = Local | From of int
(** Input port: the router's own network interface, or the link from an
    upstream router. *)

type out_key = Eject | To of int
(** Output port: the router's ejection (sink) port, or the link to a
    downstream router. *)

type flit = {
  packet : Packet.t;
  idx : int;  (** 0-based flit index; [idx = size_flits - 1] is the tail *)
  mutable hop : int;
      (** index into [packet.route] of the router currently holding (or
          about to receive) the flit *)
  path : voq array;
      (** the VOQ the flit occupies at each hop of its route, resolved once
          per route: [path.(hop)] is the queue it arrives in, and
          [path.(hop + 1)] holds the credit counter its next send needs *)
}

and entry = { flit : flit; mutable ready_at : int }
(** A buffered flit; [ready_at] is the first cycle the switch may move it
    (models the router's internal pipeline latency). *)

and voq = {
  input : in_key;
  output : out_key;
  port : int;  (** index of the [output] port in the router's [outputs] *)
  q : entry Queue.t;  (** bounded by the engine at [fifo_depth] *)
  credits : Credit.t;
      (** the credit counter the {e upstream} sender of [input] consults
          before putting a flit on the wire towards this queue; unused
          (always full) for [Local] inputs, which are bounded by a direct
          occupancy check instead *)
}

type port = {
  dest : out_key;
  voqs : voq array;
      (** every VOQ of this router targeting [dest], in the fixed
          arbitration order [Local], then [From u] by ascending [u] *)
  mutable rr : int;  (** round-robin pointer into [voqs] *)
  mutable busy_until : int;
      (** link serialization: the earliest cycle a new flit may start
          crossing the link (a flit occupies it for [phits_per_flit]
          cycles) *)
  mutable in_flight : (entry * int) option;
      (** the flit currently on the wire, in the buffer entry it re-enters
          the downstream queue with, and its arrival cycle *)
}

type t = {
  node : int;
  ni : entry Queue.t;
      (** unbounded source queue: packets wait in the network interface,
          not in the fabric *)
  outputs : port array;  (** fixed order: [Eject] first, then [To v] by ascending [v] *)
}

val create : node:int -> preds:int list -> succs:int list -> depth:int -> t
(** A router with one input per element of [Local :: preds] and one output
    per element of [Eject :: succs]; every (input, output) pair gets a VOQ
    of capacity [depth] and a matching credit counter. *)

val find_voq : t -> input:in_key -> output:out_key -> voq
(** @raise Not_found if the router has no such queue. *)

val arbitrate : port -> (voq -> bool) -> voq option
(** [arbitrate p eligible] scans [p.voqs] round-robin starting just after
    the last grant and returns the first queue [eligible] accepts,
    advancing the pointer past it (pointer moves only on a grant, so
    un-granted requests keep their priority). *)
