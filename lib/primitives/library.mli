(** The communication library of Section 3: an ordered catalog of
    primitives, each with a numeric ID used in decomposition listings
    (the paper's output format ["1: MGG4, Mapping: ..."]). *)

type entry = { id : int; prim : Primitive.t }

type t = entry list

val make : Primitive.t list -> t
(** Numbers the primitives 1, 2, ... in the given order.  The order is the
    order in which the branch-and-bound algorithm tries them. *)

val default : unit -> t
(** The paper's library (Section 3, "minimum gossip and broadcast graphs
    that have efficient 2-D implementations and paths and loops of various
    sizes"):

    {v 1: MGG4   2: G124   3: G123   4: L8 ... 8: L4   9: L3
       10: P6 ... 13: P3 v}

    Deliberately excludes two-vertex primitives (a single link would match
    any edge and no remainder graph could ever arise, contradicting the
    paper's Fig. 2 and Fig. 6 outputs). *)

val extended : unit -> t
(** [default] plus larger gossip graphs (MGG6, MGG8) and broader broadcasts
    (G125, G126, G127): exercises the "further research on library design"
    the paper calls for. *)

val minimal : unit -> t
(** Only MGG4 and G123 — used in ablation experiments. *)

val presets : (string * (unit -> t)) list
(** The named libraries above, by the names the command line's
    [--library] and the service's [library] field accept. *)

val find : t -> int -> entry option
(** Look up an entry by ID. *)

val find_by_name : t -> string -> entry option

val names : t -> string list

val max_diameter : t -> int
(** Largest implementation-graph diameter in the library: the paper's bound
    on the maximum hop count of any synthesized architecture
    (Section 4.3). *)

val pp : Format.formatter -> t -> unit
