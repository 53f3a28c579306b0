(** Reference subgraph-isomorphism oracle: exhaustive enumeration over a
    dense adjacency matrix.

    The VF2 engines (the production {!Noc_graph.Vf2} on the CSR kernel,
    and its map-based reference {!Vf2_map} beside this module) order
    candidates, prune with degree look-aheads and deduplicate states; this
    module does none of that.  It tries every injective assignment of pattern vertices to
    target vertices in plain lexicographic order and keeps the ones whose
    pattern edges all land on target edges — a dozen lines that can be
    checked by eye against Definition 3 of the paper, at the price of
    O(n_t^{n_p}) time.  Use it only on small graphs (the differential
    suites stay at or below 9 vertices). *)

type mapping = int Noc_graph.Digraph.Vmap.t
(** Pattern vertex [->] target vertex, as in {!Noc_graph.Vf2.mapping}. *)

val find_all :
  pattern:Noc_graph.Digraph.t -> target:Noc_graph.Digraph.t -> mapping list
(** Every subgraph monomorphism from [pattern] into [target] (injective on
    vertices, every pattern edge mapped to a target edge; the image need
    not be induced).  Enumeration order: pattern vertices ascending, target
    candidates ascending — i.e. lexicographic in the assignment vector. *)

val count : pattern:Noc_graph.Digraph.t -> target:Noc_graph.Digraph.t -> int

val canonical : mapping list -> (int * int) list list
(** Each mapping as its sorted binding list, the whole set sorted: the
    order-insensitive form the differential tests compare engines with. *)

val covered_sets :
  pattern:Noc_graph.Digraph.t ->
  target:Noc_graph.Digraph.t ->
  Noc_graph.Digraph.Edge.t list list
(** The distinct covered-target-edge sets over all monomorphisms, each set
    sorted, the list of sets sorted and deduplicated.  This is the ground
    truth for {!Noc_graph.Vf2.find_distinct_images}: the engines may pick
    different representatives per set, but the set family must agree. *)
