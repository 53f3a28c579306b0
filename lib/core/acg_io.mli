(** Plain-text serialization of ACGs for the command-line tools.

    Format: one directed edge per line, [src dst volume bandwidth]
    (vertex ids and volume are integers, bandwidth a float).  Core ids are
    labels: any distinct non-negative integers, placed on the grid
    floorplan in ascending order ({!Noc_energy.Floorplan.of_ids}); blank lines
    and lines starting with [#] are ignored.  Isolated vertices can be
    declared with [vertex <id>].  Negative ids, self-loops and duplicate
    edges are rejected (an ACG edge is a flow between two distinct cores, and the
    edge set is a set).

    The loaders are Result-typed: malformed input yields
    [Error (`Msg m)] where [m] pinpoints the failure as
    ["line <l>, column <c>: <what>"].  The exception-raising entry points
    remain only as a legacy surface. *)

val to_string : Acg.t -> string

val parse : string -> (Acg.t, [ `Msg of string ]) result
(** Parse an ACG from a string.  Errors carry the 1-based line and column
    of the offending token. *)

val load : string -> (Acg.t, [ `Msg of string ]) result
(** Read and parse a file.  Parse errors are prefixed with the path;
    unreadable files become [Error (`Msg ...)] too (no exceptions
    escape). *)

val write_file : path:string -> Acg.t -> unit
