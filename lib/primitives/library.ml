type entry = { id : int; prim : Primitive.t }

type t = entry list

let make prims = List.mapi (fun i p -> { id = i + 1; prim = p }) prims

let default () =
  make
    [
      Primitive.gossip 4;
      Primitive.broadcast 5;
      (* G124 *)
      Primitive.broadcast 4;
      (* G123 *)
      Primitive.loop 8;
      Primitive.loop 7;
      Primitive.loop 6;
      Primitive.loop 5;
      Primitive.loop 4;
      Primitive.loop 3;
      Primitive.path 6;
      Primitive.path 5;
      Primitive.path 4;
      Primitive.path 3;
    ]

let extended () =
  make
    [
      Primitive.gossip 8;
      Primitive.gossip 6;
      Primitive.gossip 4;
      Primitive.broadcast 8;
      (* G127 *)
      Primitive.broadcast 7;
      Primitive.broadcast 6;
      Primitive.broadcast 5;
      Primitive.broadcast 4;
      Primitive.loop 8;
      Primitive.loop 7;
      Primitive.loop 6;
      Primitive.loop 5;
      Primitive.loop 4;
      Primitive.loop 3;
      Primitive.path 6;
      Primitive.path 5;
      Primitive.path 4;
      Primitive.path 3;
    ]

let minimal () = make [ Primitive.gossip 4; Primitive.broadcast 4 ]

let presets = [ ("default", default); ("minimal", minimal); ("extended", extended) ]

let find lib id = List.find_opt (fun e -> e.id = id) lib

let find_by_name lib name = List.find_opt (fun e -> e.prim.Primitive.name = name) lib

let names lib = List.map (fun e -> e.prim.Primitive.name) lib

let max_diameter lib =
  List.fold_left
    (fun acc e ->
      match Noc_graph.Traversal.undirected_diameter e.prim.Primitive.impl with
      | Some d -> max acc d
      | None -> acc)
    0 lib

let pp ppf lib =
  List.iter
    (fun e -> Format.fprintf ppf "%2d: %a@." e.id Primitive.pp e.prim)
    lib
