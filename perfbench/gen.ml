(* The benchmark's own seeded input generator.  Every ACG the benchmark
   sends is produced here as text, so the workloads stay fixed when the
   program's own generators (fuzzing, corpus, PRNG) change. *)

(* splitmix64: small, fast and fully specified, so a seed means the same
   inputs on every OCaml version *)
type rng = { mutable s : int64 }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng ~seed ~stream =
  { s = mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int (stream * 7919))) }

let next g =
  g.s <- Int64.add g.s 0x9E3779B97F4A7C15L;
  mix g.s

(* uniform in [0, bound) *)
let int g bound =
  if bound <= 0 then invalid_arg "Gen.int";
  Int64.to_int (Int64.unsigned_rem (next g) (Int64.of_int bound))

let range g lo hi = lo + int g (hi - lo + 1)
let float g = Int64.to_float (Int64.shift_right_logical (next g) 11) *. 0x1p-53

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* An ACG as the benchmark holds it: cores 1..n and directed weighted
   edges (src, dst, volume bits, bandwidth Gbit/s). *)
type acg = { cores : int; edges : (int * int * int * float) array }

let to_text a =
  let b = Buffer.create (32 * Array.length a.edges) in
  Buffer.add_string b "# src dst volume bandwidth\n";
  let seen = Array.make (a.cores + 1) false in
  Array.iter (fun (u, v, _, _) -> seen.(u) <- true; seen.(v) <- true) a.edges;
  for v = 1 to a.cores do
    if not seen.(v) then Buffer.add_string b (Printf.sprintf "vertex %d\n" v)
  done;
  Array.iter
    (fun (u, v, vol, bw) -> Buffer.add_string b (Printf.sprintf "%d %d %d %.3f\n" u v vol bw))
    a.edges;
  Buffer.contents b

(* The same ACG under a random relabeling of its cores, edges listed in a
   random order: isomorphic, textually different. *)
let permuted g a =
  let perm = Array.init (a.cores + 1) Fun.id in
  let tail = Array.sub perm 1 a.cores in
  shuffle g tail;
  Array.blit tail 0 perm 1 a.cores;
  let edges = Array.map (fun (u, v, vol, bw) -> (perm.(u), perm.(v), vol, bw)) a.edges in
  shuffle g edges;
  { a with edges }

(* Edge sets: reject self-loops and duplicates, the two things
   the ACG parser refuses. *)
module Edges = struct
  type t = { n : int; tbl : (int * int, int * float) Hashtbl.t; mutable order : (int * int) list }

  let create n = { n; tbl = Hashtbl.create (4 * n); order = [] }

  let add t u v w =
    if u <> v && not (Hashtbl.mem t.tbl (u, v)) then begin
      Hashtbl.replace t.tbl (u, v) w;
      t.order <- (u, v) :: t.order
    end

  let degree_zero t =
    let deg = Array.make (t.n + 1) 0 in
    Hashtbl.iter (fun (u, v) _ -> deg.(u) <- deg.(u) + 1; deg.(v) <- deg.(v) + 1) t.tbl;
    List.filter (fun v -> deg.(v) = 0) (List.init t.n (fun i -> i + 1))

  let finish t =
    let edges =
      List.rev_map (fun (u, v) -> let vol, bw = Hashtbl.find t.tbl (u, v) in (u, v, vol, bw)) t.order
    in
    { cores = t.n; edges = Array.of_list (List.rev edges) }
end

(* Irregular attributes: volumes spread over three decades, bandwidths to
   three decimals, so colour refinement separates the cores in one pass. *)
let weight g = (8 * range g 2 4096, float_of_int (range g 10 2000) /. 1000.0)

(* no isolated cores: each gets one flow to or from a random peer *)
let connect_isolated g b weight =
  List.iter
    (fun v ->
      let u = ref (range g 1 b.Edges.n) in
      while !u = v do u := range g 1 b.Edges.n done;
      if int g 2 = 0 then Edges.add b v !u (weight g) else Edges.add b !u v (weight g))
    (Edges.degree_zero b)

(* Erdős–Rényi G(n, p) with mean out-degree [deg]. *)
let erdos_renyi ?(weight = weight) g ~n ~deg =
  let b = Edges.create n in
  let p = deg /. float_of_int (n - 1) in
  for u = 1 to n do
    for v = 1 to n do
      if u <> v && float g < p then Edges.add b u v (weight g)
    done
  done;
  connect_isolated g b weight;
  Edges.finish b

(* TGFF-like task graph: cores in layers, each non-source core fed by one
   to three cores of earlier layers, mostly the previous one. *)
let tgff_like ?(weight = weight) g ~n =
  let b = Edges.create n in
  let layers = max 2 (int_of_float (sqrt (float_of_int n))) in
  let layer = Array.init (n + 1) (fun v -> if v <= 1 then 0 else 1 + int g (layers - 1)) in
  for v = 1 to n do
    if layer.(v) > 0 then begin
      let preds = List.filter (fun u -> layer.(u) < layer.(v)) (List.init n (fun i -> i + 1)) in
      let near = List.filter (fun u -> layer.(u) = layer.(v) - 1) preds in
      let pool = Array.of_list (if near <> [] && int g 4 > 0 then near else preds) in
      for _ = 1 to range g 1 3 do
        Edges.add b pool.(int g (Array.length pool)) v (weight g)
      done
    end
  done;
  connect_isolated g b weight;
  Edges.finish b

(* Application-like: a processing pipeline over the cores plus a few
   shared-memory hubs every core reads from and writes back to, and some
   request/response pairs between pipeline neighbours. *)
let app_like ?(weight = weight) g ~n =
  let b = Edges.create n in
  let hubs = max 1 (n / 12) in
  for v = hubs + 1 to n do
    let h = range g 1 hubs in
    Edges.add b v h (weight g);
    if int g 3 > 0 then Edges.add b h v (weight g);
    if v < n then Edges.add b v (v + 1) (weight g);
    if v + 1 < n && int g 4 = 0 then Edges.add b (v + 2) v (weight g)
  done;
  connect_isolated g b weight;
  Edges.finish b

(* Clustered: communities of 6–10 cores with dense traffic inside
   ([p_in], high enough that complete 4-subsets - gossip match sites -
   appear in most communities, so the search has a real tree) and a
   constant expected number of flows between communities per core. *)
let clustered ?(weight = weight) ?(p_in = 0.75) g ~n =
  let b = Edges.create n in
  let rec cut lo acc =
    if lo > n then List.rev acc
    else
      let size = min (n - lo + 1) (range g 6 10) in
      cut (lo + size) ((lo, size) :: acc)
  in
  let clusters = Array.of_list (cut 1 []) in
  Array.iter
    (fun (lo, size) ->
      for i = 0 to size - 1 do
        for j = 0 to size - 1 do
          if i <> j && float g < p_in then Edges.add b (lo + i) (lo + j) (weight g)
        done
      done)
    clusters;
  for _ = 1 to n do
    Edges.add b (range g 1 n) (range g 1 n) (weight g)
  done;
  connect_isolated g b weight;
  Edges.finish b

(* {1 Symmetric, uniform-weight graphs}

   The library's own implementation-graph shapes: what an application that
   matches the library well looks like, and where canonical labeling has
   the most automorphisms to fight. *)

let uniform edges ~n ~vol ~bw =
  let b = Edges.create n in
  List.iter (fun (u, v) -> Edges.add b u v (vol, bw)) edges;
  Edges.finish b

let both (u, v) = [ (u, v); (v, u) ]

let complete n =
  List.concat_map (fun u -> List.filter_map (fun v -> if u <> v then Some (u, v) else None)
                               (List.init n (fun i -> i + 1)))
    (List.init n (fun i -> i + 1))

let hypercube d =
  let n = 1 lsl d in
  List.concat_map
    (fun u -> List.init d (fun k -> (u + 1, (u lxor (1 lsl k)) + 1)))
    (List.init n Fun.id)

(* Knödel graph W(floor log2 n, n): core (0, j) links to
   (1, (j + 2^k - 1) mod n/2) for each k. *)
let knodel n =
  let h = n / 2 in
  let delta = int_of_float (Float.log2 (float_of_int n)) in
  List.concat_map
    (fun j -> List.concat_map (fun k -> both (j + 1, h + ((j + (1 lsl k) - 1) mod h) + 1))
                (List.init delta Fun.id))
    (List.init h Fun.id)

let torus r c =
  let id i j = (i * c) + j + 1 in
  List.concat_map
    (fun i -> List.concat_map (fun j ->
         both (id i j, id i ((j + 1) mod c)) @ both (id i j, id ((i + 1) mod r) j))
        (List.init c Fun.id))
    (List.init r Fun.id)

let ring n = List.concat_map (fun i -> both (i, (i mod n) + 1)) (List.init n (fun i -> i + 1))
let star n = List.concat_map (fun i -> both (1, i)) (List.init (n - 1) (fun i -> i + 2))

(* the radix-2 FFT task graph: [log2 n + 1] ranks of [n] tasks, each task
   feeding its own and its butterfly partner's successor *)
let butterfly n =
  let stages = int_of_float (Float.log2 (float_of_int n)) in
  let id s i = (s * n) + i + 1 in
  List.concat_map
    (fun s -> List.concat_map (fun i -> [ (id s i, id (s + 1) i); (id s i, id (s + 1) (i lxor (1 lsl s))) ])
        (List.init n Fun.id))
    (List.init stages Fun.id)

let symmetric_family =
  [
    ("K5", 5, complete 5);
    ("K6", 6, complete 6);
    ("K7", 7, complete 7);
    ("K8", 8, complete 8);
    ("hypercube3", 8, hypercube 3);
    ("hypercube4", 16, hypercube 4);
    ("knodel8", 8, knodel 8);
    ("knodel16", 16, knodel 16);
    ("torus3x3", 9, torus 3 3);
    ("torus4x4", 16, torus 4 4);
    ("ring12", 12, ring 12);
    ("star7", 7, star 7);
    ("star8", 8, star 8);
    ("butterfly4", 12, butterfly 4);
  ]
