type t = {
  n : int;
  verts : int array;
  succ_off : int array;
  succ_arr : int array;
  pred_off : int array;
  pred_arr : int array;
  words : int;
  adj : int64 array;
  radj : int64 array;
  n_edges : int;
}

type view = {
  base : t;
  del : int array;
  del_bits : int64 array;
  del_out : int array;
  del_in : int array;
}

let freeze g =
  let verts = Array.of_list (Digraph.vertex_list g) in
  let n = Array.length verts in
  let dense = Hashtbl.create (2 * n) in
  Array.iteri (fun i v -> Hashtbl.replace dense v i) verts;
  let succ_off = Array.make (n + 1) 0 in
  let pred_off = Array.make (n + 1) 0 in
  Digraph.iter_edges
    (fun u v ->
      let du = Hashtbl.find dense u and dv = Hashtbl.find dense v in
      succ_off.(du + 1) <- succ_off.(du + 1) + 1;
      pred_off.(dv + 1) <- pred_off.(dv + 1) + 1)
    g;
  for i = 1 to n do
    succ_off.(i) <- succ_off.(i) + succ_off.(i - 1);
    pred_off.(i) <- pred_off.(i) + pred_off.(i - 1)
  done;
  let n_edges = succ_off.(n) in
  let succ_arr = Array.make n_edges 0 in
  let pred_arr = Array.make n_edges 0 in
  let scur = Array.copy succ_off and pcur = Array.copy pred_off in
  let words = (n + 63) / 64 in
  let adj = Array.make (n * words) 0L in
  let radj = Array.make (n * words) 0L in
  (* fold_edges visits (u, v) in lexicographic order, so each succ slice is
     filled with ascending v and each pred slice with ascending u *)
  Digraph.iter_edges
    (fun u v ->
      let du = Hashtbl.find dense u and dv = Hashtbl.find dense v in
      succ_arr.(scur.(du)) <- dv;
      scur.(du) <- scur.(du) + 1;
      pred_arr.(pcur.(dv)) <- du;
      pcur.(dv) <- pcur.(dv) + 1;
      let si = (du * words) + (dv lsr 6) in
      adj.(si) <- Int64.logor adj.(si) (Int64.shift_left 1L (dv land 63));
      let pi = (dv * words) + (du lsr 6) in
      radj.(pi) <- Int64.logor radj.(pi) (Int64.shift_left 1L (du land 63)))
    g;
  { n; verts; succ_off; succ_arr; pred_off; pred_arr; words; adj; radj; n_edges }

let view base = { base; del = [||]; del_bits = [||]; del_out = [||]; del_in = [||] }

let vertex g i = g.verts.(i)

let index g v =
  let lo = ref 0 and hi = ref g.n and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let y = g.verts.(mid) in
    if y = v then begin
      found := mid;
      lo := !hi
    end
    else if y < v then lo := mid + 1
    else hi := mid
  done;
  !found

let out_degree_d v u =
  let g = v.base in
  g.succ_off.(u + 1) - g.succ_off.(u) - (if v.del_out = [||] then 0 else v.del_out.(u))

let in_degree_d v u =
  let g = v.base in
  g.pred_off.(u + 1) - g.pred_off.(u) - (if v.del_in = [||] then 0 else v.del_in.(u))

let[@inline] mem_base_d g u w =
  Int64.logand
    (Array.unsafe_get g.adj ((u * g.words) + (w lsr 6)))
    (Int64.shift_left 1L (w land 63))
  <> 0L

let[@inline] deleted_d v u w =
  v.del != [||]
  && Int64.logand
       (Array.unsafe_get v.del_bits ((u * v.base.words) + (w lsr 6)))
       (Int64.shift_left 1L (w land 63))
     <> 0L

let[@inline] mem_edge_d v u w = mem_base_d v.base u w && not (deleted_d v u w)

let mem_edge v a b =
  let u = index v.base a and w = index v.base b in
  u >= 0 && w >= 0 && mem_edge_d v u w

let num_edges v = v.base.n_edges - Array.length v.del
let num_vertices v = v.base.n

let fold_edges f v acc =
  let g = v.base in
  let acc = ref acc in
  for u = 0 to g.n - 1 do
    for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
      let w = g.succ_arr.(i) in
      if not (deleted_d v u w) then acc := f g.verts.(u) g.verts.(w) !acc
    done
  done;
  !acc

let degree_profile v =
  let n = v.base.n in
  let out = Array.init n (fun u -> out_degree_d v u) in
  let inn = Array.init n (fun u -> in_degree_d v u) in
  let desc a b = Int.compare b a in
  Array.sort desc out;
  Array.sort desc inn;
  (out, inn)

let delete_edges v edges =
  let g = v.base in
  let codes =
    List.filter_map
      (fun (a, b) ->
        let u = index g a and w = index g b in
        if u >= 0 && w >= 0 && mem_edge_d v u w then Some ((u * g.n) + w) else None)
      edges
    |> List.sort_uniq Int.compare
  in
  if codes = [] then v
  else begin
    let fresh = Array.of_list codes in
    let old = v.del in
    let del = Array.make (Array.length old + Array.length fresh) 0 in
    (* merge two sorted, disjoint arrays *)
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < Array.length old && !j < Array.length fresh do
      if old.(!i) < fresh.(!j) then begin
        del.(!k) <- old.(!i);
        incr i
      end
      else begin
        del.(!k) <- fresh.(!j);
        incr j
      end;
      incr k
    done;
    Array.blit old !i del !k (Array.length old - !i);
    Array.blit fresh !j del (!k + Array.length old - !i) (Array.length fresh - !j);
    let del_out = if v.del_out = [||] then Array.make g.n 0 else Array.copy v.del_out in
    let del_in = if v.del_in = [||] then Array.make g.n 0 else Array.copy v.del_in in
    let del_bits =
      if v.del_bits = [||] then Array.make (g.n * g.words) 0L else Array.copy v.del_bits
    in
    Array.iter
      (fun code ->
        let u = code / g.n and w = code mod g.n in
        del_out.(u) <- del_out.(u) + 1;
        del_in.(w) <- del_in.(w) + 1;
        let bi = (u * g.words) + (w lsr 6) in
        del_bits.(bi) <- Int64.logor del_bits.(bi) (Int64.shift_left 1L (w land 63)))
      fresh;
    { base = g; del; del_bits; del_out; del_in }
  end

let to_digraph v =
  let edges = List.rev (fold_edges (fun a b acc -> (a, b) :: acc) v []) in
  Digraph.of_edges ~vertices:(Array.to_list v.base.verts) edges
