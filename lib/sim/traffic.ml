module D = Noc_graph.Digraph

type flow = { src : int; dst : int; size_flits : int; rate : float }

let flows_of_acg ~rate_scale acg =
  let g = Noc_core.Acg.graph acg in
  let max_b =
    D.fold_edges (fun u v acc -> max acc (Noc_core.Acg.bandwidth acg u v)) g 0.0
  in
  D.fold_edges
    (fun u v acc ->
      let b = Noc_core.Acg.bandwidth acg u v in
      let rate = if max_b > 0. then rate_scale *. b /. max_b else rate_scale in
      { src = u; dst = v; size_flits = 1; rate } :: acc)
    g []
  |> List.rev

let drain_cycles = 200_000

let run ~rng ~flows ~cycles engine =
  let injected = ref 0 in
  for _ = 1 to cycles do
    List.iter
      (fun f ->
        if Noc_util.Prng.bernoulli rng f.rate then begin
          ignore (Engine.inject ~size_flits:f.size_flits engine ~src:f.src ~dst:f.dst);
          incr injected
        end)
      flows;
    Engine.step engine
  done;
  (Engine.run_until_idle ~max_cycles:drain_cycles engine, !injected)

type burst = { verdict : Engine.verdict; delivered : int; clean : bool }

let burst ?(max_cycles = drain_cycles) ~size_flits engine pairs =
  List.iter (fun (src, dst) -> ignore (Engine.inject ~size_flits engine ~src ~dst)) pairs;
  let verdict = Engine.run_until_idle ~max_cycles engine in
  let delivered = List.length (Engine.deliveries engine) in
  {
    verdict;
    delivered;
    clean = verdict = Engine.Idle && delivered = List.length pairs && Engine.conserved engine;
  }

let offered_load flows = List.fold_left (fun acc f -> acc +. f.rate) 0.0 flows
