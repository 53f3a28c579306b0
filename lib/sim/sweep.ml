module D = Noc_graph.Digraph

type point = {
  rate : float;
  offered : float;
  injected : int;
  delivered : int;
  stranded : int;
  avg_latency : float;
  throughput : float;
}

let latency_vs_load ?(engine = Engine.Coarse) ~rng ~arch ~acg ?(size_flits = 2)
    ?(cycles = 2000) ~rates () =
  let edges = D.edges (Noc_core.Acg.graph acg) in
  List.map
    (fun rate ->
      let rng = Noc_util.Prng.split rng in
      let net = Engine.create engine arch in
      let flows = List.map (fun (src, dst) -> { Traffic.src; dst; size_flits; rate }) edges in
      (* whatever the verdict, the packets a stopped drain leaves behind
         are the stranded ones *)
      let _verdict, injected = Traffic.run ~rng ~flows ~cycles net in
      let s = Engine.summary net in
      {
        rate;
        offered = rate *. float_of_int (List.length edges);
        injected;
        delivered = s.Stats.packets;
        stranded = Engine.pending net;
        avg_latency = s.Stats.avg_latency;
        throughput = s.Stats.throughput;
      })
    rates

let saturation_rate points =
  (* the latency baseline must come from a point that actually delivered
     packets: a leading zero-delivery point reports avg_latency = 0., and a
     fabricated base of 1.0 yields false (or missed) saturation knees *)
  let base =
    Option.map
      (fun first -> if first.avg_latency > 0. then first.avg_latency else 1.0)
      (List.find_opt (fun p -> p.delivered > 0) points)
  in
  let knee p =
    match base with Some b -> p.delivered > 0 && p.avg_latency > 4.0 *. b | None -> false
  in
  (* a fabric that strands packets (deadlock or drain bound) is saturated
     whatever the latency of the few packets it did deliver *)
  List.find_map (fun p -> if p.stranded > 0 || knee p then Some p.rate else None) points

let to_series points = List.map (fun p -> (p.offered, p.avg_latency)) points
