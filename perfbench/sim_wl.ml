(* simulate-load: Bernoulli offered-load runs of the flit engine over
   custom and mesh architectures built in setup.  Only the simulator is in
   the timed region. *)

module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module D = Noc_graph.Digraph
module E = Noc_sim.Engine

let window = 1000 (* injection cycles per run; the run then drains *)
let size_flits = 2

(* offered load as a share of the busiest resource's capacity: well below,
   halfway to and at the saturation knee *)
let loads = [ 0.3; 0.6; 0.9 ]

type arch = {
  label : string;
  arch : Syn.t;
  flows : (int * int * float) array;  (** src, dst, share of the heaviest flow's rate *)
  bottleneck : float;  (** busiest resource's utilization at share 1.0 *)
}

let phits = Noc_sim.Flitsim.(phits_per_flit default_config)

(* Utilization of each link (a flit holds it [phits] cycles), each source
   NI and each ejection port (one flit per cycle) when every flow injects
   at its share: the load scale that saturates the first of them. *)
let bottleneck arch flows =
  let use = Hashtbl.create 256 in
  let bump k x = Hashtbl.replace use k (x +. Option.value ~default:0.0 (Hashtbl.find_opt use k)) in
  Array.iter
    (fun (s, d, share) ->
      let f = share *. float_of_int size_flits in
      bump (`Src s) f;
      bump (`Dst d) f;
      let rec links = function
        | a :: (b :: _ as rest) ->
            bump (`Link (a, b)) (f *. float_of_int phits);
            links rest
        | _ -> ()
      in
      links (Option.get (Syn.route arch ~src:s ~dst:d)))
    flows;
  Hashtbl.fold (fun _ x m -> Float.max x m) use 0.0

(* 21 ACGs (three families at seven sizes); cores and flows mirror the
   ACG, flow rates follow bandwidth.  A custom architecture whose channel
   dependency graph has a cycle can deadlock the flit engine under load
   (it models no virtual channels), so such an ACG is redrawn: this
   workload measures throughput, not deadlock. *)
let setup ~seed =
  let g = Gen.rng ~seed ~stream:4 in
  let library = Noc_primitives.Library.default () in
  List.concat_map
    (fun (family, n) ->
      let rec draw attempt =
        let a =
          match family with
          | `App -> Gen.app_like g ~n
          | `Tgff -> Gen.tgff_like g ~n
          | `Er -> Gen.erdos_renyi g ~n ~deg:2.5
        in
        let acg = Result.get_ok (Noc_core.Acg_io.parse (Gen.to_text a)) in
        let d, _ = Noc_core.Branch_bound.decompose ~library acg in
        let custom = Syn.custom acg d in
        if Noc_core.Deadlock.is_deadlock_free custom || attempt >= 20 then (acg, custom)
        else draw (attempt + 1)
      in
      let acg, custom = draw 0 in
      let maxb = D.fold_edges (fun u v m -> Float.max m (Acg.bandwidth acg u v)) (Acg.graph acg) 0.0 in
      let flows =
        D.fold_edges
          (fun u v acc -> (u, v, if maxb > 0.0 then Acg.bandwidth acg u v /. maxb else 1.0) :: acc)
          (Acg.graph acg) []
        |> List.rev |> Array.of_list
      in
      let scores = Noc_serve.Backends.compare_all acg ~custom in
      let ratio =
        match scores with
        | c :: m :: _ -> c.Noc_serve.Proto.Response.energy_pj /. m.Noc_serve.Proto.Response.energy_pj
        | _ -> Float.nan
      in
      let mk label arch = { label; arch; flows; bottleneck = bottleneck arch flows } in
      let name =
        Printf.sprintf "%s%d" (match family with `App -> "app" | `Tgff -> "tgff" | `Er -> "er") n
      in
      [ (mk (name ^ "/custom") custom, Some ratio); (mk (name ^ "/mesh") (Noc_serve.Backends.mesh acg), None) ])
    (List.concat_map (fun n -> [ (`App, n); (`Tgff, n); (`Er, n) ]) [ 16; 24; 32; 40; 48; 56; 64 ])

(* Uncontended, an n-flit packet over h hops delivers
   1 + rd + h(rd + p) + (n - 1)p cycles after injection (the latency bound
   documented by the flit engine).  One probe per architecture, on its
   longest route. *)
let probe a =
  let rd = Noc_sim.Flitsim.default_config.router_delay and n = 3 in
  let s, d, h =
    Array.fold_left
      (fun (_, _, best as acc) (s, d, _) ->
        let h = List.length (Option.get (Syn.route a.arch ~src:s ~dst:d)) - 1 in
        if h > best then (s, d, h) else acc)
      (0, 0, -1) a.flows
  in
  let e = E.create E.Flit a.arch in
  ignore (E.inject e ~size_flits:n ~src:s ~dst:d);
  let expected = 1 + rd + (h * (rd + phits)) + ((n - 1) * phits) in
  match (E.run_until_idle e, E.deliveries e) with
  | E.Idle, [ dl ] when dl.delivered_at - dl.packet.injected_at = expected -> Ok ()
  | _, [ dl ] ->
      Error
        (Printf.sprintf "%s: probe over %d hops took %d cycles, closed form says %d" a.label h
           (dl.delivered_at - dl.packet.injected_at) expected)
  | _ -> Error (a.label ^ ": probe packet not delivered")

(* Bernoulli injections of one run, drawn before the timed region as
   geometric gaps per flow. *)
let schedule g a ~load =
  let per_cycle = Array.make window [] in
  let scale = load /. a.bottleneck in
  Array.iter
    (fun (s, d, share) ->
      let p = Float.min 1.0 (scale *. share) in
      if p > 0.0 then begin
        let gap () =
          if p >= 1.0 then 1 else 1 + int_of_float (log (1.0 -. Gen.float g) /. log (1.0 -. p))
        in
        let c = ref (gap () - 1) in
        while !c < window do
          per_cycle.(!c) <- (s, d) :: per_cycle.(!c);
          c := !c + gap ()
        done
      end)
    a.flows;
  per_cycle

let simulate (tr : Bench.tracer) a per_cycle =
  tr.span "op" (fun () ->
      tr.span "sim" (fun () ->
          let e = E.create E.Flit a.arch in
          Array.iter
            (fun injections ->
              List.iter (fun (s, d) -> ignore (E.inject e ~size_flits ~src:s ~dst:d)) injections;
              E.step e)
            per_cycle;
          (e, E.run_until_idle ~max_cycles:1_000_000 e)))

let run ~seed ~seconds ~trace =
  let archs, setup_s = Bench.setup_median ~repeats:7 (fun () -> setup ~seed) in
  let probes = List.map (fun (a, _) -> probe a) archs in
  let energy = List.filter_map snd archs in
  let plan =
    Array.of_list (List.concat_map (fun (a, _) -> List.map (fun load -> (a, load)) loads) archs)
  in
  let g = Gen.rng ~seed ~stream:5 in
  let l = Bench.Layers.create () and rec_ = Bench.Trace.create () in
  let latencies = ref [] and errors = ref [] in
  let traced_s = ref 0.0 and op_s = ref 0.0 in
  List.iter (function Error m -> errors := m :: !errors | Ok () -> ()) probes;
  let fail i m = errors := Printf.sprintf "op %d: %s" i m :: !errors in
  let order = Array.init (Array.length plan) Fun.id in
  let start = Bench.now () in
  let i = ref 0 in
  while Bench.now () -. start < seconds do
    (* each block runs every (architecture, load) pair once, shuffled *)
    if !i mod Array.length plan = 0 then Gen.shuffle g order;
    let a, load = plan.(order.(!i mod Array.length plan)) in
    let per_cycle = schedule g a ~load in
    let injected = Array.fold_left (fun n xs -> n + List.length xs) 0 per_cycle in
    let untraced () = Bench.time (fun () -> simulate Bench.untraced a per_cycle) in
    let traced () = Bench.time (fun () -> simulate (Bench.Trace.tracer rec_) a per_cycle) in
    (match
       if not trace then untraced ()
       else begin
         let u, (t, t_s) = Bench.alternate !i untraced traced in
         traced_s := !traced_s +. t_s;
         (match Bench.Trace.end_op rec_ with
         | Ok (dur, layers) ->
             op_s := !op_s +. dur;
             Bench.Layers.record_op l layers;
             Bench.record_sim l (fst t)
         | Error m -> fail !i m);
         (* the engine is deterministic: the traced run must match *)
         if E.summary (fst t) <> E.summary (fst (fst u)) then
           fail !i "traced simulation differs from the untraced one";
         u
       end
     with
    | exception e ->
        fail !i (a.label ^ ": simulation raised " ^ Printexc.to_string e);
        ignore (Bench.Trace.end_op rec_)
    | (e, verdict), wall_s ->
        latencies := wall_s :: !latencies;
        if verdict <> E.Idle then fail !i (a.label ^ ": run ended " ^ E.verdict_name verdict)
        else if List.length (E.deliveries e) <> injected then
          fail !i (a.label ^ ": packets delivered differ from packets injected"));
    incr i
  done;
  let metrics =
    if not trace then Bench.end_to_end ~setup_s ~latencies:!latencies ~energy
    else
      Bench.per_layer
        (Bench.layer_figures l ~op_s:!op_s
        @ [ Bench.overhead_pct ~traced_s:!traced_s ~untraced:!latencies ])
  in
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev !errors);
  (!i + List.length probes, List.length !errors, metrics, rec_)
