(* synth-scale: ACG text to simulated verdict through the library calls
   behind [nocsynth synth] - parse, search, synthesis, deadlock analysis,
   backend scoring and a one-packet-per-flow flit-engine burst. *)

module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module D = Noc_graph.Digraph
module E = Noc_sim.Engine
module Obs = Noc_obs.Obs

(* Blocks of 15 ACGs, one per (family, size), shuffled per block: a run
   sees the same mix of sizes whatever the seed.  Clustered ACGs carry
   the search tree (tens of nodes, most of the op); ER and TGFF-like ones
   decompose at the root. *)
let sizes = [ 64; 80; 96; 112; 128 ]

let stream ~seed =
  let g = Gen.rng ~seed ~stream:3 in
  let block =
    Array.of_list (List.concat_map (fun n -> [ (`Clustered, n); (`Er, n); (`Tgff, n) ]) sizes)
  in
  let pos = ref 0 in
  fun () ->
    if !pos mod Array.length block = 0 then Gen.shuffle g block;
    let family, n = block.(!pos mod Array.length block) in
    incr pos;
    Gen.to_text
      (match family with
      | `Clustered -> Gen.clustered g ~n
      | `Er -> Gen.erdos_renyi g ~n ~deg:2.5
      | `Tgff -> Gen.tgff_like g ~n)

(* A node budget every input of the stream completes well within: a
   timed-out search is an error, not a result.  One domain: on these
   trees (10-20 nodes) two domains gave no throughput, and their peak
   memory grew with run length and varied from run to run. *)
let budget = Bb.Budget.(default |> with_max_nodes 1_000_000)

type result = {
  acg : Acg.t;
  d : Noc_core.Decomposition.t;
  stats : Bb.stats;
  arch : Syn.t;
  energy : Noc_serve.Proto.Response.backend_score list;
  verdict : E.verdict;
  engine : E.t;
}

let pipeline (tr : Bench.tracer) ~observe text =
  tr.span "op" (fun () ->
      let acg =
        match tr.span "acg_io.parse" (fun () -> Noc_core.Acg_io.parse text) with
        | Ok acg -> acg
        | Error (`Msg m) -> failwith m
      in
      let library = Noc_primitives.Library.default () in
      let d, stats =
        tr.span "branch_bound" (fun () ->
            Bb.decompose ~budget ~observe:(observe ()) ~library acg)
      in
      let arch = tr.span "synthesis" (fun () -> Syn.custom acg d) in
      ignore (tr.span "deadlock" (fun () -> Noc_core.Deadlock.analyze arch));
      let energy = tr.span "backends" (fun () -> Noc_serve.Backends.compare_all acg ~custom:arch) in
      let engine, verdict =
        tr.span "sim" (fun () ->
            let e = E.create E.Flit arch in
            D.iter_edges (fun u v -> ignore (E.inject e ~src:u ~dst:v)) (Acg.graph acg);
            (e, E.run_until_idle ~max_cycles:1_000_000 e))
      in
      { acg; d; stats; arch; energy; verdict; engine })

let check r =
  let cost = Bb.default_options.Bb.cost in
  let recost = Noc_oracle.Recost.decomposition_cost cost r.acg r.d in
  if not (Noc_core.Decomposition.is_valid_for r.acg r.d) then Error "decomposition is not valid"
  else if Float.abs (recost -. r.stats.Bb.best_cost) > 1e-9 *. Float.max 1.0 recost then
    Error (Printf.sprintf "cost %g differs from the recomputed %g" r.stats.Bb.best_cost recost)
  else if r.stats.Bb.timed_out then Error "search ran out of its node budget"
  else if r.verdict <> E.Idle then Error ("flit burst ended " ^ E.verdict_name r.verdict)
  else if List.length (E.deliveries r.engine) <> Acg.num_flows r.acg then
    Error "flit burst did not deliver every packet"
  else Ok ()

let energy_ratio r =
  match r.energy with
  | custom :: mesh :: _ when custom.energy_pj > 0.0 && mesh.energy_pj > 0.0 ->
      Some (custom.energy_pj /. mesh.energy_pj)
  | _ -> None

let run ~seed ~seconds ~trace =
  (* set-up generates the first ten blocks; later ops are generated
     outside op timing as the run needs them *)
  let (next, prefix), setup_s =
    Bench.setup_median ~repeats:7 (fun () ->
        let next = stream ~seed in
        (next, Array.init (10 * List.length sizes * 3) (fun _ -> next ())))
  in
  let l = Bench.Layers.create () and rec_ = Bench.Trace.create () in
  let latencies = ref [] and energy = ref [] and errors = ref [] in
  let traced_s = ref 0.0 and op_s = ref 0.0 in
  let fail i m = errors := Printf.sprintf "op %d: %s" i m :: !errors in
  let start = Bench.now () in
  let i = ref 0 in
  while Bench.now () -. start < seconds do
    let text = if !i < Array.length prefix then prefix.(!i) else next () in
    let untraced () =
      Bench.time (fun () -> pipeline Bench.untraced ~observe:(fun () -> Obs.disabled) text)
    in
    let traced () =
      Bench.time (fun () -> pipeline (Bench.Trace.tracer rec_) ~observe:Obs.create text)
    in
    (match
       if not trace then untraced ()
       else begin
         (* the traced path must reach the same decomposition *)
         let (u, u_s), (t, t_s) = Bench.alternate !i untraced traced in
         traced_s := !traced_s +. t_s;
         let listing r = Format.asprintf "%a" Noc_core.Decomposition.pp r.d in
         if t.stats.Bb.best_cost <> u.stats.Bb.best_cost || listing t <> listing u then
           fail !i "traced pipeline decomposed differently";
         (match Bench.Trace.end_op rec_ with
         | Ok (dur, layers) ->
             op_s := !op_s +. dur;
             Bench.Layers.record_op l layers;
             Bench.Layers.sample l "acg_io.bytes" (float_of_int (String.length text));
             Bench.record_search l t.stats;
             Bench.Layers.sample l "synthesis.links" (float_of_int (Syn.link_count t.arch));
             Bench.record_sim l t.engine
         | Error m -> fail !i m);
         (u, u_s)
       end
     with
    | exception e ->
        fail !i ("pipeline raised " ^ Printexc.to_string e);
        ignore (Bench.Trace.end_op rec_)
    | r, wall_s ->
        latencies := wall_s :: !latencies;
        (match check r with Error m -> fail !i m | Ok () -> ());
        Option.iter (fun e -> energy := e :: !energy) (energy_ratio r));
    incr i
  done;
  let metrics =
    if not trace then Bench.end_to_end ~setup_s ~latencies:!latencies ~energy:!energy
    else
      Bench.per_layer
        (Bench.layer_figures l ~op_s:!op_s
        @ [ Bench.overhead_pct ~traced_s:!traced_s ~untraced:!latencies ])
  in
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev !errors);
  (!i, List.length !errors, metrics, rec_)
