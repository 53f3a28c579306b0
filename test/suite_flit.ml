(* Tests for the cycle-accurate flit engine stack (lib/sim: Credit,
   Router, Flitsim, Engine) and the wormhole fixes that rode along with
   it: zero-hop worms, O(1) injection, VC-cap truncation reporting.

   The differential qcheck suites cross-validate the three fidelity
   levels on the same random ACGs the oracle harness uses: every engine
   must deliver exactly the injected packet set, the flit engine's
   conservation invariant must hold after every cycle, and deeper VOQs
   must never slow a burst down. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module Dead = Noc_core.Deadlock
module L = Noc_primitives.Library
module Prng = Noc_util.Prng
module Fuzz = Noc_oracle.Fuzz
module Credit = Noc_sim.Credit
module Flit = Noc_sim.Flitsim
module Worm = Noc_sim.Wormhole
module Engine = Noc_sim.Engine
module Traffic = Noc_sim.Traffic
module Packet = Noc_sim.Packet
module Edge_map = D.Edge_map

let lib = L.default

(* a line 0 - 1 - ... - h with the single flow 0 -> h routed along it *)
let line_arch h =
  let topology = ref (D.add_vertex D.empty 0) in
  for v = 1 to h do
    topology := D.add_edge !topology (v - 1) v
  done;
  let route = List.init (h + 1) Fun.id in
  Syn.make ~topology:!topology ~routes:(Edge_map.singleton (0, h) route) ()

(* the documented uncontended flit latency (flitsim.mli), valid when
   [fifo_depth >= 1 + ceil ((router_delay + 1) / phits_per_flit)] *)
let expected_latency ~h ~n ~p ~rd =
  if h = 0 then 1 + rd + (n - 1) else 1 + rd + (h * (rd + p)) + ((n - 1) * p)

(* ---------------------------------------------------------------- *)
(* Credit counters                                                  *)

let test_credit_basics () =
  let c = Credit.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Credit.capacity c);
  Alcotest.(check bool) "take 1" true (Credit.take c);
  Alcotest.(check bool) "take 2" true (Credit.take c);
  Alcotest.(check bool) "exhausted" false (Credit.take c);
  Alcotest.(check int) "none left" 0 (Credit.available c);
  Credit.put c;
  Alcotest.(check bool) "replenished" true (Credit.take c);
  Alcotest.(check bool) "balanced at 2 outstanding" true (Credit.balanced c ~outstanding:2);
  Alcotest.check_raises "capacity >= 1 enforced"
    (Invalid_argument "Credit.create: capacity must be >= 1") (fun () ->
      ignore (Credit.create ~capacity:0));
  Credit.put c;
  Credit.put c;
  Alcotest.check_raises "over-return rejected"
    (Invalid_argument "Credit.put: counter already full") (fun () -> Credit.put c)

(* ---------------------------------------------------------------- *)
(* Flit engine: pinned uncontended latencies                        *)

let single_packet_latency ~cfg ~h ~n =
  let f = Flit.create ~config:cfg (line_arch h) in
  ignore (Flit.inject ~size_flits:n f ~src:0 ~dst:h);
  (match Flit.run_until_idle f with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "deadlock on an uncontended line"
  | `Limit _ -> Alcotest.fail "limit on an uncontended line");
  Alcotest.(check bool) "conservation" true (Flit.conserved f);
  match Flit.deliveries f with
  | [ d ] -> d.Packet.delivered_at - d.Packet.packet.Packet.injected_at
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds)

let test_flit_latency_formula () =
  (* all combos satisfy the depth condition in flitsim.mli, so the
     closed-form latency is exact, not just an upper bound *)
  let cases =
    [
      (* h, n, config *)
      (3, 5, Flit.default_config);
      (1, 1, Flit.default_config);
      (4, 8, { Flit.fifo_depth = 3; flit_bits = 8; phit_bits = 8; router_delay = 1 });
      (4, 8, { Flit.fifo_depth = 5; flit_bits = 8; phit_bits = 8; router_delay = 3 });
      (2, 3, { Flit.fifo_depth = 4; flit_bits = 32; phit_bits = 16; router_delay = 2 });
    ]
  in
  List.iter
    (fun (h, n, cfg) ->
      let p = Flit.phits_per_flit cfg in
      Alcotest.(check int)
        (Printf.sprintf "h=%d n=%d p=%d rd=%d" h n p cfg.Flit.router_delay)
        (expected_latency ~h ~n ~p ~rd:cfg.Flit.router_delay)
        (single_packet_latency ~cfg ~h ~n))
    cases

let test_flit_zero_hop () =
  (* src = dst: the packet still serializes through the local (NI ->
     ejection) VOQ, one flit per cycle, without touching any link *)
  let cfg = Flit.default_config in
  Alcotest.(check int) "zero-hop latency"
    (expected_latency ~h:0 ~n:5 ~p:(Flit.phits_per_flit cfg) ~rd:cfg.Flit.router_delay)
    (single_packet_latency ~cfg ~h:0 ~n:5);
  let f = Flit.create (line_arch 0) in
  ignore (Flit.inject ~size_flits:4 f ~src:0 ~dst:0);
  ignore (Flit.run_until_idle f);
  Alcotest.(check int) "no link traversals" 0 (Flit.flit_hops f)

let test_flit_accounting () =
  let f = Flit.create (line_arch 3) in
  ignore (Flit.inject ~size_flits:4 f ~src:0 ~dst:3);
  ignore (Flit.inject ~size_flits:2 f ~src:0 ~dst:3);
  Alcotest.(check int) "injected flits" 6 (Flit.injected_flits f);
  (match Flit.run_until_idle f with
  | `Idle -> ()
  | _ -> Alcotest.fail "line burst must drain");
  Alcotest.(check int) "delivered flits" 6 (Flit.delivered_flits f);
  Alcotest.(check int) "nothing in flight" 0 (Flit.in_flight_flits f);
  Alcotest.(check int) "flit hops = flits x hops" 18 (Flit.flit_hops f);
  Alcotest.(check bool) "buffers were occupied" true (Flit.buffer_flit_cycles f > 0)

(* ---------------------------------------------------------------- *)
(* Engine dispatch                                                  *)

let test_engine_dispatch () =
  List.iter
    (fun k ->
      Alcotest.(check (option reject))
        (Engine.kind_name k ^ " name round-trips")
        None
        (if Engine.kind_of_name (Engine.kind_name k) = Some k then None else Some ()))
    Engine.all_kinds;
  Alcotest.(check (option reject)) "unknown engine name" None (Engine.kind_of_name "exact");
  let arch = line_arch 2 in
  List.iter
    (fun k ->
      let net = Engine.create k arch in
      Alcotest.(check string) "name" (Engine.kind_name k) (Engine.name net);
      ignore (Engine.inject ~size_flits:2 net ~src:0 ~dst:2);
      match Engine.run_until_idle net with
      | Engine.Idle ->
          Alcotest.(check int)
            (Engine.kind_name k ^ " delivers")
            1
            (List.length (Engine.deliveries net))
      | v -> Alcotest.failf "%s: %s" (Engine.kind_name k) (Engine.verdict_name v))
    Engine.all_kinds

(* ---------------------------------------------------------------- *)
(* Wormhole regressions                                             *)

let test_wormhole_zero_hop () =
  (* regression: a src = dst worm used to be marked delivered after a
     single flit no matter its length; now the whole worm must drain
     through the local port, one flit per cycle *)
  let w = Worm.create (line_arch 0) in
  ignore (Worm.inject ~size_flits:3 w ~src:0 ~dst:0);
  (match Worm.run_until_idle w with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "zero-hop worm deadlocked"
  | `Limit _ -> Alcotest.fail "zero-hop worm never drained");
  (match Worm.deliveries w with
  | [ d ] ->
      Alcotest.(check int) "latency = size_flits" 3
        (d.Packet.delivered_at - d.Packet.packet.Packet.injected_at)
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds));
  Alcotest.(check int) "no link traversals" 0 (Worm.flit_hops w)

let test_wormhole_mass_injection () =
  (* regression for the quadratic [worms @ [worm]] injection path: a
     burst of hundreds of worms must drain completely and in bounded
     time through the growable-array queue *)
  let w = Worm.create (line_arch 4) in
  for _ = 1 to 300 do
    ignore (Worm.inject ~size_flits:2 w ~src:0 ~dst:4)
  done;
  Alcotest.(check int) "pending" 300 (Worm.pending w);
  (match Worm.run_until_idle ~max_cycles:10_000 w with
  | `Idle -> ()
  | _ -> Alcotest.fail "mass burst must drain");
  Alcotest.(check int) "all delivered" 300 (List.length (Worm.deliveries w))

let test_wormhole_vc_truncation () =
  (* the route 4 -> 1 -> 2 on a 4-ring (vertices 1..4) needs 2 VCs under
     the increasing-order discipline (channel order wraps at
     (4,1) -> (1,2)); with num_vcs = 1 the assignment is capped and the
     engine must say so *)
  let arch =
    Syn.make ~topology:(G.loop 4) ~routes:(Edge_map.singleton (4, 2) [ 4; 1; 2 ]) ()
  in
  let starved = Worm.create ~config:{ Worm.num_vcs = 1; flit_bits = 8 } arch in
  ignore (Worm.inject ~size_flits:2 starved ~src:4 ~dst:2);
  Alcotest.(check bool) "truncation flagged" true (Worm.vc_truncated starved);
  Alcotest.(check int) "discipline wanted 2 VCs" 2 (Worm.vcs_required starved);
  Alcotest.(check int) "one worm truncated" 1 (Worm.vc_truncated_count starved);
  (* the same flow with enough VCs is sound and must not warn *)
  let ok = Worm.create arch in
  ignore (Worm.inject ~size_flits:2 ok ~src:4 ~dst:2);
  Alcotest.(check bool) "no truncation at num_vcs = 2" false (Worm.vc_truncated ok);
  (match Worm.run_until_idle ok with
  | `Idle -> ()
  | _ -> Alcotest.fail "sound assignment must drain")

(* ---------------------------------------------------------------- *)
(* Differential qcheck suites (>= 200 cases each, fixed seeds)       *)

(* decompose + glue a random fuzz ACG, burst one packet per flow *)
let random_case seed =
  let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed) in
  let d, _ = Bb.decompose ~library:(lib ()) acg in
  (acg, Syn.custom acg d)

let burst ?wormhole_config ?flit_config kind acg arch =
  let net = Engine.create ?wormhole_config ?flit_config kind arch in
  let b = Traffic.burst ~size_flits:2 net (D.edges (Acg.graph acg)) in
  (net, b.Traffic.verdict)

let delivery_set net =
  Engine.deliveries net
  |> List.map (fun (d : Packet.delivery) ->
         (d.packet.Packet.id, d.packet.Packet.src, d.packet.Packet.dst))
  |> List.sort compare

let qcheck_engines_agree =
  QCheck.Test.make ~name:"flit = wormhole = coarse on fuzz ACGs (deliveries)" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 80_000 + k in
      let acg, arch = random_case seed in
      (* a generous VC budget keeps the wormhole assignment sound on
         arbitrary routes, so both reference engines must drain *)
      let wormhole_config = { Worm.num_vcs = 16; flit_bits = 8 } in
      let coarse, cv = burst Engine.Coarse acg arch in
      let worm, wv = burst ~wormhole_config Engine.Wormhole acg arch in
      if cv <> Engine.Idle then
        QCheck.Test.fail_reportf "seed %d: coarse verdict %s" seed (Engine.verdict_name cv);
      if wv <> Engine.Idle then
        QCheck.Test.fail_reportf "seed %d: wormhole verdict %s" seed (Engine.verdict_name wv);
      let flit, fv = burst Engine.Flit acg arch in
      (match fv with
      | Engine.Idle ->
          if delivery_set flit <> delivery_set worm then
            QCheck.Test.fail_reportf "seed %d: flit/wormhole delivery sets differ" seed
      | Engine.Deadlock ->
          (* the flit engine has no VCs, so it may genuinely deadlock —
             but only where the single-channel CDG is cyclic *)
          if Dead.is_deadlock_free arch then
            QCheck.Test.fail_reportf "seed %d: flit deadlock on an acyclic CDG" seed
      | Engine.Limit n ->
          QCheck.Test.fail_reportf "seed %d: flit hit the cycle limit (%d pending)" seed n);
      if delivery_set coarse <> delivery_set worm then
        QCheck.Test.fail_reportf "seed %d: coarse/wormhole delivery sets differ" seed;
      List.iter
        (fun net ->
          if not (Engine.conserved net) then
            QCheck.Test.fail_reportf "seed %d: %s conservation broken" seed (Engine.name net))
        [ coarse; worm; flit ];
      true)

(* one 200-case property per engine, each through [Engine.conserved] *)
let qcheck_conservation_every_cycle kind =
  QCheck.Test.make
    ~name:(Engine.kind_name kind ^ " conservation holds after every cycle")
    ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 90_000 + k in
      let acg, arch = random_case seed in
      let net = Engine.create kind arch in
      let check () =
        if not (Engine.conserved net) then
          QCheck.Test.fail_reportf "seed %d: conservation broken at cycle %d" seed
            (Engine.now net)
      in
      (* stagger the injections so arrivals, credit returns and NI pushes
         overlap in as many phase combinations as possible *)
      List.iteri
        (fun i (src, dst) ->
          ignore (Engine.inject ~size_flits:(1 + (i mod 3)) net ~src ~dst);
          Engine.step net;
          check ())
        (D.edges (Acg.graph acg));
      let budget = ref 5_000 in
      while Engine.pending net > 0 && !budget > 0 do
        decr budget;
        Engine.step net;
        check ()
      done;
      (* cyclic-CDG cases may deadlock with flits parked in VOQs (or worms
         holding their VCs); the invariant must hold there too, which the
         loop above checked *)
      true)

(* Traffic.run offers every engine the same packets: with one seed and
   one flow list, the injected sequence (id, src, dst, size, cycle) cannot
   depend on the fidelity.  The coarse engine cannot deadlock and the
   wormhole engine gets a sound VC budget, so both deliver the whole
   sequence; the flit engine delivers all of it, or a subset of it when a
   cyclic CDG deadlocks the fabric. *)
let qcheck_traffic_same_packets =
  QCheck.Test.make ~name:"Traffic.run injects the same packets on every engine" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 50_000 + k in
      let acg, arch = random_case seed in
      let flows = Traffic.flows_of_acg ~rate_scale:0.05 acg in
      let run kind =
        let net =
          Engine.create ~wormhole_config:{ Worm.num_vcs = 16; flit_bits = 8 } kind arch
        in
        let verdict, injected =
          Traffic.run ~rng:(Prng.create ~seed) ~flows ~cycles:60 net
        in
        let sequence =
          Engine.deliveries net
          |> List.map (fun { Packet.packet = p; _ } ->
                 (p.Packet.id, p.Packet.src, p.Packet.dst, p.Packet.size_flits,
                  p.Packet.injected_at))
          |> List.sort compare
        in
        (verdict, injected, sequence)
      in
      let cv, injected, offered = run Engine.Coarse in
      let wv, w_injected, w_seq = run Engine.Wormhole in
      let fv, f_injected, f_seq = run Engine.Flit in
      if cv <> Engine.Idle || wv <> Engine.Idle then
        QCheck.Test.fail_reportf "seed %d: coarse %s, wormhole %s" seed
          (Engine.verdict_name cv) (Engine.verdict_name wv);
      if w_injected <> injected || f_injected <> injected then
        QCheck.Test.fail_reportf "seed %d: injected coarse %d, wormhole %d, flit %d" seed
          injected w_injected f_injected;
      if List.map (fun (id, _, _, _, _) -> id) offered <> List.init injected Fun.id then
        QCheck.Test.fail_reportf "seed %d: coarse did not deliver ids 0..%d" seed
          (injected - 1);
      if w_seq <> offered then
        QCheck.Test.fail_reportf "seed %d: wormhole packet sequence differs" seed;
      (match fv with
      | Engine.Idle ->
          if f_seq <> offered then
            QCheck.Test.fail_reportf "seed %d: flit packet sequence differs" seed
      | Engine.Deadlock ->
          if Dead.is_deadlock_free arch then
            QCheck.Test.fail_reportf "seed %d: flit deadlock on an acyclic CDG" seed;
          if not (List.for_all (fun p -> List.mem p offered) f_seq) then
            QCheck.Test.fail_reportf "seed %d: flit delivered a packet never offered" seed
      | Engine.Limit n ->
          QCheck.Test.fail_reportf "seed %d: flit hit the drain bound (%d pending)" seed n);
      true)

let qcheck_deeper_fifos_monotone =
  QCheck.Test.make ~name:"deeper FIFOs never slow an uncontended burst" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let h = 1 + (k mod 5) and n = 1 + (k mod 4) and packets = 2 + (k mod 4) in
      let makespan depth =
        let cfg = { Flit.default_config with Flit.fifo_depth = depth } in
        let f = Flit.create ~config:cfg (line_arch h) in
        for _ = 1 to packets do
          ignore (Flit.inject ~size_flits:n f ~src:0 ~dst:h)
        done;
        match Flit.run_until_idle f with
        | `Idle -> Flit.now f
        | _ -> QCheck.Test.fail_reportf "line burst failed at depth %d" depth
      in
      let shallow = makespan 1 and deep = makespan 4 in
      if deep > shallow then
        QCheck.Test.fail_reportf "h=%d n=%d x%d: depth 4 takes %d > depth 1's %d" h n
          packets deep shallow;
      true)

(* ---------------------------------------------------------------- *)
(* Flit accounting invariants                                       *)

let sum_bindings fold m = fold (fun _ n acc -> acc + n) m 0

let test_flit_accounting_line () =
  let f = Flit.create (line_arch 3) in
  ignore (Flit.inject ~size_flits:4 f ~src:0 ~dst:3);
  ignore (Flit.inject ~size_flits:2 f ~src:0 ~dst:3);
  ignore (Flit.run_until_idle f);
  Alcotest.(check (list (pair (pair int int) int)))
    "per-link flits"
    [ ((0, 1), 6); ((1, 2), 6); ((2, 3), 6) ]
    (Edge_map.bindings (Flit.link_flits f));
  (* routers 0..2 switch each flit onto a link, router 3 into its sink *)
  Alcotest.(check (list (pair int int)))
    "per-router flits"
    [ (0, 6); (1, 6); (2, 6); (3, 6) ]
    (D.Vmap.bindings (Flit.switch_flits f))

let qcheck_flit_accounting =
  QCheck.Test.make ~name:"flit link/switch counters sum to hops and deliveries" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 70_000 + k in
      let acg, arch = random_case seed in
      let f = Flit.create arch in
      D.iter_edges (fun src dst -> ignore (Flit.inject ~size_flits:2 f ~src ~dst)) (Acg.graph acg);
      (match Flit.run_until_idle f with
      | `Idle ->
          let links = sum_bindings Edge_map.fold (Flit.link_flits f)
          and switches = sum_bindings D.Vmap.fold (Flit.switch_flits f) in
          if links <> Flit.flit_hops f then
            QCheck.Test.fail_reportf "seed %d: sum link_flits %d <> flit_hops %d" seed links
              (Flit.flit_hops f);
          if switches <> Flit.flit_hops f + Flit.delivered_flits f then
            QCheck.Test.fail_reportf "seed %d: sum switch_flits %d <> hops %d + delivered %d"
              seed switches (Flit.flit_hops f) (Flit.delivered_flits f)
      | _ -> ());
      true)

(* ---------------------------------------------------------------- *)
(* Cycle-exact golden digests                                       *)

(* The unidirectional ring 1 -> 2 -> 3 -> 4 -> 1 with the four clockwise
   3-hop flows: a cyclic channel dependency graph, so a flit burst
   deadlocks the fabric. *)
let ring_flows = [ (1, [ 1; 2; 3; 4 ]); (2, [ 2; 3; 4; 1 ]); (3, [ 3; 4; 1; 2 ]); (4, [ 4; 1; 2; 3 ]) ]

let ring_arch () =
  let routes =
    List.fold_left
      (fun m (src, path) -> Edge_map.add (src, List.nth path 3) path m)
      Edge_map.empty ring_flows
  in
  Syn.make ~topology:(G.loop 4) ~routes ()

let ring_acg () =
  Acg.uniform ~volume:16 ~bandwidth:0.1
    (List.fold_left
       (fun g (src, path) -> D.add_edge g src (List.nth path 3))
       D.empty ring_flows)

(* Everything a run observes, in order: the verdict and final cycle, each
   delivery with its cycle, the hop and buffer integrals, and the
   per-link and per-router counters.  [per_cycle] flows are injected per
   cycle, cycling six times through the flow list with packets of 1-3
   flits, so arrivals, credit returns and NI pushes interleave. *)
let golden_trace arch flows ~per_cycle =
  let f = Flit.create arch in
  let b = Buffer.create 4096 in
  List.iteri
    (fun i (src, dst) ->
      ignore (Flit.inject ~size_flits:(1 + (i mod 3)) f ~src ~dst);
      if (i + 1) mod per_cycle = 0 then Flit.step f)
    (List.concat (List.init 6 (fun _ -> flows)));
  (match Flit.run_until_idle ~max_cycles:20_000 f with
  | `Idle -> Buffer.add_string b "idle"
  | `Deadlock -> Buffer.add_string b "deadlock"
  | `Limit n -> Printf.bprintf b "limit %d" n);
  Printf.bprintf b " now=%d\n" (Flit.now f);
  List.iter
    (fun d -> Printf.bprintf b "%d@%d;" d.Packet.packet.Packet.id d.Packet.delivered_at)
    (Flit.deliveries f);
  Printf.bprintf b "\nhops=%d buf=%d\n" (Flit.flit_hops f) (Flit.buffer_flit_cycles f);
  Edge_map.iter (fun (u, v) n -> Printf.bprintf b "%d>%d=%d;" u v n) (Flit.link_flits f);
  Buffer.add_char b '\n';
  D.Vmap.iter (fun v n -> Printf.bprintf b "%d=%d;" v n) (Flit.switch_flits f);
  Buffer.contents b

let golden_digest arch acg =
  let flows = D.edges (Acg.graph acg) in
  Digest.to_hex
    (Digest.string (golden_trace arch flows ~per_cycle:1 ^ golden_trace arch flows ~per_cycle:4))

let golden_cases () =
  let fuzz =
    List.init 40 (fun k ->
        let acg, arch = random_case (60_000 + k) in
        (Printf.sprintf "fuzz-%d" (60_000 + k), arch, acg))
  in
  let corpus =
    List.map
      (fun (s : Noc_benchkit.Corpus.scenario) ->
        let d, _ =
          Bb.decompose ~budget:Bb.Budget.(default |> with_max_nodes 2_000) ~library:(lib ())
            s.acg
        in
        (s.name, Syn.custom s.acg d, s.acg))
      (Noc_benchkit.Corpus.default ())
  in
  fuzz @ corpus @ [ ("ring-deadlock", ring_arch (), ring_acg ()) ]

(* Recorded from the flit engine before its data path was rewritten; a
   semantic change to the engine must regenerate them deliberately (the
   failure message prints the replacement row). *)
let golden_table =
  [
    ("fuzz-60000", "114e56e640b694988037085839af53df");
    ("fuzz-60001", "f9b30714f3f3e7253bd083765c4380d3");
    ("fuzz-60002", "d73911e4fbf6b8ff625a255711a71bac");
    ("fuzz-60003", "28065edd7860badc274cb3815a94876a");
    ("fuzz-60004", "1049c686d046557d401eb22bc1a11421");
    ("fuzz-60005", "5841a56634f6387e66071d8f9c78536f");
    ("fuzz-60006", "61ed09a7134338313f1b06b8b0089af2");
    ("fuzz-60007", "a01d7a734a8a41c840780a3bc174ecdc");
    ("fuzz-60008", "1c8681f29c56412e5dc0075a04573533");
    ("fuzz-60009", "00094f559725c3ffc778399a1bf17a06");
    ("fuzz-60010", "0c24a4a6cbc5e8063361d8efe23a558c");
    ("fuzz-60011", "b7e674e18e5e6ccc5af55594a3016406");
    ("fuzz-60012", "53e61085e74ad30a124f94887c3a381e");
    ("fuzz-60013", "74c385e60cbbe9763fa3c1c1ac8c4670");
    ("fuzz-60014", "7a891c25e9eac5ab213839c59ddc1388");
    ("fuzz-60015", "9778c838baa09f06537d3547acace1b3");
    ("fuzz-60016", "59b40ce0d12d2df7221493ef434c958f");
    ("fuzz-60017", "bce3dce2465564f1932e067e9481655c");
    ("fuzz-60018", "cc3e9ccfb4490b0b661dc1b64eda5b3a");
    ("fuzz-60019", "833a090bf58befc4d8d2391ea01896d7");
    ("fuzz-60020", "1e001320286cb42764b20b7ca1536802");
    ("fuzz-60021", "309fa6699d300a50ce7dac79aedcc46a");
    ("fuzz-60022", "f7040e433289e52a899b6d9f865763c0");
    ("fuzz-60023", "a517101a10b30b77c7c6f4a2acb80830");
    ("fuzz-60024", "a870e158d2221cae851e55ee394272db");
    ("fuzz-60025", "fb6ab4ba9d5149942d70f1dcae0cee27");
    ("fuzz-60026", "4697df617ac5c86bf48bb59fc44c355c");
    ("fuzz-60027", "098d561bfaa94f8d0d14312a34ba510b");
    ("fuzz-60028", "4e4afde309647f9a33e497ddb01115b1");
    ("fuzz-60029", "01134fe6c4e8c75d0bac3d877e4050dc");
    ("fuzz-60030", "cb0ea884e15a84fcfb6d7b5fdc605354");
    ("fuzz-60031", "ce02c91caf2a5419a846ab1dbaf6c54a");
    ("fuzz-60032", "0d384802e482d81791481cec3c8859d9");
    ("fuzz-60033", "cfc4c7d6ece939c18289c94b7a6b1074");
    ("fuzz-60034", "402101ea5695462b23392d223e299f65");
    ("fuzz-60035", "4b4ec52380d750af86bf75d4186cfef8");
    ("fuzz-60036", "b40c2ccbdd69f32b43ec6494a7d4e9a4");
    ("fuzz-60037", "261b9b53decf7cd1893cce681c9ef620");
    ("fuzz-60038", "102861eb2039a7c6e0c46f39878efb3b");
    ("fuzz-60039", "67e04e8dd2153b8e5a590d11e7ce076a");
    ("fig2", "68d848b032909c915427f485a5ce6865");
    ("fig5", "ee79941e47c5db71abf672adbb8e495e");
    ("aes", "cf7409cd7c34087d56bd3ec67644e884");
    ("vopd", "794deb6c63fbb2d0aef89f08df0e9956");
    ("mpeg4", "673ad0830a2fb6ce95cc3dd1e861d0da");
    ("fft16", "db1781b65481df49850ccd107ad41722");
    ("tgff-automotive-s11", "074f2f5ed586dab9a8809cdc5483e4fc");
    ("tgff-telecom-s7", "3c9c7c1a7c36a5c99de29053158b7449");
    ("tgff-12-s3", "dfac30684075d0ff00c7537bf4891447");
    ("tgff-16-s5", "3f4a60f249cf36786028506a14d7f0d2");
    ("rand-12-s1", "3004d7a144196a350d46766432b17424");
    ("rand-16-s2", "e28468cf0a330427c4b11066b0665653");
    ("ring-deadlock", "01f88b9fe38eae02183a1f13e3ee7bd3");
  ]

let test_flit_golden () =
  let cases = golden_cases () in
  let differing =
    List.filter_map
      (fun (name, arch, acg) ->
        let actual = golden_digest arch acg in
        if List.assoc_opt name golden_table = Some actual then None
        else Some (Printf.sprintf "(%S, %S);" name actual))
      cases
  in
  if differing <> [] then
    Alcotest.failf "golden digests differ:\n%s" (String.concat "\n" differing);
  Alcotest.(check int) "golden table covers every case" (List.length cases)
    (List.length golden_table)

(* the golden table's cyclic-CDG case really does deadlock *)
let test_ring_deadlocks () =
  let arch = ring_arch () in
  Alcotest.(check bool) "ring CDG is cyclic" false (Dead.is_deadlock_free arch);
  let trace = golden_trace arch (D.edges (Acg.graph (ring_acg ()))) ~per_cycle:4 in
  Alcotest.(check bool) "heavy golden burst deadlocks" true
    (String.starts_with ~prefix:"deadlock" trace)

(* Regression: the sweep used to drop the drain verdict, so a deadlocked
   point reported the latency of its few delivered packets and the knee
   detector read the ring as never saturating. *)
let test_sweep_reports_deadlock () =
  let points =
    Noc_sim.Sweep.latency_vs_load ~engine:Engine.Flit ~rng:(Prng.create ~seed:5)
      ~arch:(ring_arch ()) ~acg:(ring_acg ()) ~cycles:1000
      ~rates:[ 0.01; 0.05; 0.1; 0.3; 0.6 ] ()
  in
  List.iter
    (fun (p : Noc_sim.Sweep.point) ->
      Alcotest.(check int)
        (Printf.sprintf "rate %.2f: injected = delivered + stranded" p.rate)
        p.injected (p.delivered + p.stranded))
    points;
  Alcotest.(check int) "the lightest load drains" 0 (List.hd points).Noc_sim.Sweep.stranded;
  Alcotest.(check (option (float 1e-9)))
    "saturated at the first rate that strands packets" (Some 0.05)
    (Noc_sim.Sweep.saturation_rate points)

(* Regression: [simulate FILE] used to print a hard-coded "idle" for the
   coarse engine; the driver now hands every caller the drain's real
   verdict.  Bernoulli traffic on the cyclic ring deadlocks the flit
   fabric, while the coarse engine (unbounded per-hop buffers) drains. *)
let test_traffic_reports_deadlock () =
  let flows = Traffic.flows_of_acg ~rate_scale:0.3 (ring_acg ()) in
  let drive kind =
    let net = Engine.create kind (ring_arch ()) in
    let verdict, injected = Traffic.run ~rng:(Prng.create ~seed:5) ~flows ~cycles:500 net in
    Alcotest.(check int)
      (Engine.name net ^ ": injected = delivered + pending")
      injected
      (List.length (Engine.deliveries net) + Engine.pending net);
    verdict
  in
  Alcotest.(check string) "flit engine deadlocks" "deadlock"
    (Engine.verdict_name (drive Engine.Flit));
  Alcotest.(check string) "coarse engine drains" "idle"
    (Engine.verdict_name (drive Engine.Coarse))

let suite =
  ( "flit",
    [
      Alcotest.test_case "credit counters" `Quick test_credit_basics;
      Alcotest.test_case "flit: pinned latency formula" `Quick test_flit_latency_formula;
      Alcotest.test_case "flit: zero-hop serialization" `Quick test_flit_zero_hop;
      Alcotest.test_case "flit: accounting" `Quick test_flit_accounting;
      Alcotest.test_case "engine: dispatch" `Quick test_engine_dispatch;
      Alcotest.test_case "wormhole: zero-hop worm (regression)" `Quick test_wormhole_zero_hop;
      Alcotest.test_case "wormhole: 300-worm burst (regression)" `Quick
        test_wormhole_mass_injection;
      Alcotest.test_case "wormhole: VC-cap truncation (regression)" `Quick
        test_wormhole_vc_truncation;
      QCheck_alcotest.to_alcotest qcheck_engines_agree;
      QCheck_alcotest.to_alcotest (qcheck_conservation_every_cycle Engine.Flit);
      QCheck_alcotest.to_alcotest (qcheck_conservation_every_cycle Engine.Coarse);
      QCheck_alcotest.to_alcotest (qcheck_conservation_every_cycle Engine.Wormhole);
      QCheck_alcotest.to_alcotest qcheck_traffic_same_packets;
      QCheck_alcotest.to_alcotest qcheck_deeper_fifos_monotone;
      Alcotest.test_case "flit: per-link and per-router counters" `Quick
        test_flit_accounting_line;
      QCheck_alcotest.to_alcotest qcheck_flit_accounting;
      Alcotest.test_case "flit: ring burst deadlocks" `Quick test_ring_deadlocks;
      Alcotest.test_case "sweep: deadlocked points are stranded (regression)" `Quick
        test_sweep_reports_deadlock;
      Alcotest.test_case "traffic: the drain verdict is reported (regression)" `Quick
        test_traffic_reports_deadlock;
      Alcotest.test_case "flit: cycle-exact golden digests" `Quick test_flit_golden;
    ] )
