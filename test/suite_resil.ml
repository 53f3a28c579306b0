(* Tests for the fault-injection and graceful-degradation subsystem
   (lib/resil + the fault-aware simulator): fault model, static rerouting,
   mid-flight failures, drop classification, transient repair, hardening
   and campaign determinism. *)

module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module Net = Noc_sim.Network
module Fault = Noc_resil.Fault
module Reroute = Noc_resil.Reroute
module Campaign = Noc_resil.Campaign
module Prng = Noc_util.Prng
module Fuzz = Noc_oracle.Fuzz

let add_pair g (u, v) = D.add_edge (D.add_edge g u v) v u

let topology_of pairs = List.fold_left add_pair D.empty pairs

(* Diamond: 1-2-4 and 1-3-4; the single flow is routed over the top (via
   2), so killing link 1-2 leaves a live detour through 3. *)
let diamond_arch () =
  let topology = topology_of [ (1, 2); (2, 4); (1, 3); (3, 4) ] in
  let routes = D.Edge_map.singleton (1, 4) [ 1; 2; 4 ] in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 4) ]) in
  (acg, Syn.make ~topology ~routes ())

(* Line: 1-2-3; no redundancy at all. *)
let line_arch () =
  let topology = topology_of [ (1, 2); (2, 3) ] in
  let routes =
    D.Edge_map.of_seq (List.to_seq [ ((1, 3), [ 1; 2; 3 ]); ((1, 2), [ 1; 2 ]) ])
  in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 3); (1, 2) ]) in
  (acg, Syn.make ~topology ~routes ())

let idle_exn net =
  match Net.run_until_idle net with
  | `Idle -> ()
  | `Limit n -> Alcotest.failf "network did not drain: %d packet(s) pending" n

(* ---------------------------------------------------------------- *)
(* Fault model                                                      *)

let test_fault_model () =
  let f = Fault.link 7 3 in
  Alcotest.(check bool) "link endpoints normalized" true (f.Fault.target = Fault.Link (3, 7));
  Alcotest.(check int) "default strike cycle" 1 f.Fault.at;
  let _, arch = diamond_arch () in
  Alcotest.(check (list (pair int int)))
    "undirected links, sorted"
    [ (1, 2); (1, 3); (2, 4); (3, 4) ]
    (Fault.undirected_links arch);
  let sweep = Fault.single_link_campaign arch in
  Alcotest.(check int) "one fault set per link" 4 (List.length sweep);
  List.iter
    (fun set -> Alcotest.(check int) "singleton sets" 1 (List.length set))
    sweep;
  let multi arch =
    Fault.multi_link_campaign ~rng:(Prng.create ~seed:9) ~links:2 ~samples:6 arch
  in
  Alcotest.(check bool) "multi-link sampling deterministic" true (multi arch = multi arch);
  List.iter
    (fun set ->
      Alcotest.(check int) "requested set size" 2 (List.length set);
      let links = List.map (fun f -> f.Fault.target) set in
      Alcotest.(check int)
        "distinct links per set" 2
        (List.length (List.sort_uniq compare links)))
    (multi arch)

(* ---------------------------------------------------------------- *)
(* Static rerouting                                                 *)

let test_reroute_diamond () =
  let _, arch = diamond_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.link 1 2 ] in
  Alcotest.(check (list (pair int int))) "nothing kept" [] o.Reroute.kept;
  Alcotest.(check (list (pair int int))) "flow rerouted" [ (1, 4) ] o.Reroute.rerouted;
  Alcotest.(check (list (pair int int))) "nothing disconnected" [] o.Reroute.disconnected;
  Alcotest.(check (option (list int)))
    "detour through 3" (Some [ 1; 3; 4 ])
    (Syn.route o.Reroute.arch ~src:1 ~dst:4);
  Alcotest.(check bool) "degraded routes valid" true (Syn.routes_valid o.Reroute.arch)

let test_reroute_disconnects () =
  let _, arch = line_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.link 2 3 ] in
  Alcotest.(check (list (pair int int))) "short flow kept" [ (1, 2) ] o.Reroute.kept;
  Alcotest.(check (list (pair int int))) "cut flow reported" [ (1, 3) ] o.Reroute.disconnected;
  Alcotest.(check (option (list int)))
    "cut flow dropped from the table" None
    (Syn.route o.Reroute.arch ~src:1 ~dst:3)

let test_reroute_dead_switch () =
  let _, arch = line_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.switch 2 ] in
  (* switch 2 takes both flows with it *)
  Alcotest.(check (list (pair int int)))
    "both flows disconnected"
    [ (1, 2); (1, 3) ]
    o.Reroute.disconnected

(* ---------------------------------------------------------------- *)
(* Fault-aware simulation                                           *)

let test_midflight_failure_rerouted () =
  let _, arch = diamond_arch () in
  let net = Net.create arch in
  let id = Net.inject ~size_flits:2 net ~src:1 ~dst:4 in
  Net.fail_link_at net ~at:2 1 2;
  idle_exn net;
  Alcotest.(check int) "delivered" 1 (Net.delivered_count net);
  Alcotest.(check int) "nothing dropped" 0 (Net.dropped_count net);
  (match Net.route_taken net id with
  | None -> Alcotest.fail "delivered packet has a path"
  | Some path ->
      let rec crosses = function
        | a :: (b :: _ as rest) -> ((a, b) = (1, 2) || (a, b) = (2, 1)) || crosses rest
        | _ -> false
      in
      Alcotest.(check bool) "path avoids the dead link" false (crosses path));
  Alcotest.(check (list (pair int int))) "link still down" [ (1, 2) ] (Net.failed_links net)

let test_permanent_disconnection_drops () =
  let _, arch = line_arch () in
  let net = Net.create arch in
  let _ = Net.inject ~size_flits:2 net ~src:1 ~dst:3 in
  Net.fail_link_at net ~at:1 2 3;
  idle_exn net;
  Alcotest.(check int) "not delivered" 0 (Net.delivered_count net);
  Alcotest.(check int) "classified as dropped" 1 (Net.dropped_count net);
  Alcotest.(check (list pass)) "nothing stranded" [] (Net.stranded net);
  match Net.drops net with
  | [ { Net.reason = Net.No_route; _ } ] -> ()
  | [ { Net.reason; _ } ] ->
      Alcotest.failf "expected No_route, got %s"
        (Format.asprintf "%a" Net.pp_drop_reason reason)
  | ds -> Alcotest.failf "expected one drop, got %d" (List.length ds)

let test_transient_failure_heals () =
  let _, arch = line_arch () in
  let net = Net.create arch in
  let _ = Net.inject ~size_flits:2 net ~src:1 ~dst:3 in
  Net.fail_link_at net ~at:1 ~repair_at:60 2 3;
  idle_exn net;
  Alcotest.(check int) "delivered after the repair" 1 (Net.delivered_count net);
  Alcotest.(check int) "nothing dropped" 0 (Net.dropped_count net);
  Alcotest.(check bool) "source NI retried" true (Net.retries net > 0);
  Alcotest.(check (list (pair int int))) "link back up" [] (Net.failed_links net);
  match Net.deliveries net with
  | [ { Noc_sim.Packet.delivered_at; _ } ] ->
      Alcotest.(check bool) "delivery waited for the repair" true (delivered_at >= 60)
  | _ -> Alcotest.fail "one delivery expected"

let test_dead_destination_drops_at_injection () =
  let _, arch = line_arch () in
  let net = Net.create arch in
  Net.fail_switch net 3;
  let _ = Net.inject net ~src:1 ~dst:3 in
  Alcotest.(check int) "dropped immediately" 1 (Net.dropped_count net);
  (match Net.drops net with
  | [ { Net.reason = Net.Switch_failed; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Switch_failed drop");
  idle_exn net

let test_midflight_switch_failure () =
  let _, arch = line_arch () in
  let net = Net.create arch in
  let _ = Net.inject ~size_flits:2 net ~src:1 ~dst:3 in
  Net.fail_switch_at net ~at:3 2;
  idle_exn net;
  Alcotest.(check int) "injected = delivered + dropped" 1
    (Net.delivered_count net + Net.dropped_count net);
  Alcotest.(check int) "not delivered (2 was the only via)" 0 (Net.delivered_count net);
  Alcotest.(check (list int)) "switch listed" [ 2 ] (Net.failed_switches net)

let test_limit_reports_stranded () =
  let _, arch = diamond_arch () in
  let net = Net.create arch in
  let id = Net.inject ~size_flits:2 net ~src:1 ~dst:4 in
  (match Net.run_until_idle ~max_cycles:2 net with
  | `Limit 1 -> ()
  | `Limit n -> Alcotest.failf "expected 1 pending, got %d" n
  | `Idle -> Alcotest.fail "2 cycles cannot drain a 2-flit packet");
  (match Net.stranded net with
  | [ p ] -> Alcotest.(check int) "stranded packet identified" id p.Noc_sim.Packet.id
  | ps -> Alcotest.failf "expected 1 stranded packet, got %d" (List.length ps));
  idle_exn net;
  Alcotest.(check (list pass)) "stranded clears at idle" [] (Net.stranded net)

(* ---------------------------------------------------------------- *)
(* Hardening and campaigns                                          *)

let harden_ctx () =
  let acg, arch = line_arch () in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:3 ~size_mm:2.0) in
  (acg, arch, Syn.harden ~tech ~fp arch)

let test_harden_adds_spares () =
  let _, arch, (hardened, spares) = harden_ctx () in
  Alcotest.(check bool) "the line needs spares" true (spares <> []);
  Alcotest.(check bool)
    "hardened has more links" true
    (Syn.link_count hardened > Syn.link_count arch);
  Alcotest.(check bool) "original routes preserved" true (Syn.routes_valid hardened);
  (* now no single link failure may disconnect any flow *)
  List.iter
    (fun link ->
      let o = Reroute.apply hardened ~faults:[ (fun (u, v) -> Fault.link u v) link ] in
      Alcotest.(check (list (pair int int)))
        "no disconnection under any single-link failure" [] o.Reroute.disconnected)
    (Fault.undirected_links hardened)

let test_campaign_classifies_everything () =
  let acg, arch = line_arch () in
  let rep = Campaign.run ~name:"line" ~seed:7 ~spec:Campaign.Single_link acg arch in
  Alcotest.(check int) "one run per link" 2 (List.length rep.Campaign.runs);
  Alcotest.(check int) "nothing stranded" 0 rep.Campaign.stranded_total;
  List.iter
    (fun (r : Campaign.run_result) ->
      Alcotest.(check int)
        "delivered + dropped = injected" r.Campaign.injected
        (r.Campaign.delivered + r.Campaign.dropped))
    (rep.Campaign.baseline :: rep.Campaign.runs);
  (* cutting either line link loses exactly one of the two flows *)
  Alcotest.(check bool) "the line does not survive" false rep.Campaign.survives_all;
  Alcotest.(check int) "both links critical" 2 rep.Campaign.critical_links;
  Alcotest.(check int)
    "criticality covers every link" 2
    (List.length rep.Campaign.criticality)

let test_campaign_hardened_survives () =
  let acg, _, (hardened, _) = harden_ctx () in
  let rep = Campaign.run ~name:"line+" ~seed:7 ~spec:Campaign.Single_link acg hardened in
  Alcotest.(check bool) "hardened line survives" true rep.Campaign.survives_all;
  Alcotest.(check (float 1e-9))
    "delivered fraction 1.0" 1.0 rep.Campaign.min_delivered_fraction;
  Alcotest.(check int) "no critical links left" 0 rep.Campaign.critical_links

let test_campaign_deterministic () =
  let acg, arch = diamond_arch () in
  let spec = Campaign.Multi_link { links = 2; samples = 5 } in
  let run () = Campaign.run ~name:"diamond" ~seed:11 ~spec acg arch in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reports for one seed" true (a = b);
  Alcotest.(check int) "sampled size" 5 (List.length a.Campaign.runs)

(* ---------------------------------------------------------------- *)
(* Differential property (shared with the fuzz harness)             *)

let qcheck_reroute_avoids_faults =
  QCheck.Test.make ~name:"reroute avoids failed links (oracle path search)" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed:(80_000 + k)) in
      match
        Fuzz.check ~library:(Noc_primitives.Library.default ()) "reroute-avoids-faults"
          acg
      with
      | Ok () -> true
      | Error detail -> QCheck.Test.fail_reportf "seed %d: %s" (80_000 + k) detail)

let suite =
  ( "resil",
    [
      Alcotest.test_case "fault model" `Quick test_fault_model;
      Alcotest.test_case "reroute: diamond detour" `Quick test_reroute_diamond;
      Alcotest.test_case "reroute: disconnection" `Quick test_reroute_disconnects;
      Alcotest.test_case "reroute: dead switch" `Quick test_reroute_dead_switch;
      Alcotest.test_case "sim: mid-flight failure rerouted" `Quick
        test_midflight_failure_rerouted;
      Alcotest.test_case "sim: permanent cut drops" `Quick
        test_permanent_disconnection_drops;
      Alcotest.test_case "sim: transient failure heals" `Quick test_transient_failure_heals;
      Alcotest.test_case "sim: dead destination" `Quick
        test_dead_destination_drops_at_injection;
      Alcotest.test_case "sim: mid-flight switch failure" `Quick
        test_midflight_switch_failure;
      Alcotest.test_case "sim: limit reports stranded" `Quick test_limit_reports_stranded;
      Alcotest.test_case "harden adds spares" `Quick test_harden_adds_spares;
      Alcotest.test_case "campaign classifies everything" `Quick
        test_campaign_classifies_everything;
      Alcotest.test_case "campaign: hardened survives" `Quick
        test_campaign_hardened_survives;
      Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
      QCheck_alcotest.to_alcotest qcheck_reroute_avoids_faults;
    ] )
