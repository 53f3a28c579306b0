module D = Noc_graph.Digraph
module Edge_map = D.Edge_map
module Vmap = D.Vmap
module Syn = Noc_core.Synthesis

type config = { fifo_depth : int; flit_bits : int; phit_bits : int; router_delay : int }

let default_config = { fifo_depth = 4; flit_bits = 32; phit_bits = 8; router_delay = 1 }

let phits_per_flit cfg = (cfg.flit_bits + cfg.phit_bits - 1) / cfg.phit_bits

(* A route of [arch.routes], resolved once: the vertex path all its
   packets share, the index of its source router, and the VOQ its flits
   occupy at each hop ([Router.flit.path]). *)
type route = { vertices : int array; src_router : int; path : Router.voq array }

type t = {
  cfg : config;
  ppf : int;
  routers : Router.t array;
      (* one per vertex, ascending: the one scan order every phase uses *)
  routes : route Edge_map.t;
  down : int array array;
      (* [down.(r).(p)]: index of the router that output [p] of router [r]
         feeds ([-1] for the ejection port) *)
  queued : int array array;  (* flits in the VOQs of each output port *)
  held : int array;  (* flits in each router's VOQs *)
  wires : int array;  (* flits on each router's outgoing links *)
  link_count : int array array;  (* flits that arrived over each output link *)
  switch_count : int array;  (* flits each router switched onto a link or ejected *)
  mutable credits_due : Credit.t list;
      (* returns scheduled this cycle: every return lands one cycle later *)
  mutable cycle : int;
  mutable next_id : int;
  mutable injected_packets : int;
  mutable delivered_packets : int;
  mutable delivered_rev : Packet.delivery list;
  mutable injected_flits : int;
  mutable delivered_flits : int;
  mutable ni_occupancy : int;
  mutable voq_occupancy : int;
  mutable wire_occupancy : int;
  mutable flit_hops : int;
  mutable buffer_flit_cycles : int;
  mutable moved : bool;
  mutable last_ready : int;
      (* latest ready_at ever assigned: while cycle < last_ready a flit may
         still be maturing in a router pipeline, so a motionless cycle is
         not yet proof of a fixpoint *)
}

let create ?(config = default_config) arch =
  if config.fifo_depth < 1 then invalid_arg "Flitsim.create: fifo_depth must be >= 1";
  if config.flit_bits < 1 then invalid_arg "Flitsim.create: flit_bits must be >= 1";
  if config.phit_bits < 1 then invalid_arg "Flitsim.create: phit_bits must be >= 1";
  if config.router_delay < 1 then invalid_arg "Flitsim.create: router_delay must be >= 1";
  let topo = arch.Syn.topology in
  (* Routers for every topology vertex plus every route vertex: a zero-hop
     flow [v -> v] may name a core no link touches. *)
  let vset =
    Edge_map.fold
      (fun _ path acc -> List.fold_left (fun acc v -> D.Vset.add v acc) acc path)
      arch.Syn.routes (D.vertices topo)
  in
  let order = Array.of_list (D.Vset.elements vset) in
  let index = Hashtbl.create (Array.length order) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) order;
  let routers =
    Array.map
      (fun v ->
        let preds = if D.mem_vertex topo v then D.Vset.elements (D.pred topo v) else [] in
        let succs = if D.mem_vertex topo v then D.Vset.elements (D.succ topo v) else [] in
        Router.create ~node:v ~preds ~succs ~depth:config.fifo_depth)
      order
  in
  let resolve path =
    let vertices = Array.of_list path in
    let last = Array.length vertices - 1 in
    let voq_at i v =
      Router.find_voq
        routers.(Hashtbl.find index v)
        ~input:(if i = 0 then Router.Local else Router.From vertices.(i - 1))
        ~output:(if i = last then Router.Eject else Router.To vertices.(i + 1))
    in
    { vertices; src_router = Hashtbl.find index vertices.(0); path = Array.mapi voq_at vertices }
  in
  let per_port f = Array.map (fun (r : Router.t) -> Array.map f r.Router.outputs) routers in
  let n = Array.length routers in
  {
    cfg = config;
    ppf = phits_per_flit config;
    routers;
    routes = Edge_map.map resolve arch.Syn.routes;
    down =
      per_port (fun p ->
          match p.Router.dest with Router.Eject -> -1 | Router.To v -> Hashtbl.find index v);
    queued = per_port (fun _ -> 0);
    held = Array.make n 0;
    wires = Array.make n 0;
    link_count = per_port (fun _ -> 0);
    switch_count = Array.make n 0;
    credits_due = [];
    cycle = 0;
    next_id = 0;
    injected_packets = 0;
    delivered_packets = 0;
    delivered_rev = [];
    injected_flits = 0;
    delivered_flits = 0;
    ni_occupancy = 0;
    voq_occupancy = 0;
    wire_occupancy = 0;
    flit_hops = 0;
    buffer_flit_cycles = 0;
    moved = false;
    last_ready = 0;
  }

let now t = t.cycle
let config t = t.cfg

let inject ?(tag = 0) ?(payload = Bytes.empty) ?(size_flits = 1) t ~src ~dst =
  if size_flits < 1 then invalid_arg "Flitsim.inject: size_flits must be >= 1";
  match Edge_map.find_opt (src, dst) t.routes with
  | None -> invalid_arg (Printf.sprintf "Flitsim.inject: no route %d -> %d" src dst)
  | Some { vertices; src_router; path } ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let packet =
        { Packet.id; src; dst; size_flits; tag; payload; route = vertices; injected_at = t.cycle }
      in
      let ni = t.routers.(src_router).Router.ni in
      for idx = 0 to size_flits - 1 do
        Queue.add { Router.flit = { Router.packet; idx; hop = 0; path }; ready_at = t.cycle } ni
      done;
      t.injected_packets <- t.injected_packets + 1;
      t.injected_flits <- t.injected_flits + size_flits;
      t.ni_occupancy <- t.ni_occupancy + size_flits;
      id

let head_ready c (voq : Router.voq) =
  (not (Queue.is_empty voq.Router.q)) && (Queue.peek voq.Router.q).Router.ready_at <= c

(* A flit leaves VOQ [voq] at router [r], onto a link or into the sink;
   the queue's upstream sender gets the slot back next cycle ([Local]
   queues have no upstream link and no credits). *)
let dequeue t r (voq : Router.voq) =
  let e = Queue.pop voq.Router.q in
  let p = voq.Router.port in
  t.queued.(r).(p) <- t.queued.(r).(p) - 1;
  t.held.(r) <- t.held.(r) - 1;
  t.voq_occupancy <- t.voq_occupancy - 1;
  t.switch_count.(r) <- t.switch_count.(r) + 1;
  (match voq.Router.input with
  | Router.Local -> ()
  | Router.From _ -> t.credits_due <- voq.Router.credits :: t.credits_due);
  t.moved <- true;
  e

(* [e] enters its VOQ [voq] at router [r], switch-eligible [router_delay]
   cycles from now. *)
let enqueue t c r (voq : Router.voq) (e : Router.entry) =
  e.Router.ready_at <- c + t.cfg.router_delay;
  t.last_ready <- max t.last_ready e.Router.ready_at;
  Queue.add e voq.Router.q;
  let p = voq.Router.port in
  t.queued.(r).(p) <- t.queued.(r).(p) + 1;
  t.held.(r) <- t.held.(r) + 1;
  t.voq_occupancy <- t.voq_occupancy + 1;
  t.moved <- true

let step t =
  t.cycle <- t.cycle + 1;
  let c = t.cycle in
  let n = Array.length t.routers in
  t.buffer_flit_cycles <- t.buffer_flit_cycles + t.voq_occupancy;
  t.moved <- false;
  (* phase 1: credit returns land *)
  List.iter Credit.put t.credits_due;
  t.credits_due <- [];
  (* phase 2: link arrivals enter downstream VOQs *)
  for r = 0 to n - 1 do
    if t.wires.(r) > 0 then
      Array.iteri
        (fun i (p : Router.port) ->
          match p.Router.in_flight with
          | Some (e, arrive) when arrive <= c ->
              p.Router.in_flight <- None;
              let f = e.Router.flit in
              f.Router.hop <- f.Router.hop + 1;
              enqueue t c t.down.(r).(i) f.Router.path.(f.Router.hop) e;
              t.wires.(r) <- t.wires.(r) - 1;
              t.wire_occupancy <- t.wire_occupancy - 1;
              t.flit_hops <- t.flit_hops + 1;
              t.link_count.(r).(i) <- t.link_count.(r).(i) + 1
          | _ -> ())
        t.routers.(r).Router.outputs
  done;
  (* phase 3: ejection, one flit per sink per cycle; the sink is output 0 *)
  let ready = head_ready c in
  for r = 0 to n - 1 do
    if t.queued.(r).(0) > 0 then
      match Router.arbitrate t.routers.(r).Router.outputs.(0) ready with
      | None -> ()
      | Some voq ->
          let f = (dequeue t r voq).Router.flit in
          t.delivered_flits <- t.delivered_flits + 1;
          if f.Router.idx = f.Router.packet.Packet.size_flits - 1 then begin
            t.delivered_rev <-
              { Packet.packet = f.Router.packet; delivered_at = c } :: t.delivered_rev;
            t.delivered_packets <- t.delivered_packets + 1
          end
  done;
  (* phase 4: switch allocation + link sends, gated on downstream credits *)
  let sendable voq =
    ready voq
    &&
    let f = (Queue.peek voq.Router.q).Router.flit in
    Credit.available f.Router.path.(f.Router.hop + 1).Router.credits > 0
  in
  for r = 0 to n - 1 do
    (* some flit waits for a link, not the sink *)
    if t.held.(r) > t.queued.(r).(0) then begin
      let outputs = t.routers.(r).Router.outputs in
      for i = 1 to Array.length outputs - 1 do
        let p = outputs.(i) in
        if t.queued.(r).(i) > 0 && Option.is_none p.Router.in_flight && p.Router.busy_until <= c then
          match Router.arbitrate p sendable with
          | None -> ()
          | Some voq ->
              let e = dequeue t r voq in
              let f = e.Router.flit in
              ignore (Credit.take f.Router.path.(f.Router.hop + 1).Router.credits);
              p.Router.in_flight <- Some (e, c + t.ppf);
              p.Router.busy_until <- c + t.ppf;
              t.wires.(r) <- t.wires.(r) + 1;
              t.wire_occupancy <- t.wire_occupancy + 1
      done
    end
  done;
  (* phase 5: NI injection, one flit per source per cycle *)
  for r = 0 to n - 1 do
    let ni = t.routers.(r).Router.ni in
    if not (Queue.is_empty ni) then begin
      let e = Queue.peek ni in
      let voq = e.Router.flit.Router.path.(0) in
      if Queue.length voq.Router.q < t.cfg.fifo_depth then begin
        ignore (Queue.pop ni);
        t.ni_occupancy <- t.ni_occupancy - 1;
        enqueue t c r voq e
      end
    end
  done

let pending t = t.injected_packets - t.delivered_packets

let run_until_idle ?(max_cycles = 100_000) t =
  let limit = t.cycle + max_cycles in
  let rec go () =
    if pending t = 0 then `Idle
    else if t.cycle >= limit then `Limit (pending t)
    else begin
      step t;
      (* No movement with nothing on a wire and no credit in flight is a
         fixpoint: the same allocation decisions repeat forever. *)
      if
        (not t.moved) && t.wire_occupancy = 0 && t.credits_due = []
        && t.cycle >= t.last_ready && pending t > 0
      then `Deadlock
      else go ()
    end
  in
  go ()

let deliveries t = List.rev t.delivered_rev
let injected_flits t = t.injected_flits
let delivered_flits t = t.delivered_flits
let in_flight_flits t = t.ni_occupancy + t.voq_occupancy + t.wire_occupancy
let conserved t = t.injected_flits = t.delivered_flits + in_flight_flits t
let flit_hops t = t.flit_hops
let buffer_flit_cycles t = t.buffer_flit_cycles

let link_flits t =
  let m = ref Edge_map.empty in
  Array.iteri
    (fun r (router : Router.t) ->
      Array.iteri
        (fun i (p : Router.port) ->
          match p.Router.dest with
          | Router.To v when t.link_count.(r).(i) > 0 ->
              m := Edge_map.add (router.Router.node, v) t.link_count.(r).(i) !m
          | _ -> ())
        router.Router.outputs)
    t.routers;
  !m

let switch_flits t =
  let m = ref Vmap.empty in
  Array.iteri
    (fun r (router : Router.t) ->
      if t.switch_count.(r) > 0 then m := Vmap.add router.Router.node t.switch_count.(r) !m)
    t.routers;
  !m

let metrics t =
  [
    ("flit.cycles", float_of_int t.cycle);
    ("flit.injected_packets", float_of_int t.injected_packets);
    ("flit.delivered_packets", float_of_int t.delivered_packets);
    ("flit.pending_packets", float_of_int (pending t));
    ("flit.injected_flits", float_of_int t.injected_flits);
    ("flit.delivered_flits", float_of_int t.delivered_flits);
    ("flit.in_flight_flits", float_of_int (in_flight_flits t));
    ("flit.flit_hops", float_of_int t.flit_hops);
    ("flit.buffer_flit_cycles", float_of_int t.buffer_flit_cycles);
    ("flit.phits_per_flit", float_of_int t.ppf);
  ]
