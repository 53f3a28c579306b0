module D = Noc_graph.Digraph
module Edge_map = D.Edge_map

type config = {
  num_vcs : int;
  flit_bits : int;
}

let default_config = { num_vcs = 2; flit_bits = 8 }

(* A worm whose flits occupy the consecutive channel window [lo, head_ch]
   of its route (lo = 0 while flits are still entering at the source). *)
type worm = {
  packet : Packet.t;
  channels : D.Edge.t array;  (* c_0 .. c_{h-1} *)
  vcs : int array;  (* virtual channel used on each c_i *)
  mutable head_ch : int;  (* -1 before the head enters c_0 *)
  mutable src_remaining : int;
  mutable sink_received : int;
  mutable delivered : bool;
}

type t = {
  arch : Noc_core.Synthesis.t;
  cfg : config;
  mutable cycle : int;
  mutable next_id : int;
  (* (channel, vc) -> id of the worm holding it *)
  holders : (D.Edge.t * int, int) Hashtbl.t;
  (* Active worms, oldest first, in [worms.(0 .. count - 1)]: a growable
     array so injection is amortized O(1) (a sweep injects tens of
     thousands of worms; the previous [worms @ [w]] list was O(n) per
     inject, quadratic per sweep) and [step] never rebuilds a scratch
     array.  Slots past [count] may pin already-delivered worms until
     overwritten; the retention is bounded by the array capacity, itself
     at most twice the peak live population. *)
  mutable worms : worm array;
  mutable count : int;
  mutable delivered_rev : Packet.delivery list;
  mutable delivered_count : int;
  mutable flit_hops : int;
  mutable link_flits : int Edge_map.t;
  mutable vcs_required : int;
  mutable truncated_worms : int;
  mutable progressed : bool;
}

let create ?(config = default_config) arch =
  if config.num_vcs < 1 then invalid_arg "Wormhole.create: num_vcs must be >= 1";
  if config.flit_bits < 1 then invalid_arg "Wormhole.create: flit_bits must be >= 1";
  {
    arch;
    cfg = config;
    cycle = 0;
    next_id = 0;
    holders = Hashtbl.create 64;
    worms = [||];
    count = 0;
    delivered_rev = [];
    delivered_count = 0;
    flit_hops = 0;
    link_flits = Edge_map.empty;
    vcs_required = 0;
    truncated_worms = 0;
    progressed = false;
  }

let now t = t.cycle

(* channels of a vertex path *)
let channels_of path =
  let rec go = function
    | a :: (b :: _ as rest) -> (a, b) :: go rest
    | [ _ ] | [] -> []
  in
  Array.of_list (go path)

(* Increasing-channel-order virtual channel discipline
   (Noc_core.Deadlock.vc_of_hop's rule, computed locally so the engine
   does not depend on the route being an ACG flow).  Also returns how
   many VCs the discipline actually wanted: when that exceeds
   [cfg.num_vcs] the assignment is capped at [num_vcs - 1] and the
   deadlock-freedom argument no longer applies — callers must be able to
   see the truncation to attribute a [`Deadlock] verdict. *)
let vc_assignment cfg channels =
  let n = Array.length channels in
  let vcs = Array.make n 0 in
  let vc = ref 0 in
  for i = 1 to n - 1 do
    if D.Edge.compare channels.(i) channels.(i - 1) <= 0 then incr vc;
    vcs.(i) <- min !vc (cfg.num_vcs - 1)
  done;
  (vcs, if n = 0 then 0 else !vc + 1)

let push_worm t w =
  if t.count = Array.length t.worms then begin
    let grown = Array.make (max 4 (2 * t.count)) w in
    Array.blit t.worms 0 grown 0 t.count;
    t.worms <- grown
  end;
  t.worms.(t.count) <- w;
  t.count <- t.count + 1

let inject ?(tag = 0) ?(payload = Bytes.empty) ?(size_flits = 1) t ~src ~dst =
  if size_flits < 1 then invalid_arg "Wormhole.inject: size_flits must be >= 1";
  match Noc_core.Synthesis.route t.arch ~src ~dst with
  | None -> invalid_arg (Printf.sprintf "Wormhole.inject: no route %d->%d" src dst)
  | Some path ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let packet =
        {
          Packet.id;
          src;
          dst;
          size_flits;
          tag;
          payload;
          route = Array.of_list path;
          injected_at = t.cycle;
        }
      in
      let channels = channels_of path in
      let vcs, vcs_needed = vc_assignment t.cfg channels in
      t.vcs_required <- max t.vcs_required vcs_needed;
      if vcs_needed > t.cfg.num_vcs then t.truncated_worms <- t.truncated_worms + 1;
      let worm =
        {
          packet;
          channels;
          vcs;
          head_ch = -1;
          src_remaining = size_flits;
          sink_received = 0;
          delivered = false;
        }
      in
      push_worm t worm;
      id

let flits_in_net w =
  w.packet.Packet.size_flits - w.src_remaining - w.sink_received

let window w =
  (* channel indices currently holding flits of this worm *)
  let flits = flits_in_net w in
  if flits = 0 then None
  else begin
    let hi = w.head_ch in
    let lo = if w.src_remaining > 0 then 0 else hi - flits + 1 in
    Some (lo, hi)
  end

let deliver t w =
  w.delivered <- true;
  t.delivered_count <- t.delivered_count + 1;
  t.delivered_rev <- { Packet.packet = w.packet; delivered_at = t.cycle } :: t.delivered_rev

let step t =
  t.cycle <- t.cycle + 1;
  let used = Hashtbl.create 32 in
  let h_of w = Array.length w.channels in
  let try_advance w =
    if w.delivered then false
    else begin
      let h = h_of w in
      if h = 0 then begin
        (* src = dst: the worm never touches the fabric; its flits stream
           from the source NI straight into the sink, one per cycle, so a
           packet of n flits completes n cycles after injection.  (Before
           this branch existed the generic path below marked the packet
           delivered on the first cycle with sink_received = 1, silently
           losing the remaining flits from the accounting.) *)
        w.src_remaining <- w.src_remaining - 1;
        w.sink_received <- w.sink_received + 1;
        if w.sink_received = w.packet.Packet.size_flits then deliver t w;
        true
      end
      else begin
        let draining = w.head_ch = h - 1 in
        (* the new window after a hypothetical advance *)
        let new_hi = if draining then h - 1 else w.head_ch + 1 in
        let entering = w.src_remaining > 0 in
        let sink_inc = if draining then 1 else 0 in
        let new_flits =
          w.packet.Packet.size_flits
          - (w.src_remaining - if entering then 1 else 0)
          - (w.sink_received + sink_inc)
        in
        if new_flits = 0 && sink_inc = 1 then begin
          (* the last flit exits the network: no link is used, the worm
             completes *)
          (match window w with
          | Some (lo, hi) ->
              for i = lo to hi do
                Hashtbl.remove t.holders (w.channels.(i), w.vcs.(i))
              done
          | None -> ());
          w.sink_received <- w.sink_received + 1;
          deliver t w;
          true
        end
        else begin
          let new_lo =
            if w.src_remaining - (if entering then 1 else 0) > 0 then 0
            else new_hi - new_flits + 1
          in
          (* (a) a free virtual channel on the next link, when entering one *)
          let vc_ok =
            if draining then true
            else begin
              let key = (w.channels.(new_hi), w.vcs.(new_hi)) in
              match Hashtbl.find_opt t.holders key with
              | None -> true
              | Some id -> id = w.packet.Packet.id
            end
          in
          (* (b) every link of the new window is unused this cycle *)
          let links_ok =
            vc_ok
            &&
            let ok = ref true in
            for i = new_lo to new_hi do
              if Hashtbl.mem used w.channels.(i) then ok := false
            done;
            !ok
          in
          if not links_ok then false
          else begin
            (* commit: lock links, acquire/release VCs, shift flits *)
            for i = new_lo to new_hi do
              Hashtbl.replace used w.channels.(i) true;
              t.flit_hops <- t.flit_hops + 1;
              t.link_flits <-
                Edge_map.add
                  w.channels.(i)
                  (1 + Option.value ~default:0 (Edge_map.find_opt w.channels.(i) t.link_flits))
                  t.link_flits
            done;
            if not draining then
              Hashtbl.replace t.holders (w.channels.(new_hi), w.vcs.(new_hi))
                w.packet.Packet.id;
            (match window w with
            | Some (lo, _) ->
                for i = lo to new_lo - 1 do
                  Hashtbl.remove t.holders (w.channels.(i), w.vcs.(i))
                done
            | None -> ());
            w.head_ch <- new_hi;
            if entering then w.src_remaining <- w.src_remaining - 1;
            w.sink_received <- w.sink_received + sink_inc;
            true
          end
        end
      end
    end
  in
  (* round-robin arbitration: rotate the starting worm each cycle *)
  let n = t.count in
  t.progressed <- false;
  if n > 0 then begin
    let start = t.cycle mod n in
    for k = 0 to n - 1 do
      let w = t.worms.((start + k) mod n) in
      if try_advance w then t.progressed <- true
    done
  end;
  (* compact delivered worms away, preserving age order *)
  let j = ref 0 in
  for i = 0 to t.count - 1 do
    let w = t.worms.(i) in
    if not w.delivered then begin
      if !j <> i then t.worms.(!j) <- w;
      incr j
    end
  done;
  t.count <- !j

let pending t = t.count

let conserved t = t.next_id = t.delivered_count + t.count

let run_until_idle ?(max_cycles = 1_000_000) t =
  let start = t.cycle in
  let rec go () =
    if t.count = 0 then `Idle
    else if t.cycle - start >= max_cycles then `Limit t.count
    else begin
      step t;
      (* the state is purely a function of worm positions and holds; if
         nothing moved and nothing was delivered, it never will *)
      if t.count > 0 && not t.progressed then `Deadlock else go ()
    end
  in
  go ()

let deliveries t = List.rev t.delivered_rev

let flit_hops t = t.flit_hops

let link_flits t = t.link_flits

let vcs_required t = t.vcs_required

let vc_truncated t = t.truncated_worms > 0

let vc_truncated_count t = t.truncated_worms

let metrics t =
  [
    ("wormhole.cycles", float_of_int t.cycle);
    ("wormhole.injected", float_of_int t.next_id);
    ("wormhole.delivered", float_of_int t.delivered_count);
    ("wormhole.pending", float_of_int t.count);
    ("wormhole.flit_hops", float_of_int t.flit_hops);
    ("wormhole.vcs_required", float_of_int t.vcs_required);
    ("wormhole.vc_truncated_worms", float_of_int t.truncated_worms);
  ]
