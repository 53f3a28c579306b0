(* Shared machinery: the clock, summary statistics, the in-memory span
   recorder behind the traced runs, and the result line. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Statistics} *)

(* linear interpolation between closest ranks; [nan] on no samples *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0

let geomean = function
  | [] -> Float.nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:Float.nan

(* {1 Tracing}

   A pipeline is written once against a [tracer]; the untraced runs pass
   [untraced], whose [span] is a plain call, so the end-to-end figures
   carry no recording cost. *)

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

type span = { op : int; id : int; parent : int; name : string; t0 : float; t1 : float }

module Trace = struct
  type t = {
    mutable all : span list;  (** every finished span, newest first *)
    mutable current : span list;  (** spans of the op in progress *)
    mutable stack : int list;
    mutable next_id : int;
    mutable op : int;
  }

  let create () = { all = []; current = []; stack = []; next_id = 0; op = 0 }

  let tracer t =
    {
      span =
        (fun name f ->
          let id = t.next_id in
          t.next_id <- id + 1;
          let parent = match t.stack with p :: _ -> p | [] -> -1 in
          t.stack <- id :: t.stack;
          let t0 = now () in
          let close () =
            let t1 = now () in
            t.stack <- List.tl t.stack;
            t.current <- { op = t.op; id; parent; name; t0; t1 } :: t.current
          in
          match f () with
          | r ->
              close ();
              r
          | exception e ->
              close ();
              raise e);
    }

  (* Ends the op in progress.  Returns the root span's duration and each
     layer's self time (span minus the time its child spans cover), or
     [Error] if the spans do not form one properly nested tree. *)
  let end_op t =
    let spans : span list = t.current in
    t.all <- spans @ t.all;
    t.current <- [];
    t.op <- t.op + 1;
    let by_id = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
    let child_time = Hashtbl.create 16 in
    let nested =
      List.for_all
        (fun s ->
          s.parent < 0
          ||
          match Hashtbl.find_opt by_id s.parent with
          | None -> false
          | Some p ->
              Hashtbl.replace child_time p.id
                (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child_time p.id));
              s.t0 >= p.t0 && s.t1 <= p.t1)
        spans
    in
    match List.filter (fun s -> s.parent < 0) spans with
    | [ root ] when nested ->
        let self = Hashtbl.create 16 in
        List.iter
          (fun s ->
            let own = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
            Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
          spans;
        let layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] in
        (* the self times partition the root span: a layer that escaped its
           parent or overlapped a sibling shows up here *)
        let total = sum (List.map snd layers) and dur = root.t1 -. root.t0 in
        if Float.abs (total -. dur) <= 1e-9 +. (1e-9 *. dur) then Ok (dur, layers)
        else Error "layer self times do not sum to the op span"
    | _ -> Error "spans of one op do not form a single nested tree"

  (* one JSON object per span, in start order, relative to the first *)
  let write t ~path =
    let spans = List.rev t.all in
    let base = List.fold_left (fun m (s : span) -> Float.min m s.t0) Float.infinity spans in
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun (s : span) ->
            Printf.fprintf oc
              "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\"dur_us\":%.3f}\n"
              s.op s.id s.parent s.name ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6))
          spans)
end

(* A traced run does every op twice, untraced and traced, alternating
   which goes first so neither always runs on the other's warm caches. *)
let alternate i untraced traced =
  if i mod 2 = 0 then
    let u = untraced () in
    (u, traced ())
  else
    let t = traced () in
    (untraced (), t)

(* traced op time over untraced op time on the same ops, in percent *)
let overhead_pct ~traced_s ~untraced =
  let u = sum untraced in
  ("trace.overhead_pct", 100.0 *. ratio (traced_s -. u) u)

(* {1 Per-layer accumulation}

   Per op, each layer contributes its self time and its work counts; a
   layer's reported figure is the median over the ops that reached it. *)
module Layers = struct
  type t = { samples : (string, float list) Hashtbl.t; totals : (string, float) Hashtbl.t }

  let create () = { samples = Hashtbl.create 32; totals = Hashtbl.create 32 }

  let sample t name v =
    Hashtbl.replace t.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

  let add t name v =
    Hashtbl.replace t.totals name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.totals name))

  let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.samples name)
  let total t name = Option.value ~default:0.0 (Hashtbl.find_opt t.totals name)

  (* median per op over the ops where the layer ran; 0 when it never ran *)
  let med t name = match samples t name with [] -> 0.0 | xs -> median xs

  (* the figure a span's self time is reported under: a call inside a
     module ([canon.hash]) gets [canon.hash_ms], a whole module
     ([branch_bound]) gets [branch_bound.ms] *)
  let ms_name span = if String.contains span '.' then span ^ "_ms" else span ^ ".ms"

  (* record an op's self times: per-op samples and run totals *)
  let record_op t layers =
    List.iter
      (fun (span, self_s) ->
        sample t (ms_name span) (self_s *. 1e3);
        add t (span ^ "#s") self_s)
      layers
end

(* {1 The result} *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Human-readable table on stdout, then the one-line JSON result the
   harness reads (always the last line). *)
let emit ~stamps ~attempted ~failed metrics =
  List.iter (fun (k, v) -> Printf.printf "# %s = %s\n" k v) stamps;
  Printf.printf "# attempted = %d, failed = %d, error_rate = %.6f\n" attempted failed
    (ratio (float_of_int failed) (float_of_int (max 1 attempted)));
  List.iter (fun m -> Printf.printf "# %-36s %16.6f %s\n" m.name m.value m.unit) metrics;
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value) m.unit)
      metrics
  in
  let correct = failed = 0 && List.for_all (fun m -> Float.is_finite m.value) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed (String.concat ", " body);
  correct

(* Wall time of [f] repeated [repeats] times: the last result and the
   median time, so one slow repetition does not move the figure.  Each
   repetition starts from a collected heap, and only one result is live
   at a time, so repeating adds no peak memory. *)
let setup_median ~repeats f =
  let last = ref None and times = ref [] in
  for _ = 1 to max 1 repeats do
    last := None;
    Gc.full_major ();
    let r, t = time f in
    last := Some r;
    times := t :: !times
  done;
  (Option.get !last, median !times)

(* The end-to-end figures every workload reports, from the per-op host
   times of the timed region.  [energy] holds custom ÷ mesh energy ratios. *)
let end_to_end ~setup_s ~latencies ~energy =
  let n = float_of_int (List.length latencies) in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "ops/s" (ratio n (sum latencies));
    metric "latency_p50_ms" "ms" (1e3 *. quantile latencies 0.5);
    metric "latency_p90_ms" "ms" (1e3 *. quantile latencies 0.9);
    metric "energy_vs_mesh" "ratio" (geomean energy);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* Every per-layer figure, in report order.  A workload that never reaches
   a layer reports 0 for it: absence is part of the layer mix. *)
let per_layer_units =
  [
    ("acg_io.parse_ms", "ms");
    ("acg_io.bytes", "bytes");
    ("canon.hash_ms", "ms");
    ("canon.form_ms", "ms");
    ("canon.calls", "count");
    ("canon.truncated", "count");
    ("canon.share", "fraction");
    ("cache.find_ms", "ms");
    ("cache.add_ms", "ms");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.evictions", "count");
    ("cache.hit_rate", "fraction");
    ("branch_bound.ms", "ms");
    ("branch_bound.nodes", "count");
    ("branch_bound.pruned", "count");
    ("branch_bound.leaves", "count");
    ("branch_bound.matches_tried", "count");
    ("branch_bound.nodes_per_s", "1/s");
    ("branch_bound.timed_out", "count");
    ("branch_bound.steals", "count");
    ("branch_bound.match_hit_ratio", "fraction");
    ("branch_bound.vf2_probes", "count");
    ("branch_bound.share", "fraction");
    ("synthesis.ms", "ms");
    ("synthesis.links", "count");
    ("deadlock.ms", "ms");
    ("backends.ms", "ms");
    ("proto.serialize_ms", "ms");
    ("proto.reply_bytes", "bytes");
    ("sim.ms", "ms");
    ("sim.cycles", "cycles");
    ("sim.flit_hops", "count");
    ("sim.cycles_per_s", "cycles/s");
    ("sim.ns_per_flit_hop", "ns");
    ("sim.share", "fraction");
    ("sim.latency_cycles", "cycles");
    ("sim.throughput_flits_per_cycle", "flits/cycle");
    ("serve.unattributed_ms", "ms");
    ("serve.deadline_miss_rate", "fraction");
    ("trace.overhead_pct", "%");
  ]

let per_layer values =
  List.map
    (fun (name, unit) -> metric name unit (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_units

(* Layer figures shared by every workload's traced run: median self time
   per op of each layer, each layer's share of all op time, and the
   branch-and-bound and simulator work counters. *)
let layer_figures (l : Layers.t) ~op_s =
  let share span = ratio (Layers.total l (span ^ "#s")) op_s in
  let bb_s = Layers.total l "branch_bound#s" and sim_s = Layers.total l "sim#s" in
  let hops = Layers.total l "sim.flit_hops" and cycles = Layers.total l "sim.cycles" in
  List.map (fun (name, _) -> (name, Layers.med l name))
    (List.filter (fun (n, u) -> u = "ms" && n <> "serve.unattributed_ms") per_layer_units)
  @ [
      ("serve.unattributed_ms", Layers.med l "serve.ms");
      ("canon.share", share "canon.hash" +. share "canon.form");
      ("branch_bound.share", share "branch_bound");
      ("sim.share", share "sim");
      ("branch_bound.nodes", Layers.med l "branch_bound.nodes");
      ("branch_bound.pruned", Layers.med l "branch_bound.pruned");
      ("branch_bound.leaves", Layers.med l "branch_bound.leaves");
      ("branch_bound.matches_tried", Layers.med l "branch_bound.matches_tried");
      ("branch_bound.nodes_per_s", ratio (Layers.total l "branch_bound.nodes") bb_s);
      ("branch_bound.timed_out", Layers.total l "branch_bound.timed_out");
      ("branch_bound.steals", Layers.med l "branch_bound.steals");
      ( "branch_bound.match_hit_ratio",
        ratio (Layers.total l "branch_bound.match_hits") (Layers.total l "branch_bound.match_attempts") );
      ("branch_bound.vf2_probes", Layers.med l "branch_bound.vf2_probes");
      ("synthesis.links", Layers.med l "synthesis.links");
      ("sim.cycles", Layers.med l "sim.cycles");
      ("sim.flit_hops", Layers.med l "sim.flit_hops");
      ("sim.cycles_per_s", ratio cycles sim_s);
      ("sim.ns_per_flit_hop", 1e9 *. ratio sim_s hops);
      ("sim.latency_cycles", ratio (Layers.total l "sim.latency_sum") (Layers.total l "sim.packets"));
      ("sim.throughput_flits_per_cycle", ratio (Layers.total l "sim.flits") cycles);
      ("acg_io.bytes", Layers.med l "acg_io.bytes");
    ]

(* Search counters of one decompose call, as per-op layer samples. *)
let record_search (l : Layers.t) (st : Noc_core.Branch_bound.stats) =
  let open Noc_core.Branch_bound in
  Layers.sample l "branch_bound.nodes" (float_of_int st.nodes);
  Layers.sample l "branch_bound.pruned" (float_of_int st.pruned);
  Layers.sample l "branch_bound.leaves" (float_of_int st.leaves);
  Layers.sample l "branch_bound.matches_tried" (float_of_int st.matches_tried);
  Layers.sample l "branch_bound.steals" (float_of_int st.steals);
  Layers.sample l "branch_bound.vf2_probes" (float_of_int st.vf2.probes);
  Layers.add l "branch_bound.nodes" (float_of_int st.nodes);
  Layers.add l "branch_bound.timed_out" (if st.timed_out then 1.0 else 0.0);
  List.iter
    (fun (_, p) ->
      Layers.add l "branch_bound.match_hits" (float_of_int p.hits);
      Layers.add l "branch_bound.match_attempts" (float_of_int p.attempts))
    st.per_primitive

(* Simulator counters of one engine run. *)
let record_sim (l : Layers.t) e =
  let module E = Noc_sim.Engine in
  let s = E.summary e in
  let cycles = float_of_int (E.now e) in
  Layers.sample l "sim.cycles" cycles;
  Layers.sample l "sim.flit_hops" (float_of_int (E.flit_hops e));
  Layers.add l "sim.cycles" cycles;
  Layers.add l "sim.flit_hops" (float_of_int (E.flit_hops e));
  Layers.add l "sim.latency_sum" (s.Noc_sim.Stats.avg_latency *. float_of_int s.packets);
  Layers.add l "sim.packets" (float_of_int s.packets);
  Layers.add l "sim.flits" (float_of_int s.flits)
