(* serve-irregular and serve-symmetric: request text to reply bytes through
   [Daemon.solve_text], one closed-loop client with no think time. *)

module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module D = Noc_graph.Digraph
module Daemon = Noc_serve.Daemon
module Proto = Noc_serve.Proto
module Cache = Noc_serve.Cache
module Obs = Noc_obs.Obs

type kind = Fresh | Dup | Perm

type request = { text : string; group : int; kind : kind; flows : int }

type spec = {
  stream : seed:int -> unit -> request;  (** the request generator of a seed *)
  prefix : int;  (** requests generated in setup; the rest as the run needs them *)
  budget : Bb.Budget.t;
  cache_capacity : int;
  slack_s : float;  (** a reply later than deadline + slack misses it *)
}

(* {1 serve-irregular}

   Each fresh ACG comes back twice, as an exact duplicate and as a
   vertex-permuted copy, at log-uniform reuse distances of 1–400 requests.
   A third of the stream is fresh, so the 64-entry cache turns over about
   every 190 requests: the longer reuse distances come back after
   eviction and miss. *)

module Due = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let irregular_stream ~seed =
  let g = Gen.rng ~seed ~stream:1 in
  let bases = Hashtbl.create 1024 in
  let due = ref Due.empty and scheduled = ref 0 and i = ref (-1) in
  let schedule at b kind =
    incr scheduled;
    due := Due.add (at, !scheduled) (b, kind) !due
  in
  let reuse () = int_of_float (exp (Gen.float g *. log 400.0)) in
  fun () ->
    incr i;
    match Due.min_binding_opt !due with
    | Some (((at, _) as slot), (b, kind)) when at <= !i ->
        due := Due.remove slot !due;
        let acg, text = Hashtbl.find bases b in
        (* both repeats sent: the base is no longer needed *)
        if not (Due.exists (fun _ (b', _) -> b' = b) !due) then Hashtbl.remove bases b;
        let text = if kind = Dup then text else Gen.to_text (Gen.permuted g acg) in
        { text; group = b; kind; flows = Array.length acg.Gen.edges }
    | _ ->
        let n = Gen.range g 8 64 in
        let acg =
          match Gen.int g 3 with
          | 0 -> Gen.app_like g ~n
          | 1 -> Gen.tgff_like g ~n
          | _ -> Gen.erdos_renyi g ~n ~deg:2.5
        in
        let text = Gen.to_text acg in
        Hashtbl.replace bases !i (acg, text);
        schedule (!i + reuse ()) !i Dup;
        schedule (!i + reuse ()) !i Perm;
        { text; group = !i; kind = Fresh; flows = Array.length acg.Gen.edges }

let irregular =
  {
    stream = irregular_stream;
    prefix = 3000;
    budget = Bb.Budget.default;
    cache_capacity = 64;
    slack_s = 0.05;
  }

(* {1 serve-symmetric}

   Blocks of 28 requests over the library's implementation-graph shapes,
   each a fresh vertex permutation, uniform weights.  The counts place the
   median inside the torus3x3 class and the 90th percentile inside the
   hypercube4 class, so a partial last block cannot move either across a
   class boundary.  K8 runs out the canonical-labeling budget, so its
   copies get [exact:] keys and miss. *)

let symmetric_block =
  [
    ("butterfly4", 2); ("knodel8", 2); ("ring12", 2); ("hypercube3", 2); ("knodel16", 2);
    ("torus3x3", 5); ("K5", 2); ("star7", 2); ("K6", 2); ("torus4x4", 1); ("star8", 1);
    ("hypercube4", 3); ("K7", 1); ("K8", 1);
  ]

let symmetric_stream ~seed =
  let g = Gen.rng ~seed ~stream:2 in
  let family = Array.of_list Gen.symmetric_family in
  let index name =
    let rec go i = if let n, _, _ = family.(i) in n = name then i else go (i + 1) in
    go 0
  in
  let block =
    List.concat_map (fun (name, k) -> List.init k (fun _ -> index name)) symmetric_block
    |> Array.of_list
  in
  let seen = Array.make (Array.length family) false and pos = ref 0 in
  fun () ->
    if !pos mod Array.length block = 0 then Gen.shuffle g block;
    let i = block.(!pos mod Array.length block) in
    incr pos;
    let _, n, edges = family.(i) in
    let acg = Gen.permuted g (Gen.uniform edges ~n ~vol:128 ~bw:0.5) in
    let kind = if seen.(i) then Perm else Fresh in
    seen.(i) <- true;
    { text = Gen.to_text acg; group = i; kind; flows = Array.length acg.Gen.edges }

let symmetric =
  {
    stream = symmetric_stream;
    prefix = 280;
    (* a deadline the search alone never exhausts: only canonicalization
       can make a reply late *)
    budget = Bb.Budget.(default |> with_timeout_s (Some 0.25));
    cache_capacity = 1024;
    slack_s = 0.05;
  }

(* {1 Output checks} *)

(* Replies are remembered by digest, so the checker's own memory stays
   small next to the daemon's in [peak_rss_mb]. *)
type checker = {
  by_key : (string, Digest.t) Hashtbl.t;  (** reply of each key's first miss *)
  by_group : (int, string * Digest.t) Hashtbl.t;  (** key and reply of each group's first request *)
}

let checker () = { by_key = Hashtbl.create 1024; by_group = Hashtbl.create 1024 }
let is_canon key = String.length key > 6 && String.sub key 0 6 = "canon:"

(* every flow's route is a walk over the reply's own links, end to end *)
let routes_ok (r : Proto.Response.t) =
  let links = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.replace links (a, b) (); Hashtbl.replace links (b, a) ()) r.topology;
  let rec walk = function
    | a :: (b :: _ as rest) -> Hashtbl.mem links (a, b) && walk rest
    | _ -> true
  in
  List.for_all
    (fun ((s, d), path) ->
      match path with
      | first :: _ :: _ -> first = s && List.nth path (List.length path - 1) = d && walk path
      | _ -> false)
    r.routes

let check ck (req : request) (reply : Daemon.reply) =
  match reply with
  | Error e -> Error (Proto.Error.to_string e)
  | Ok o -> (
      match Proto.Response.of_string o.bytes with
      | Error (`Msg m) -> Error ("reply does not parse: " ^ m)
      | Ok r when Proto.Response.to_string r <> o.bytes -> Error "reply does not round-trip"
      | Ok r when r.flows <> req.flows || List.length r.routes <> req.flows ->
          Error "reply does not route every flow"
      | Ok r when not (routes_ok r) -> Error "a route is not a path in the reply topology"
      | Ok _ -> (
          let digest = Digest.string o.bytes in
          let same_as_key =
            match Hashtbl.find_opt ck.by_key o.key with
            | Some d -> d = digest
            | None ->
                Hashtbl.replace ck.by_key o.key digest;
                o.status = Daemon.Miss
          in
          let same_as_group =
            match (req.kind, Hashtbl.find_opt ck.by_group req.group) with
            | Fresh, _ | _, None ->
                Hashtbl.replace ck.by_group req.group (o.key, digest);
                true
            | Dup, Some (key, d) -> key = o.key && d = digest
            | Perm, Some (key, d) -> (not (is_canon key)) || (key = o.key && d = digest)
          in
          match (same_as_key, same_as_group) with
          | false, _ -> Error "a repeated key returned other bytes than its first miss"
          | _, false -> Error "a duplicate or canonical permuted copy returned other bytes"
          | true, true -> Ok o))

let energy_ratio (r : Proto.Response.t) =
  let energy name =
    List.find_map
      (fun (b : Proto.Response.backend_score) -> if b.backend = name then Some b.energy_pj else None)
      r.backends
  in
  match (energy "custom", energy "mesh") with
  | Some c, Some m when c > 0.0 && m > 0.0 -> Some (c /. m)
  | _ -> None

(* {1 The traced pipeline}

   The daemon's request path rebuilt from the same public calls, one span
   per call, for a well-formed request under the default daemon config:
   parse, key, cache lookup, and on a miss canonical form, search,
   synthesis, backend scoring, serialization and cache insert.  Its bytes
   are compared with [Daemon.solve_text]'s for every request. *)
let traced_solve (tr : Bench.tracer) (l : Bench.Layers.t) cache ~budget text =
  tr.span "serve" (fun () ->
      let acg =
        match tr.span "acg_io.parse" (fun () -> Noc_core.Acg_io.parse text) with
        | Ok acg -> acg
        | Error (`Msg m) -> failwith m
      in
      Bench.Layers.sample l "acg_io.bytes" (float_of_int (String.length text));
      let budget = Bb.Budget.clamp_service budget in
      let req = Proto.Request.make ~budget acg in
      let key = tr.span "canon.hash" (fun () -> Proto.Request.cache_key req) in
      Bench.Layers.add l "canon.calls" 1.0;
      if not (is_canon key) then Bench.Layers.add l "canon.truncated" 1.0;
      match tr.span "cache.find" (fun () -> Cache.find cache key) with
      | Some (bytes, _) -> (key, bytes)
      | None ->
          let library = Option.get (Proto.Request.library_of_name req.library) in
          let form = tr.span "canon.form" (fun () -> Acg.canonical_form acg) in
          Bench.Layers.add l "canon.calls" 1.0;
          let canonical, acg =
            match form with
            | Some (acg, _) -> (true, acg)
            | None ->
                Bench.Layers.add l "canon.truncated" 1.0;
                (false, acg)
          in
          let options =
            { Bb.default_options with fallback = budget.Bb.Budget.timeout_s <> None }
          in
          let d, stats =
            tr.span "branch_bound" (fun () ->
                Bb.decompose ~options ~budget ~observe:(Obs.create ()) ~library acg)
          in
          Bench.record_search l stats;
          let arch = tr.span "synthesis" (fun () -> Syn.custom acg d) in
          Bench.Layers.sample l "synthesis.links" (float_of_int (Syn.link_count arch));
          let topology =
            D.fold_edges (fun u v acc -> (min u v, max u v) :: acc) arch.Syn.topology []
            |> List.sort_uniq compare
          in
          let backends =
            tr.span "backends" (fun () -> Noc_serve.Backends.compare_all acg ~custom:arch)
          in
          let response =
            {
              Proto.Response.key;
              cores = Acg.num_cores acg;
              flows = Acg.num_flows acg;
              cost = stats.Bb.best_cost;
              timed_out = stats.Bb.timed_out;
              degraded = stats.Bb.fallback_used;
              gap_pct = stats.Bb.gap_pct;
              constraints_met = stats.Bb.constraints_met;
              topology;
              routes = D.Edge_map.bindings arch.Syn.routes;
              backends;
              provenance =
                {
                  library = req.library;
                  budget_timeout_s = budget.Bb.Budget.timeout_s;
                  budget_max_nodes = budget.Bb.Budget.max_nodes;
                  canonical;
                };
            }
          in
          let bytes = tr.span "proto.serialize" (fun () -> Proto.Response.to_string response) in
          Bench.Layers.sample l "proto.reply_bytes" (float_of_int (String.length bytes));
          tr.span "cache.add" (fun () -> Cache.add cache key (bytes, response));
          (key, bytes))

(* {1 The run} *)

let run spec ~seed ~seconds ~trace =
  let (next, prefix, daemon, traced_cache), setup_s =
    Bench.setup_median ~repeats:7 (fun () ->
        let next = spec.stream ~seed in
        ( next,
          Array.init spec.prefix (fun _ -> next ()),
          Daemon.create ~cache_capacity:spec.cache_capacity (),
          Cache.create ~capacity:spec.cache_capacity ~observe:Obs.disabled () ))
  in
  let ck = checker () and l = Bench.Layers.create () and rec_ = Bench.Trace.create () in
  let latencies = ref [] and energy = ref [] and errors = ref [] in
  let misses = ref 0 and traced_s = ref 0.0 and op_s = ref 0.0 in
  let deadline = spec.budget.Bb.Budget.timeout_s in
  let fail i m = errors := Printf.sprintf "request %d: %s" i m :: !errors in
  let start = Bench.now () in
  let i = ref 0 in
  while Bench.now () -. start < seconds do
    (* requests past the set-up prefix are generated outside op timing *)
    let req = if !i < Array.length prefix then prefix.(!i) else next () in
    let id = string_of_int !i in
    let untraced () = Bench.time (fun () -> Daemon.solve_text daemon ~budget:spec.budget ~id req.text) in
    let traced () =
      Bench.time (fun () ->
          traced_solve (Bench.Trace.tracer rec_) l traced_cache ~budget:spec.budget req.text)
    in
    (match
       if not trace then (untraced (), None)
       else
         let u, t = Bench.alternate !i untraced traced in
         (u, Some t)
     with
    | exception e ->
        fail !i ("traced pipeline raised " ^ Printexc.to_string e);
        ignore (Bench.Trace.end_op rec_)
    | (reply, wall_s), traced_reply -> (
        latencies := wall_s :: !latencies;
        (match deadline with
        | Some d when wall_s > d +. spec.slack_s || Result.is_error reply -> incr misses
        | _ -> ());
        (match check ck req reply with
        | Error m -> fail !i m
        | Ok o -> Option.iter (fun e -> energy := e :: !energy) (energy_ratio o.response));
        match traced_reply with
        | None -> ()
        | Some ((_, bytes), t) -> (
            traced_s := !traced_s +. t;
            (match reply with
            | Ok o when o.bytes = bytes -> ()
            | _ -> fail !i "traced pipeline bytes differ from the daemon's");
            match Bench.Trace.end_op rec_ with
            | Ok (dur, layers) ->
                op_s := !op_s +. dur;
                Bench.Layers.record_op l layers
            | Error m -> fail !i m)));
    incr i
  done;
  let attempted = !i in
  let metrics =
    if not trace then Bench.end_to_end ~setup_s ~latencies:!latencies ~energy:!energy
    else begin
      let s = Cache.stats traced_cache and ds = Daemon.cache_stats daemon in
      if s <> ds then fail attempted "traced cache statistics differ from the daemon's";
      let ok = (Daemon.error_stats daemon).ok in
      Bench.per_layer
        (Bench.layer_figures l ~op_s:!op_s
        @ [
            ("canon.calls", Bench.Layers.total l "canon.calls");
            ("canon.truncated", Bench.Layers.total l "canon.truncated");
            ("cache.hits", float_of_int s.hits);
            ("cache.misses", float_of_int s.misses);
            ("cache.evictions", float_of_int s.evictions);
            ("cache.hit_rate", Bench.ratio (float_of_int s.hits) (float_of_int ok));
            ("proto.reply_bytes", Bench.Layers.med l "proto.reply_bytes");
            ( "serve.deadline_miss_rate",
              Bench.ratio (float_of_int !misses) (float_of_int attempted) );
            Bench.overhead_pct ~traced_s:!traced_s ~untraced:!latencies;
          ])
    end
  in
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev !errors);
  (attempted, List.length !errors, metrics, rec_)
