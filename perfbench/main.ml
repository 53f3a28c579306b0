(* perfbench: the end-to-end benchmark of nocsynth.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]

   Prints a human-readable report (lines starting with [#]) and, as the
   last line, one JSON object [{"correct", "attempted", "failed",
   "metrics"}]: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  Exits 1 when any output check failed. *)

let workloads = [ "serve-irregular"; "serve-symmetric"; "synth-scale"; "simulate-load" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve-irregular|serve-symmetric|synth-scale|simulate-load) \
     --seed N --seconds S --trace 0|1 [--commit ID]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed, seconds, trace =
    match (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace") with
    | Some s, Some t, ("0" | "1" as tr) when t > 0.0 -> (s, t, tr = "1")
    | _ -> usage ()
  in
  if not (List.mem workload workloads) then usage ();
  let nproc = Domain.recommended_domain_count () in
  let attempted, failed, metrics, spans =
    match workload with
    | "serve-irregular" -> Serve_wl.run Serve_wl.irregular ~seed ~seconds ~trace
    | "serve-symmetric" -> Serve_wl.run Serve_wl.symmetric ~seed ~seconds ~trace
    | "synth-scale" -> Synth_wl.run ~seed ~seconds ~trace
    | _ -> Sim_wl.run ~seed ~seconds ~trace
  in
  if trace then begin
    let dir = ".perfbench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Bench.Trace.write spans ~path:(Printf.sprintf "%s/%s-seed%d.trace.jsonl" dir workload seed)
  end;
  let stamps =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", if trace then "1" else "0");
      ("nproc", string_of_int nproc);
      ("ocaml", Sys.ocaml_version);
      ("domain_cap", string_of_int (Noc_core.Branch_bound.domain_cap ()));
      ("domains", "1");
      ("commit", Option.value ~default:"unknown" (Hashtbl.find_opt args "commit"));
    ]
  in
  if not (Bench.emit ~stamps ~attempted ~failed metrics) then exit 1
