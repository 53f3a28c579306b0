type in_key = Local | From of int
type out_key = Eject | To of int

type flit = { packet : Packet.t; idx : int; mutable hop : int; path : voq array }
and entry = { flit : flit; mutable ready_at : int }

and voq = {
  input : in_key;
  output : out_key;
  port : int;
  q : entry Queue.t;
  credits : Credit.t;
}

type port = {
  dest : out_key;
  voqs : voq array;
  mutable rr : int;
  mutable busy_until : int;
  mutable in_flight : (entry * int) option;
}

type t = { node : int; ni : entry Queue.t; outputs : port array }

let create ~node ~preds ~succs ~depth =
  let inputs = Local :: List.map (fun u -> From u) (List.sort_uniq compare preds) in
  let dests = Eject :: List.map (fun v -> To v) (List.sort_uniq compare succs) in
  let outputs =
    Array.of_list
      (List.mapi
         (fun port dest ->
           let voqs =
             Array.of_list
               (List.map
                  (fun input ->
                    {
                      input;
                      output = dest;
                      port;
                      q = Queue.create ();
                      credits = Credit.create ~capacity:depth;
                    })
                  inputs)
           in
           { dest; voqs; rr = 0; busy_until = 0; in_flight = None })
         dests)
  in
  { node; ni = Queue.create (); outputs }

let find_voq t ~input ~output =
  match Array.find_opt (fun p -> p.dest = output) t.outputs with
  | None -> raise Not_found
  | Some p -> (
      match Array.find_opt (fun voq -> voq.input = input) p.voqs with
      | None -> raise Not_found
      | Some voq -> voq)

let arbitrate p eligible =
  let n = Array.length p.voqs in
  if n = 0 then None
  else begin
    let rec go k =
      if k = n then None
      else
        let i = (p.rr + k) mod n in
        let voq = p.voqs.(i) in
        if eligible voq then begin
          p.rr <- (i + 1) mod n;
          Some voq
        end
        else go (k + 1)
    in
    go 0
  end
