let non_graphlike_count mechanisms =
  List.length (List.filter (fun m -> Array.length m.Dem.detectors > 2) mechanisms)

let plans_total = Obs.Counter.create "qec.dem_graph_plans_total"

(* ---------------------------------------------------------------- plan --- *)

(* Everything about the graph that does not depend on probabilities, in
   flat arrays.  Edge [e] joins [edges.(e) lsr 32] and [(edges.(e) land
   0xFFFF_FFFF) - 1], with the boundary already moved to the second
   endpoint, and edges are numbered in the order the final edge list takes
   them.  [links] holds every mechanism's links in turn, (k + 1) / 2 for a
   mechanism of k detectors, each [(edge lsl 2) lor (first lsl 1) lor
   logical]: [first] marks the edge's first link in mechanism order,
   [logical] the link that carries a flipped observable (a mechanism's
   first link only).  The mechanisms' [detectors] arrays and masks are kept
   to check a reuse. *)
type plan = {
  edges : int array;
  links : int array;
  dets : int array array;
  obs : int array;
}

(* Each mechanism's endpoint pairs in link order, with the flag rule:
   pairs flip the detectors, and the rare >2-detector mechanisms (certain
   hook-error configurations) decompose into chained pairs with the flag
   on the first link. *)
let iter_links (m : Dem.mechanism) f =
  let logical = m.Dem.obs_mask <> 0 in
  match m.Dem.detectors with
  | [||] -> ()  (* undetectable; nothing a matcher can do *)
  | [| d |] -> f d Decoder_uf.boundary logical
  | [| a; b |] -> f a b logical
  | many ->
      let k = Array.length many in
      let i = ref 0 in
      while !i + 1 < k do
        f many.(!i) many.(!i + 1) (logical && !i = 0);
        i := !i + 2
      done;
      if k mod 2 = 1 then f many.(k - 1) Decoder_uf.boundary false

(* The edge order is the one a table keyed on the endpoint pair folds
   into: the graph's construction order, which fixes every union-find
   tie-break and the bytes of a stored graph.  So the plan builds that
   table once, with each key's first-link index, and walks it in fold
   order ([iter] visits as [fold] does; a fold consing the edge list puts
   the first key visited last). *)
let plan mechanisms =
  Obs.Counter.incr plans_total;
  let dets = Array.of_list (List.map (fun (m : Dem.mechanism) -> m.Dem.detectors) mechanisms) in
  let obs = Array.of_list (List.map (fun (m : Dem.mechanism) -> m.Dem.obs_mask) mechanisms) in
  let links = Array.make (Array.fold_left (fun n d -> n + ((Array.length d + 1) / 2)) 0 dets) 0 in
  let table : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let l = ref 0 in
  List.iter
    (fun m ->
      iter_links m (fun u v logical ->
          let key = if u <= v then (u, v) else (v, u) in
          let id, first =
            match Hashtbl.find_opt table key with
            | Some id -> (id, 0)
            | None ->
                let id = Hashtbl.length table in
                Hashtbl.add table key id;
                (id, 1)
          in
          links.(!l) <- (id lsl 2) lor (first lsl 1) lor Bool.to_int logical;
          incr l))
    mechanisms;
  let ne = Hashtbl.length table in
  let pos = Array.make ne 0 and edges = Array.make ne 0 in
  let k = ref ne in
  Hashtbl.iter
    (fun (u, v) id ->
      decr k;
      pos.(id) <- !k;
      let u, v = if u = Decoder_uf.boundary then (v, u) else (u, v) in
      edges.(!k) <- (u lsl 32) lor (v + 1))
    table;
  Array.iteri (fun i x -> links.(i) <- (pos.(x lsr 2) lsl 2) lor (x land 3)) links;
  { edges; links; dets; obs }

(* A plan fits mechanisms whose [detectors] arrays are the very arrays it
   was built from (immutable, so the same contents) with the same masks:
   a full O(n) check, no hash trusted.  [Dem.weigh] shares its arrays
   across the reweights of one structure, so every noise point of a sweep
   passes, and mechanisms from any other structure fail. *)
let fits plan mechanisms =
  let n = Array.length plan.dets in
  let rec go i = function
    | [] -> i = n
    | (m : Dem.mechanism) :: rest ->
        i < n && m.Dem.detectors == plan.dets.(i) && m.Dem.obs_mask = plan.obs.(i)
        && go (i + 1) rest
  in
  go 0 mechanisms

(* One plan is kept, like [Dem]'s one structure, and a miss is
   single-flight: the domains of a sweep reach their first graph together
   (they queue on the same structure pass), and a second plan built at the
   same time would only raise the peak heap. *)
let last : plan option Atomic.t = Atomic.make None
let plan_lock = Mutex.create ()

let reusable mechanisms =
  match Atomic.get last with Some p when fits p mechanisms -> Some p | _ -> None

let plan_for mechanisms =
  match reusable mechanisms with
  | Some p -> p
  | None ->
      Mutex.protect plan_lock (fun () ->
          match reusable mechanisms with
          | Some p -> p
          | None ->
              let p = plan mechanisms in
              Atomic.set last (Some p);
              p)

(* ---------------------------------------------------------------- fold --- *)

let build ?(scale = 2.0) ?(max_weight = 40) ~nodes mechanisms =
  let plan = plan_for mechanisms in
  (* Per edge: combined probability and the flag of the single likeliest
     contributing mechanism. *)
  let ne = Array.length plan.edges in
  let total = Array.make ne 0. and best = Array.make ne 0. in
  let flag = Bytes.make ne '\000' in
  let l = ref 0 in
  List.iter
    (fun (m : Dem.mechanism) ->
      let p = m.Dem.p in
      for _ = 1 to (Array.length m.Dem.detectors + 1) / 2 do
        let x = plan.links.(!l) in
        incr l;
        let e = x lsr 2 and logical = x land 1 <> 0 in
        if x land 2 <> 0 then begin
          total.(e) <- p;
          best.(e) <- p;
          Bytes.set flag e (if logical then '\001' else '\000')
        end
        else begin
          let t = total.(e) in
          total.(e) <- (t *. (1. -. p)) +. (p *. (1. -. t));
          if p > best.(e) then begin
            best.(e) <- p;
            Bytes.set flag e (if logical then '\001' else '\000')
          end
        end
      done)
    mechanisms;
  let weight_of p =
    if p <= 0. then max_weight
    else if p >= 0.5 then 1
    else max 1 (min max_weight (int_of_float (Float.round (scale *. log ((1. -. p) /. p)))))
  in
  let edges =
    List.init ne (fun e ->
        let uv = plan.edges.(e) in
        ( uv lsr 32,
          (uv land 0xFFFF_FFFF) - 1,
          weight_of total.(e),
          Bytes.get flag e <> '\000' ))
  in
  Decoder_uf.weighted_graph ~nodes ~edges
