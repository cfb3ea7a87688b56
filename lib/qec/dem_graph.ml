let non_graphlike_count mechanisms =
  List.length (List.filter (fun m -> Array.length m.Dem.detectors > 2) mechanisms)

let plans_total = Obs.Counter.create "qec.dem_graph_plans_total"

(* ---------------------------------------------------------------- plan --- *)

(* Everything about the graph that does not depend on probabilities.
   Edges are numbered in the order the final edge list takes them, and
   [incidence] is the decoder's CSR of them, which every reweight shares.
   [links] holds every mechanism's links in turn, (k + 1) / 2 for a
   mechanism of k detectors, each [(edge lsl 2) lor (first lsl 1) lor
   logical]: [first] marks the edge's first link in mechanism order,
   [logical] the link that carries a flipped observable (a mechanism's
   first link only). *)
type plan = {
  links : int array;
  nmech : int;
  nedges : int;
  incidence : Decoder_uf.incidence;
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
let plan ~nodes mechanisms =
  Obs.Counter.incr plans_total;
  let links =
    Array.make
      (Array.fold_left
         (fun n (m : Dem.mechanism) -> n + ((Array.length m.Dem.detectors + 1) / 2))
         0 mechanisms)
      0
  in
  let table : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let l = ref 0 in
  Array.iter
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
  let pos = Array.make ne 0 and edges = Array.make ne (0, 0) in
  let k = ref ne in
  Hashtbl.iter
    (fun (u, v) id ->
      decr k;
      pos.(id) <- !k;
      edges.(!k) <- (if u = Decoder_uf.boundary then (v, u) else (u, v)))
    table;
  Array.iteri (fun i x -> links.(i) <- (pos.(x lsr 2) lsl 2) lor (x land 3)) links;
  { links; nmech = Array.length mechanisms; nedges = ne; incidence = Decoder_uf.incidence ~nodes ~edges }

(* ---------------------------------------------------------------- fold --- *)

let weigh ?(scale = 2.0) ?(max_weight = 40) plan mechanisms =
  if Array.length mechanisms <> plan.nmech then
    invalid_arg "Dem_graph.weigh: not the plan's mechanisms";
  (* Per edge: combined probability and the flag of the single likeliest
     contributing mechanism. *)
  let ne = plan.nedges in
  let total = Array.make ne 0. and best = Array.make ne 0. in
  let logical = Array.make ne false in
  let l = ref 0 in
  Array.iter
    (fun (m : Dem.mechanism) ->
      let p = m.Dem.p in
      for _ = 1 to (Array.length m.Dem.detectors + 1) / 2 do
        let x = plan.links.(!l) in
        incr l;
        let e = x lsr 2 and flag = x land 1 <> 0 in
        if x land 2 <> 0 then begin
          total.(e) <- p;
          best.(e) <- p;
          logical.(e) <- flag
        end
        else begin
          let t = total.(e) in
          total.(e) <- (t *. (1. -. p)) +. (p *. (1. -. t));
          if p > best.(e) then begin
            best.(e) <- p;
            logical.(e) <- flag
          end
        end
      done)
    mechanisms;
  if !l <> Array.length plan.links then
    invalid_arg "Dem_graph.weigh: not the plan's mechanisms";
  let weight_of p =
    if p <= 0. then max_weight
    else if p >= 0.5 then 1
    else max 1 (min max_weight (int_of_float (Float.round (scale *. log ((1. -. p) /. p)))))
  in
  Decoder_uf.reweight plan.incidence ~weights:(Array.map weight_of total) ~logical

let build ?scale ?max_weight ~nodes mechanisms =
  let mechanisms = Array.of_list mechanisms in
  weigh ?scale ?max_weight (plan ~nodes mechanisms) mechanisms
