type op = { a : int; b : int }

type schedule = {
  makespan : int;
  two_qubit_gates : int;
  busy : int array;
  op_finish : int array;
}

let route_cost grid { a; b } =
  if a = b then invalid_arg "Router.route_cost: same node";
  let d = Grid.manhattan grid a b in
  (2 * d) - 1

let schedule grid ops =
  let n = Grid.size grid in
  let free_at = Array.make n 0 in
  let busy = Array.make n 0 in
  let op_finish = Array.make (List.length ops) 0 in
  let makespan = ref 0 in
  let gates = ref 0 in
  List.iteri
    (fun i op ->
      if op.a = op.b then invalid_arg "Router.schedule: same node";
      let path = Grid.path grid op.a op.b in
      let dur = route_cost grid op in
      let start = List.fold_left (fun acc node -> max acc free_at.(node)) 0 path in
      let finish = start + dur in
      List.iter
        (fun node ->
          free_at.(node) <- finish;
          busy.(node) <- busy.(node) + dur)
        path;
      op_finish.(i) <- finish;
      gates := !gates + dur;
      if finish > !makespan then makespan := finish)
    ops;
  { makespan = !makespan; two_qubit_gates = !gates; busy; op_finish }
