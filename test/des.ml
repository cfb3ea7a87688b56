type t = { queue : (t -> unit) Heap.t; mutable clock : float; mutable processed : int }

let events_total = Obs.Counter.create "des.events_total"

let create () = { queue = Heap.create (); clock = 0.; processed = 0 }

let now t = t.clock

let schedule_at t ~time handler =
  if not (time >= t.clock -. 1e-15) then
    invalid_arg "Des.schedule_at: time in the past or NaN";
  Heap.push t.queue time handler

let schedule t ~delay handler =
  if not (delay >= 0.) then invalid_arg "Des.schedule: negative or NaN delay";
  schedule_at t ~time:(t.clock +. delay) handler

(* Process the earliest event, due at [time]. *)
let fire t time =
  let handler = Heap.pop_min t.queue in
  if not (t.clock >= time) then t.clock <- time;
  t.processed <- t.processed + 1;
  handler t

let run_until t horizon =
  let from = t.processed and running = ref true in
  while !running do
    if Heap.is_empty t.queue then running := false
    else begin
      let time = Heap.min_prio t.queue in
      if time <= horizon then fire t time else running := false
    end
  done;
  t.clock <- max t.clock horizon;
  Obs.Counter.add events_total (t.processed - from)

let run t =
  let from = t.processed in
  while not (Heap.is_empty t.queue) do
    fire t (Heap.min_prio t.queue)
  done;
  Obs.Counter.add events_total (t.processed - from)

let pending t = Heap.size t.queue
let events_processed t = t.processed
