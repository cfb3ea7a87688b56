type t = {
  queue : (t -> unit) Heap.t;
  mutable clock : float;
  mutable processed : int;
  mutable high_water : int;
      (* largest queue size seen; the global gauge is raised only past it *)
}

let events_total = Obs.Counter.create "des.events_total"
let queue_high_water = Obs.Gauge.create "des.queue_high_water"
let handler_seconds = Obs.Histogram.create "des.handler_seconds"

let create () = { queue = Heap.create (); clock = 0.; processed = 0; high_water = 0 }

let now t = t.clock

let schedule_at t ~time handler =
  if not (time >= t.clock -. 1e-15) then
    invalid_arg "Des.schedule_at: time in the past or NaN";
  Heap.push t.queue time handler;
  let size = Heap.size t.queue in
  if size > t.high_water then begin
    t.high_water <- size;
    Obs.Gauge.set_max queue_high_water (float_of_int size)
  end

let schedule t ~delay handler =
  if not (delay >= 0.) then invalid_arg "Des.schedule: negative or NaN delay";
  schedule_at t ~time:(t.clock +. delay) handler

(* Process the earliest event, due at [time]. *)
let fire t time =
  let handler = Heap.pop_min t.queue in
  if not (t.clock >= time) then t.clock <- time;
  t.processed <- t.processed + 1;
  (* Timing every handler would cost more than most handlers; 1 in 64
     keeps the latency distribution at a fraction of the overhead. *)
  if t.processed land 63 = 1 then begin
    let start = Obs.now_ns () in
    handler t;
    Obs.Histogram.observe handler_seconds
      (Int64.to_float (Int64.sub (Obs.now_ns ()) start) *. 1e-9)
  end
  else handler t

(* [des.events_total] is shared by every domain: one add per call, not one
   atomic increment per event. *)
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
