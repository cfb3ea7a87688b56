(* Tests for the discrete-event simulation engine. *)

let test_event_order () =
  let des = Des.create () in
  let log = ref [] in
  Des.schedule des ~delay:3. (fun _ -> log := 3 :: !log);
  Des.schedule des ~delay:1. (fun _ -> log := 1 :: !log);
  Des.schedule des ~delay:2. (fun _ -> log := 2 :: !log);
  Des.run des;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_clock_advances () =
  let des = Des.create () in
  let seen = ref 0. in
  Des.schedule des ~delay:5. (fun d -> seen := Des.now d);
  Des.run des;
  Alcotest.(check (float 1e-12)) "clock at event time" 5. !seen

let test_cascading_events () =
  let des = Des.create () in
  let count = ref 0 in
  let rec tick d =
    incr count;
    if !count < 10 then Des.schedule d ~delay:1. tick
  in
  Des.schedule des ~delay:1. tick;
  Des.run des;
  Alcotest.(check int) "all ticks" 10 !count;
  Alcotest.(check (float 1e-12)) "final clock" 10. (Des.now des);
  Alcotest.(check int) "processed" 10 (Des.events_processed des)

let test_run_until_horizon () =
  let des = Des.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Des.schedule des ~delay:t (fun _ -> fired := t :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Des.run_until des 2.5;
  Alcotest.(check (list (float 1e-12))) "only events before horizon" [ 1.; 2. ]
    (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock at horizon" 2.5 (Des.now des);
  Alcotest.(check int) "two pending" 2 (Des.pending des)

let test_schedule_at () =
  let des = Des.create () in
  let seen = ref [] in
  Des.schedule_at des ~time:2. (fun _ -> seen := 2 :: !seen);
  Des.schedule_at des ~time:1. (fun _ -> seen := 1 :: !seen);
  Des.run des;
  Alcotest.(check (list int)) "absolute times" [ 1; 2 ] (List.rev !seen)

let test_rejects_past () =
  let des = Des.create () in
  Des.schedule des ~delay:1. (fun d ->
      Alcotest.(check bool) "past rejected" true
        (try
           Des.schedule_at d ~time:0.5 (fun _ -> ());
           false
         with Invalid_argument _ -> true));
  Des.run des

let test_rejects_negative_delay () =
  let des = Des.create () in
  Alcotest.(check bool) "negative delay" true
    (try
       Des.schedule des ~delay:(-1.) (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_simultaneous_events_all_fire () =
  let des = Des.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    Des.schedule des ~delay:1. (fun _ -> incr count)
  done;
  Des.run des;
  Alcotest.(check int) "all five" 5 !count

let test_events_total_exact () =
  (* Handler timing is sampled; the event counter is not.  [handler t] runs
     for events 1, 65, 129, ... of each queue. *)
  let events = Obs.Counter.create "des.events_total" in
  let timed = Obs.Histogram.create "des.handler_seconds" in
  let events0 = Obs.Counter.value events and timed0 = Obs.Histogram.count timed in
  let des = Des.create () in
  let n = 1000 in
  let count = ref 0 in
  let rec tick d =
    incr count;
    if !count < n then Des.schedule d ~delay:1. tick
  in
  Des.schedule des ~delay:1. tick;
  Des.run des;
  Alcotest.(check int) "processed" n (Des.events_processed des);
  Alcotest.(check int) "des.events_total delta" (Des.events_processed des)
    (Obs.Counter.value events - events0);
  Alcotest.(check int) "handlers timed" ((n + 63) / 64)
    (Obs.Histogram.count timed - timed0)

let test_queue_high_water () =
  let gauge = Obs.Gauge.create "des.queue_high_water" in
  let des = Des.create () in
  let depth = int_of_float (Obs.Gauge.value gauge) + 5 in
  for i = 1 to depth do
    Des.schedule des ~delay:(float_of_int i) (fun _ -> ())
  done;
  Des.run des;
  Des.schedule des ~delay:1. (fun _ -> ());
  Des.run des;
  Alcotest.(check (float 0.)) "gauge holds the deepest queue"
    (float_of_int depth) (Obs.Gauge.value gauge)

let () =
  Alcotest.run "des"
    [ ( "engine",
        [ Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "clock" `Quick test_clock_advances;
          Alcotest.test_case "cascading" `Quick test_cascading_events;
          Alcotest.test_case "run_until" `Quick test_run_until_horizon;
          Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "rejects past" `Quick test_rejects_past;
          Alcotest.test_case "rejects negative" `Quick test_rejects_negative_delay;
          Alcotest.test_case "simultaneous" `Quick test_simultaneous_events_all_fire ] );
      ( "instruments",
        [ Alcotest.test_case "events_total exact" `Quick test_events_total_exact;
          Alcotest.test_case "queue high-water" `Quick test_queue_high_water ] ) ]
