(* Tests for the design-space-exploration layer: sweeps, the
   characterization cache, and the burden accounting. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ---------------------------------------------------------------- sweep *)

let test_linspace () =
  let xs = Sweep.linspace ~lo:0. ~hi:1. ~n:5 in
  Alcotest.(check int) "count" 5 (List.length xs);
  Alcotest.(check bool) "endpoints" true
    (feq (List.hd xs) 0. && feq (List.nth xs 4) 1.);
  Alcotest.(check bool) "spacing" true (feq (List.nth xs 1) 0.25)

let test_logspace () =
  let xs = Sweep.logspace ~lo:1. ~hi:100. ~n:3 in
  Alcotest.(check bool) "geometric middle" true (feq ~eps:1e-9 (List.nth xs 1) 10.);
  Alcotest.(check bool) "rejects nonpositive" true
    (try
       ignore (Sweep.logspace ~lo:0. ~hi:1. ~n:3);
       false
     with Invalid_argument _ -> true)

let test_sweep_and_grid () =
  let s = Sweep.sweep [ 1; 2; 3 ] ~f:(fun x -> x * x) in
  Alcotest.(check (list (pair int int))) "sweep" [ (1, 1); (2, 4); (3, 9) ] s;
  let g = Sweep.grid [ 1; 2 ] [ 10; 20 ] ~f:( + ) in
  Alcotest.(check int) "grid size" 4 (List.length g);
  Alcotest.(check bool) "row major" true (List.hd g = (1, 10, 11))

let test_argmin_argmax () =
  let pts = [ ("a", 3.); ("b", 1.); ("c", 2.) ] in
  Alcotest.(check string) "argmin" "b" (fst (Sweep.argmin pts));
  Alcotest.(check string) "argmax" "a" (fst (Sweep.argmax pts));
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Sweep.argmin ([] : (int * float) list));
       false
     with Invalid_argument _ -> true)

let test_pareto () =
  let pts = [ ("a", 1., 5.); ("b", 2., 2.); ("c", 5., 1.); ("d", 3., 3.) ] in
  let front = Sweep.pareto pts in
  let names = List.map (fun (n, _, _) -> n) front in
  Alcotest.(check (list string)) "dominated d removed" [ "a"; "b"; "c" ] names

(* ---------------------------------------------------------------- cache *)

let test_cache_hit_miss () =
  let cache = Cache.create () in
  let calls = ref 0 in
  let get () =
    Cache.find_or_compute cache ~key:"register" ~dim:4 (fun () ->
        incr calls;
        42)
  in
  Alcotest.(check int) "first" 42 (get ());
  Alcotest.(check int) "second" 42 (get ());
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits" 1 (Cache.hits cache);
  Alcotest.(check int) "misses" 1 (Cache.misses cache)

let test_cache_cost_accounting () =
  let cache = Cache.create () in
  let get key = Cache.find_or_compute cache ~key ~dim:8 (fun () -> 0) in
  ignore (get "a");
  ignore (get "a");
  ignore (get "a");
  ignore (get "b");
  Alcotest.(check bool) "paid two cubes" true (feq (Cache.cost_paid cache) (2. *. 512.));
  Alcotest.(check bool) "avoided two cubes" true
    (feq (Cache.cost_avoided cache) (2. *. 512.));
  Alcotest.(check bool) "burden reduction" true
    (Cache.burden_reduction ~naive_dim:64 cache > 100.)

(* ---------------------------------------------------------------- store *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir f =
  let dir = Filename.temp_file "hetarch_store_test" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_store_roundtrip () =
  with_store_dir (fun dir ->
      let s = Store.open_dir dir in
      let key = Store.key ~kind:"test.op" ~fields:[ ("a", "1"); ("b", "2") ] in
      Alcotest.(check bool) "fresh store misses" true (Store.find s key = None);
      (* Arbitrary bytes, including NUL and high bits, survive exactly. *)
      let payload = "\x00\xffchannel bytes\x01\x7f" ^ String.make 100 '\x42' in
      Store.put s key payload;
      Alcotest.(check bool) "round trip exact" true
        (Store.find s key = Some payload);
      (* A second open of the same directory sees the entry: the warm-start
         across process restarts, minus the process restart. *)
      let s2 = Store.open_dir dir in
      Alcotest.(check bool) "reopened store hits" true
        (Store.find s2 key = Some payload))

let test_store_key_discipline () =
  (* Field order must not matter (sorted canonicalization); every input
     component — kind, field values, version tag — must change the key. *)
  let k ~kind fields = Store.key ~kind ~fields in
  Alcotest.(check string) "field order canonical"
    (k ~kind:"op" [ ("a", "1"); ("b", "2") ])
    (k ~kind:"op" [ ("b", "2"); ("a", "1") ]);
  Alcotest.(check bool) "kind distinguishes" true
    (k ~kind:"op1" [ ("a", "1") ] <> k ~kind:"op2" [ ("a", "1") ]);
  Alcotest.(check bool) "value distinguishes" true
    (k ~kind:"op" [ ("a", "1") ] <> k ~kind:"op" [ ("a", "2") ]);
  (* Pin a concrete key: a silent change to the canonicalization, hash, or
     version tag would orphan every store on disk — make it loud instead.
     Bump Store.version_tag when the characterization pipeline changes
     meaning, and re-pin here. *)
  Alcotest.(check string) "pinned key" "146e8e121dc2951b"
    (k ~kind:"test.op" [ ("b", "2"); ("a", "1") ])

let test_store_corruption_degrades_to_miss () =
  with_store_dir (fun dir ->
      let s = Store.open_dir dir in
      let put name payload =
        let key = Store.key ~kind:"corrupt" ~fields:[ ("n", name) ] in
        Store.put s key payload;
        key
      in
      let k1 = put "trunc" "payload one" in
      let k2 = put "flip" "payload two" in
      let k3 = put "garbage" "payload three" in
      let path_of k = Store.entry_path s k in
      (* Truncate one entry mid-record. *)
      let truncate path n =
        let contents = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub contents 0 n))
      in
      truncate (path_of k1) 10;
      (* Flip a byte inside another entry's payload: framing intact, checksum
         trailer must catch it. *)
      let flip path =
        let contents = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        let i = Bytes.length contents - 12 in
        Bytes.set contents i (Char.chr (Char.code (Bytes.get contents i) lxor 0xff));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents)
      in
      flip (path_of k2);
      (* Replace a third with outright garbage. *)
      Out_channel.with_open_bin (path_of k3) (fun oc ->
          Out_channel.output_string oc "not a HETSTORE record");
      Alcotest.(check bool) "truncated entry is a miss" true (Store.find s k1 = None);
      Alcotest.(check bool) "bit-flipped entry is a miss" true (Store.find s k2 = None);
      Alcotest.(check bool) "garbage entry is a miss" true (Store.find s k3 = None);
      let st = Store.stats s in
      Alcotest.(check bool) "corruption counted" true (st.Store.corrupt >= 3);
      (* A put over a corrupt entry heals it. *)
      Store.put s k1 "payload one";
      Alcotest.(check bool) "healed after rewrite" true
        (Store.find s k1 = Some "payload one"))

let test_cache_disk_tier () =
  with_store_dir (fun dir ->
      let s = Store.open_dir dir in
      let codec =
        { Cache.encode = string_of_int;
          decode = (fun b -> int_of_string_opt b) }
      in
      let calls = ref 0 in
      let get cache =
        Cache.find_or_compute ~disk:(s, codec) cache ~key:"k" ~dim:4 (fun () ->
            incr calls;
            7)
      in
      let c1 = Cache.create () in
      Alcotest.(check int) "cold computes" 7 (get c1);
      Alcotest.(check int) "memory hit on second call" 7 (get c1);
      Alcotest.(check int) "one compute" 1 !calls;
      Alcotest.(check int) "no disk hits yet" 0 (Cache.disk_hits c1);
      (* Fresh memory tier, same store: the disk tier serves it. *)
      let c2 = Cache.create () in
      Alcotest.(check int) "warm from disk" 7 (get c2);
      Alcotest.(check int) "still one compute" 1 !calls;
      Alcotest.(check int) "disk hit counted" 1 (Cache.disk_hits c2);
      Alcotest.(check int) "promoted to memory" 7 (get c2);
      Alcotest.(check int) "memory hit after promotion" 1 (Cache.hits c2);
      Alcotest.(check bool) "disk hit counts as avoided cost" true
        (Cache.cost_avoided c2 >= 2. *. 64.))

(* Cold, warm, and half-warm sweeps must agree to the last bit, at any job
   count — the persistent store is an invisible accelerator, never a
   semantic change. *)
let char_sweep ~jobs store =
  let memo = Char_store.memo () in
  let sweep () =
    Sweep.sweep ~jobs [ 1.; 2.; 3. ] ~f:(fun alpha ->
        let base = Device.multimode_resonator_3d in
        let storage =
          Device.with_coherence base ~t1:(alpha *. base.Device.t1)
            ~t2:(alpha *. base.Device.t2)
        in
        let c =
          Characterize.characterize_op ~memo (Cell.register ~storage ())
            (Characterize.Retention { dt = 10e-6 })
        in
        (c.Characterize.perf.Characterize.duration,
         c.Characterize.perf.Characterize.error))
  in
  match store with None -> sweep () | Some s -> Char_store.with_store s sweep

let test_cold_warm_determinism () =
  with_store_dir (fun dir ->
      (* Baseline with no store at all. *)
      let plain = char_sweep ~jobs:2 None in
      let s = Store.open_dir dir in
      Cache.reset Char_store.cache;
      let cold = char_sweep ~jobs:2 (Some s) in
      Alcotest.(check bool) "cold wrote entries" true ((Store.stats s).Store.writes > 0);
      (* Half-warm: drop one entry from the store, keep the rest. *)
      let entries = ref [] in
      let rec walk p =
        if Sys.is_directory p then Array.iter (fun e -> walk (Filename.concat p e)) (Sys.readdir p)
        else if Filename.check_suffix p ".chan" then entries := p :: !entries
      in
      walk dir;
      Alcotest.(check bool) "store has entries on disk" true (List.length !entries >= 3);
      Sys.remove (List.hd (List.sort compare !entries));
      Cache.reset Char_store.cache;
      let half = char_sweep ~jobs:2 (Some s) in
      (* Fully warm. *)
      Cache.reset Char_store.cache;
      let warm = char_sweep ~jobs:2 (Some s) in
      Alcotest.(check bool) "warm run hit the disk tier" true
        (Cache.disk_hits Char_store.cache > 0);
      (* Polymorphic equality on float pairs is bit-exact here: no NaNs. *)
      Alcotest.(check bool) "cold = no-store baseline" true (cold = plain);
      Alcotest.(check bool) "half-warm = cold" true (half = cold);
      Alcotest.(check bool) "warm = cold" true (warm = cold);
      Cache.reset Char_store.cache)

(* The persistent store's payoff: the density-matrix-heavy storage-cell
   operations of the charsweep alpha sweep, once simulated (cold: fresh
   memory tier, no store) and once served from a populated store (warm:
   fresh memory tier, so every characterization is a disk hit). *)
let char_points =
  List.concat_map
    (fun alpha ->
      let base = Device.multimode_resonator_3d in
      let storage =
        Device.with_coherence base ~t1:(alpha *. base.Device.t1)
          ~t2:(alpha *. base.Device.t2)
      in
      [ (Cell.seqop ~storage (), Characterize.Seq_cnots { count = 5 });
        (Cell.usc ~storage (),
         Characterize.Stabilizer { weight = 4; serialized = true }) ])
    [ 1.; 2.; 3.; 4.; 5. ]

let char_run ?disk () =
  let cache = Cache.create () in
  let memo =
    { Characterize.memoize =
        (fun ~kind ~fields ~dim f ->
          Cache.find_or_compute ?disk cache ~key:(Store.key ~kind ~fields) ~dim f) }
  in
  List.iter (fun (cell, op) -> ignore (Characterize.characterize_op ~memo cell op)) char_points

let test_warm_store_speedup () =
  with_store_dir (fun dir ->
      let disk = (Store.open_dir dir, Char_store.codec) in
      char_run ~disk ();
      let floor = 5.0 in
      let x = Timing.speedup ~floor ~slow:(fun () -> char_run ()) ~fast:(char_run ~disk) in
      Alcotest.(check bool)
        (Printf.sprintf "warm store %.1fx faster than cold, floor %gx" x floor)
        true (x >= floor))

(* --------------------------------------------------------------- burden *)

let test_burden_modules () =
  List.iter
    (fun cells ->
      Alcotest.(check bool) "reduction exceeds paper's 1e4" true
        (Burden.reduction cells > 1e4))
    [ Burden.distillation_module (); Burden.uec_module (); Burden.ct_module () ]

let test_burden_qubits () =
  Alcotest.(check int) "distillation module qubits" 35
    (Burden.module_qubits (Burden.distillation_module ()));
  Alcotest.(check int) "uec module qubits" 34
    (Burden.module_qubits (Burden.uec_module ()))

let test_active_dimensions () =
  Alcotest.(check int) "register active" 2 (Burden.active_qubits (Cell.register ()));
  Alcotest.(check int) "usc active" 5 (Burden.active_qubits (Cell.usc ()))

let prop_pareto_front_undominated =
  QCheck.Test.make ~name:"pareto front has no dominated points" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20)
              (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
    (fun pts ->
      let labelled = List.mapi (fun i (a, b) -> (i, a, b)) pts in
      let front = Sweep.pareto labelled in
      List.for_all
        (fun (_, a1, a2) ->
          not
            (List.exists
               (fun (_, b1, b2) -> b1 <= a1 && b2 <= a2 && (b1 < a1 || b2 < a2))
               front))
        front)

let () =
  Alcotest.run "dse"
    [ ( "sweep",
        [ Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "sweep/grid" `Quick test_sweep_and_grid;
          Alcotest.test_case "argmin/argmax" `Quick test_argmin_argmax;
          Alcotest.test_case "pareto" `Quick test_pareto ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "cost accounting" `Quick test_cache_cost_accounting;
          Alcotest.test_case "disk tier" `Quick test_cache_disk_tier ] );
      ( "store",
        [ Alcotest.test_case "round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "key discipline" `Quick test_store_key_discipline;
          Alcotest.test_case "corruption degrades to miss" `Quick
            test_store_corruption_degrades_to_miss;
          Alcotest.test_case "cold/warm determinism" `Quick
            test_cold_warm_determinism;
          Alcotest.test_case "warm start speedup" `Quick test_warm_store_speedup ] );
      ( "burden",
        [ Alcotest.test_case "paper modules" `Quick test_burden_modules;
          Alcotest.test_case "qubit counts" `Quick test_burden_qubits;
          Alcotest.test_case "active dims" `Quick test_active_dimensions ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_pareto_front_undominated ]) ]
