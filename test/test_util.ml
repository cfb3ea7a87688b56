(* Tests for the util substrate: RNG, stats, heap, union-find, bitvec,
   table rendering. *)

let float_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_rng_uniform_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.uniform r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d roughly uniform" i)
        true
        (c > 4_000 && c < 6_000))
    counts

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr matches
  done;
  Alcotest.(check bool) "split streams independent" true (!matches < 4)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r 2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "Exp(2) mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_poisson_mean () =
  let r = Rng.create 17 in
  let n = 20_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson r 4.0
  done;
  let mean = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "Poisson(4) mean ~ 4" true (Float.abs (mean -. 4.0) < 0.1)

let test_rng_poisson_large_lambda () =
  let r = Rng.create 23 in
  let n = 5_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson r 1000.
  done;
  let mean = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "Poisson(1000) mean within 2%" true (Float.abs (mean -. 1000.) < 20.)

(* The streams every pinned experiment output rests on: the first uniforms
   and bernoulli draws at seed 2023, and the bits53/geometric forms of the
   same single draw. *)
let test_rng_pinned_stream () =
  let r = Rng.create 2023 in
  List.iter
    (fun want -> Alcotest.(check (float 0.)) "uniform" want (Rng.uniform r))
    [ 0x1.1d36691dc74edp-1; 0x1.3cb47660a0d07p-1; 0x1.a0adca9af613ap-2;
      0x1.275bf9e0cb33cp-1 ];
  let r = Rng.create 2023 in
  Alcotest.(check string) "bernoulli, p = (i mod 4 + 1) / 5"
    "00110011001001100111101000011101"
    (String.init 32 (fun i ->
         if Rng.bernoulli r (float_of_int ((i mod 4) + 1) /. 5.) then '1' else '0'));
  let a = Rng.create 7 in
  let b = Rng.copy a and c = Rng.copy a in
  let log1mp = log1p (-0.01) in
  for _ = 1 to 100 do
    let u = Rng.uniform a in
    Alcotest.(check (float 0.)) "bits53" u (float_of_int (Rng.bits53 b) *. 0x1.0p-53);
    Alcotest.(check int) "geometric"
      (int_of_float (log1p (-.u) /. log1mp))
      (Rng.geometric c ~log1mp)
  done

let test_rng_bernoulli () =
  let r = Rng.create 29 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3" true (Float.abs (p -. 0.3) < 0.01)

let test_rng_categorical () =
  let r = Rng.create 31 in
  let w = [| 1.; 2.; 7. |] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.categorical r w in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "w0" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "w1" true (Float.abs (frac 1 -. 0.2) < 0.015);
  Alcotest.(check bool) "w2" true (Float.abs (frac 2 -. 0.7) < 0.015)

let test_rng_shuffle_permutation () =
  let r = Rng.create 37 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_moments () =
  let r = Rng.create 41 in
  let n = 100_000 in
  let acc = ref 0. and acc2 = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.) < 0.03)

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean_var () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check bool) "mean" true (float_eq (Stats.mean xs) 3.);
  Alcotest.(check bool) "variance" true (float_eq (Stats.variance xs) 2.5);
  Alcotest.(check bool) "stddev" true (float_eq (Stats.stddev xs) (sqrt 2.5))

let test_stats_empty () =
  Alcotest.(check bool) "mean empty" true (float_eq (Stats.mean [||]) 0.);
  Alcotest.(check bool) "var single" true (float_eq (Stats.variance [| 3. |]) 0.)

let test_stats_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "contains p-hat" true (lo < 0.5 && hi > 0.5);
  Alcotest.(check bool) "reasonable width" true (hi -. lo > 0.1 && hi -. lo < 0.3);
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "zero successes lower bound" true (float_eq lo0 0.);
  Alcotest.(check bool) "zero successes upper bound positive" true (hi0 > 0.);
  (* The ends are exact, not a rounding residue of center -/+ half. *)
  let lo0, _ = Stats.wilson_interval ~successes:0 ~trials:40000 ~z:4. in
  Alcotest.(check (float 0.)) "0/40000 lower end is exactly 0" 0. lo0;
  List.iter
    (fun n ->
      let lo, hi = Stats.wilson_interval ~successes:n ~trials:n ~z:4. in
      Alcotest.(check (float 0.)) (Printf.sprintf "%d/%d upper end is exactly 1" n n) 1. hi;
      Alcotest.(check bool) (Printf.sprintf "%d/%d lower end below 1" n n) true (lo < 1.))
    [ 1; 7; 40000 ]

let test_stats_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check bool) "p0" true (float_eq (Stats.percentile xs 0.) 1.);
  Alcotest.(check bool) "p50" true (float_eq (Stats.percentile xs 50.) 3.);
  Alcotest.(check bool) "p100" true (float_eq (Stats.percentile xs 100.) 5.)

let test_stats_histogram () =
  let xs = [| 0.1; 0.2; 0.5; 0.9; -1.; 2. |] in
  let h = Stats.histogram ~lo:0. ~hi:1. ~bins:2 xs in
  Alcotest.(check (array int)) "clamped histogram" [| 3; 3 |] h

let test_stats_running () =
  let r = Stats.running_create () in
  List.iter (Stats.running_add r) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.running_count r);
  Alcotest.(check bool) "mean" true (float_eq (Stats.running_mean r) 3.);
  Alcotest.(check bool) "variance" true (float_eq (Stats.running_variance r) 2.5)

(* ----------------------------------------------------------------- Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p (int_of_float p)) [ 5.; 1.; 4.; 2.; 3. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted ascending" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_heap_peek_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None)

let test_heap_random_agrees_with_sort () =
  let r = Rng.create 53 in
  let h = Heap.create () in
  let prios = Array.init 500 (fun _ -> Rng.uniform r) in
  Array.iteri (fun i p -> Heap.push h p i) prios;
  let sorted = Array.copy prios in
  Array.sort compare sorted;
  Array.iter
    (fun expected ->
      match Heap.pop h with
      | None -> Alcotest.fail "heap drained early"
      | Some (p, _) -> Alcotest.(check bool) "min order" true (float_eq p expected))
    sorted

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1. 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

(* ----------------------------------------------------------- Union_find *)

let test_uf_basic () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0~1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "0!~2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "0~3 after merge" true (Union_find.same uf 0 3);
  Alcotest.(check int) "sizes" 4 (Union_find.size uf 0);
  Alcotest.(check int) "set count" 3 (Union_find.count_sets uf)

let test_uf_self_union () =
  let uf = Union_find.create 3 in
  ignore (Union_find.union uf 1 1);
  Alcotest.(check int) "unchanged" 3 (Union_find.count_sets uf)

(* --------------------------------------------------------------- Bitvec *)

let test_bitvec_set_get () =
  let b = Bitvec.create 100 in
  Bitvec.set b 0 true;
  Bitvec.set b 63 true;
  Bitvec.set b 64 true;
  Bitvec.set b 99 true;
  Alcotest.(check bool) "bit 0" true (Bitvec.get b 0);
  Alcotest.(check bool) "bit 63 (word boundary)" true (Bitvec.get b 63);
  Alcotest.(check bool) "bit 64" true (Bitvec.get b 64);
  Alcotest.(check bool) "bit 99" true (Bitvec.get b 99);
  Alcotest.(check bool) "bit 50 clear" false (Bitvec.get b 50);
  Alcotest.(check int) "popcount" 4 (Bitvec.popcount b)

let test_bitvec_xor () =
  let a = Bitvec.create 70 and b = Bitvec.create 70 in
  Bitvec.set a 5 true;
  Bitvec.set a 65 true;
  Bitvec.set b 5 true;
  Bitvec.set b 30 true;
  Bitvec.xor_into ~dst:a b;
  Alcotest.(check bool) "5 cancels" false (Bitvec.get a 5);
  Alcotest.(check bool) "30 appears" true (Bitvec.get a 30);
  Alcotest.(check bool) "65 stays" true (Bitvec.get a 65);
  Alcotest.(check int) "popcount 2" 2 (Bitvec.popcount a)

let test_bitvec_and_popcount () =
  let a = Bitvec.create 128 and b = Bitvec.create 128 in
  List.iter (fun i -> Bitvec.set a i true) [ 1; 2; 3; 100 ];
  List.iter (fun i -> Bitvec.set b i true) [ 2; 3; 4; 100 ];
  Alcotest.(check int) "overlap" 3 (Bitvec.and_popcount a b)

let test_bitvec_iter_set () =
  let b = Bitvec.create 80 in
  List.iter (fun i -> Bitvec.set b i true) [ 3; 62; 63; 79 ];
  let seen = ref [] in
  Bitvec.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "indices in order" [ 3; 62; 63; 79 ] (List.rev !seen)

let test_bitvec_flip_clear () =
  let b = Bitvec.create 10 in
  Bitvec.flip b 4;
  Alcotest.(check bool) "flip on" true (Bitvec.get b 4);
  Bitvec.flip b 4;
  Alcotest.(check bool) "flip off" false (Bitvec.get b 4);
  Bitvec.set b 1 true;
  Bitvec.clear b;
  Alcotest.(check bool) "cleared" true (Bitvec.is_zero b)

let test_bitvec_bounds () =
  let b = Bitvec.create 10 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get b 10))

(* [ctz] against a bit-by-bit scan: every single bit, and words with more
   bits above the lowest; zero is refused. *)
let test_bitvec_ctz () =
  let naive w =
    let i = ref 0 in
    while (w lsr !i) land 1 = 0 do incr i done;
    !i
  in
  let rng = Rng.create 11 in
  for i = 0 to Bitvec.word_size - 1 do
    Alcotest.(check int) (Printf.sprintf "bit %d" i) i (Bitvec.ctz (1 lsl i));
    for _ = 1 to 20 do
      let w = (1 lsl i) lor ((Rng.bits53 rng lsl 10) lsl i) in
      Alcotest.(check int) (Printf.sprintf "word %x" w) (naive w) (Bitvec.ctz w)
    done
  done;
  Alcotest.check_raises "zero" (Invalid_argument "Bitvec.ctz: zero word") (fun () ->
      ignore (Bitvec.ctz 0))

let test_bitvec_word_kernels () =
  let n = 130 in
  let a = Bitvec.create n and b = Bitvec.create n and dst = Bitvec.create n in
  List.iter (fun i -> Bitvec.set a i true) [ 0; 62; 63; 100 ];
  List.iter (fun i -> Bitvec.set b i true) [ 0; 63; 101; 129 ];
  Bitvec.xor_words ~dst a b;
  List.iter
    (fun (i, want) ->
      Alcotest.(check bool) (Printf.sprintf "xor_words bit %d" i) want (Bitvec.get dst i))
    [ (0, false); (62, true); (63, false); (100, true); (101, true); (129, true) ];
  Bitvec.or_into ~dst a;
  Alcotest.(check bool) "or_into bit 0" true (Bitvec.get dst 0);
  Bitvec.andnot_into ~dst b;
  Alcotest.(check bool) "andnot clears 129" false (Bitvec.get dst 129);
  Alcotest.(check bool) "andnot keeps 62" true (Bitvec.get dst 62);
  Bitvec.and_into ~dst a;
  Bitvec.andnot_into ~dst a;
  Alcotest.(check bool) "x land (lnot x) = 0" true (Bitvec.is_zero dst)

let test_bitvec_set_all () =
  (* 70 bits spans a partial top word; popcount must stay exact. *)
  let b = Bitvec.create 70 in
  Bitvec.set_all b;
  Alcotest.(check int) "popcount = n" 70 (Bitvec.popcount b);
  Alcotest.(check bool) "last bit" true (Bitvec.get b 69)

let test_bitvec_random_into_stats () =
  let rng = Rng.create 99 in
  let n = 20_000 in
  let b = Bitvec.create n in
  List.iter
    (fun p ->
      Bitvec.random_into rng b ~p;
      let density = float_of_int (Bitvec.popcount b) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "density ~ %g (got %g)" p density)
        true
        (Float.abs (density -. p) < 0.02))
    [ 0.; 0.01; 0.1; 0.5; 0.9; 0.99; 1. ]

let test_bitvec_random_into_invariant () =
  (* Whole-word fills must not leak bits past n: popcount of the complement
     path and equality semantics rely on zeroed padding. *)
  let rng = Rng.create 4 in
  let b = Bitvec.create 65 in
  for _ = 1 to 50 do
    Bitvec.random_into rng b ~p:0.5;
    Alcotest.(check bool) "popcount <= n" true (Bitvec.popcount b <= 65);
    Bitvec.random_into rng b ~p:0.97;
    Alcotest.(check bool) "dense popcount <= n" true (Bitvec.popcount b <= 65)
  done

(* ------------------------------------------------------------- Parallel *)

let test_parallel_run_order () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  let expect = Array.init 37 (fun i -> i * i) in
  Alcotest.(check (array int)) "jobs=1" expect (Parallel.run ~jobs:1 tasks);
  Alcotest.(check (array int)) "jobs=4" expect (Parallel.run ~jobs:4 tasks)

let test_parallel_exception () =
  Alcotest.check_raises "task failure propagates" (Failure "boom") (fun () ->
      ignore
        (Parallel.run ~jobs:3
           (Array.init 8 (fun i () -> if i = 5 then failwith "boom" else i))))

let test_parallel_monte_carlo_deterministic () =
  (* The tentpole contract: same seed => identical result at any job count,
     including a non-multiple-of-chunk shot total. *)
  let f rng nshots =
    let acc = ref 0 in
    for _ = 1 to nshots do
      if Rng.bernoulli rng 0.3 then incr acc
    done;
    !acc
  in
  let count jobs =
    Parallel.monte_carlo_count ~jobs ~rng:(Rng.create 42) ~shots:1000 f
  in
  let c1 = count 1 in
  Alcotest.(check int) "jobs=2 identical" c1 (count 2);
  Alcotest.(check int) "jobs=4 identical" c1 (count 4);
  Alcotest.(check bool) "plausible count" true (c1 > 200 && c1 < 400)

let test_parallel_monte_carlo_covers_all_shots () =
  let shots = 1000 in
  let seen =
    Parallel.monte_carlo ~jobs:3 ~rng:(Rng.create 1) ~shots ~init:0 ~merge:( + )
      (fun _rng nshots -> nshots)
  in
  Alcotest.(check int) "chunk sizes sum to shots" shots seen

let test_parallel_map_list () =
  Alcotest.(check (list int)) "order preserved" [ 2; 4; 6; 8 ]
    (Parallel.map_list ~jobs:2 (fun x -> 2 * x) [ 1; 2; 3; 4 ])

let test_parallel_set_jobs () =
  let saved = Parallel.jobs () in
  Parallel.set_jobs 3;
  Alcotest.(check int) "set_jobs visible" 3 (Parallel.jobs ());
  Parallel.set_jobs saved;
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Parallel.set_jobs: jobs must be >= 1") (fun () ->
      Parallel.set_jobs 0)

(* A run started inside a task of a multi-domain run goes inline: it
   spawns no domain of its own and returns what it returns at jobs = 1. *)
let inner_tasks () = Array.init 9 (fun i () -> (i * i) + 1)

let test_parallel_nested_inline () =
  let expect = Parallel.run ~jobs:1 (inner_tasks ()) in
  let _, spawned0 = Parallel.stats () in
  let results =
    Parallel.run ~jobs:2 (Array.init 2 (fun _ () -> Parallel.run ~jobs:4 (inner_tasks ())))
  in
  let _, spawned1 = Parallel.stats () in
  Alcotest.(check int) "only the outer run spawns a domain" 1 (spawned1 - spawned0);
  Array.iter (Alcotest.(check (array int)) "nested run = jobs:1" expect) results

let test_parallel_nested_flag_restored () =
  Alcotest.check_raises "task failure propagates" (Failure "boom") (fun () ->
      ignore
        (Parallel.run ~jobs:2
           (Array.init 4 (fun i () ->
                if i = 1 then failwith "boom" else Parallel.run ~jobs:2 (inner_tasks ())))));
  let _, spawned0 = Parallel.stats () in
  ignore (Parallel.run ~jobs:2 (inner_tasks ()));
  let _, spawned1 = Parallel.stats () in
  Alcotest.(check int) "the next top-level run still fans out" 1 (spawned1 - spawned0)

(* -------------------------------------------------------------- Tableio *)

let test_table_render () =
  let s = Tableio.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "20" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "equal widths" (String.length (List.hd lines)) (String.length l))
    lines

let test_table_pads_short_rows () =
  let s = Tableio.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_csv_quoting () =
  let s = Tableio.csv ~header:[ "x" ] [ [ "a,b" ]; [ "say \"hi\"" ] ] in
  Alcotest.(check bool) "comma field quoted" true (contains_substring s "\"a,b\"");
  Alcotest.(check bool) "quote doubled" true (contains_substring s "\"say \"\"hi\"\"\"")

(* ----------------------------------------------------------------- Plot *)

let test_spark () =
  Alcotest.(check string) "empty" "" (Plot.spark []);
  let s = Plot.spark [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check bool) "renders 4 glyphs" true (String.length s > 0);
  (* constant series renders without dividing by zero *)
  Alcotest.(check bool) "constant ok" true (String.length (Plot.spark [ 5.; 5. ]) > 0)

let test_plot_lines_basic () =
  let s =
    Plot.lines ~width:30 ~height:8
      ~series:[ ("a", [ (0., 0.); (1., 1.); (2., 4.) ]); ("b", [ (0., 4.); (2., 0.) ]) ]
      ()
  in
  Alcotest.(check bool) "contains legend a" true (String.length s > 0);
  let has c = String.contains s c in
  Alcotest.(check bool) "glyph *" true (has '*');
  Alcotest.(check bool) "glyph +" true (has '+')

let test_plot_lines_empty_and_nonfinite () =
  Alcotest.(check string) "no data" "(no data)" (Plot.lines ~series:[ ("x", []) ] ());
  let s = Plot.lines ~series:[ ("x", [ (0., Float.nan); (1., 2.) ]) ] () in
  Alcotest.(check bool) "nan skipped" true (String.length s > 0)

let test_plot_logy_drops_nonpositive () =
  let s = Plot.lines ~logy:true ~series:[ ("x", [ (0., 0.); (1., 10.); (2., 100.) ]) ] () in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* qcheck properties *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h p i) prios;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_bitvec_xor_involution =
  QCheck.Test.make ~name:"xor twice is identity" ~count:200
    QCheck.(pair (int_bound 200) (list (int_bound 200)))
    (fun (n, idxs) ->
      let n = n + 1 in
      let a = Bitvec.create n and b = Bitvec.create n in
      List.iter (fun i -> Bitvec.set b (i mod n) true) idxs;
      let before = Bitvec.to_string a in
      Bitvec.xor_into ~dst:a b;
      Bitvec.xor_into ~dst:a b;
      String.equal before (Bitvec.to_string a))

let prop_uf_transitive =
  QCheck.Test.make ~name:"union-find transitivity" ~count:100
    QCheck.(list (pair (int_bound 30) (int_bound 30)))
    (fun pairs ->
      let uf = Union_find.create 31 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b)
        pairs)

(* --------------------------------------------------------- content hash *)

let test_content_hash_pinned () =
  (* Pin concrete values: the hash feeds persistent store keys and the
     collect ledger's task identities, so any change to the absorption or
     finalization breaks every store and ledger on disk.  These must never
     change (see Content_hash's interface). *)
  Alcotest.(check string) "empty string" "c3ef85611eb0dfce"
    (Content_hash.hash_hex "");
  Alcotest.(check string) "abc" "36b4ab7a96d69856" (Content_hash.hash_hex "abc");
  Alcotest.(check string) "components pinned" "071b41bec1a39260"
    (Content_hash.of_components [ "alpha"; "beta"; "gamma" ])

let test_content_hash_canonical_injective () =
  (* Length-prefixing means concatenation ambiguities hash differently. *)
  Alcotest.(check bool) "ab+c vs a+bc" false
    (Content_hash.of_components [ "ab"; "c" ]
    = Content_hash.of_components [ "a"; "bc" ]);
  Alcotest.(check bool) "split vs joined" false
    (Content_hash.of_components [ "ab" ] = Content_hash.of_components [ "a"; "b" ]);
  Alcotest.(check bool) "order matters" false
    (Content_hash.of_components [ "a"; "b" ] = Content_hash.of_components [ "b"; "a" ])

(* Strings around one and two 64 KiB flushes (the store key's scratch
   size), fed in scratch-sized pieces and at one random cut: the streamed
   digest is [hash64] of the whole. *)
let prop_content_hash_stream =
  let flush = 65536 in
  QCheck.Test.make ~name:"streamed hash = hash64 across 64 KiB flushes" ~count:40
    QCheck.(triple (int_range 1 2) (int_range (-300) 300) (pair small_nat int))
    (fun (k, delta, (cut, seed)) ->
      let rng = Rng.create seed in
      let n = (k * flush) + delta in
      let s = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
      let b = Bytes.unsafe_of_string s in
      let pieces = Content_hash.init () in
      let off = ref 0 in
      while !off < n do
        let len = min flush (n - !off) in
        Content_hash.feed pieces b !off len;
        off := !off + len
      done;
      let cut = min n (cut * 997) in
      let halves = Content_hash.init () in
      Content_hash.feed halves b 0 cut;
      Content_hash.feed halves b cut (n - cut);
      let h = Content_hash.hash64 s in
      Int64.equal (Content_hash.digest pieces) h
      && Int64.equal (Content_hash.digest halves) h)

(* The hand-written renderings against the formatter ones they replaced:
   component lengths around every decimal width (0, 9, 10, 99, 100, ...)
   and arbitrary 64-bit values, including negative ones. *)
let prop_content_hash_renderings =
  let reference components =
    String.concat ""
      (List.map (fun c -> string_of_int (String.length c) ^ ":" ^ c) components)
  in
  QCheck.Test.make ~name:"canonical and hex64 = string_of_int and %016Lx" ~count:300
    QCheck.(pair (small_list (int_bound 1200)) int64)
    (fun (lens, h) ->
      let components = List.mapi (fun i n -> String.make n (Char.chr (97 + (i mod 26)))) lens in
      String.equal (Content_hash.canonical components) (reference components)
      && String.equal (Content_hash.hex64 h) (Printf.sprintf "%016Lx" h)
      && String.equal (Content_hash.hex64 Int64.min_int) "8000000000000000"
      && String.equal (Content_hash.hex64 (-1L)) "ffffffffffffffff")

let prop_stats_running_matches_batch =
  QCheck.Test.make ~name:"running stats match batch stats" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 100) (float_bound_inclusive 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let r = Stats.running_create () in
      Array.iter (Stats.running_add r) arr;
      Float.abs (Stats.running_mean r -. Stats.mean arr) < 1e-6
      && Float.abs (Stats.running_variance r -. Stats.variance arr) < 1e-6)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "poisson large lambda" `Quick test_rng_poisson_large_lambda;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "categorical" `Quick test_rng_categorical;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments ] );
      ( "stats",
        [ Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "wilson" `Quick test_stats_wilson;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "running" `Quick test_stats_running ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/pop empty" `Quick test_heap_peek_empty;
          Alcotest.test_case "random vs sort" `Quick test_heap_random_agrees_with_sort;
          Alcotest.test_case "clear" `Quick test_heap_clear ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "self union" `Quick test_uf_self_union ] );
      ( "bitvec",
        [ Alcotest.test_case "set/get" `Quick test_bitvec_set_get;
          Alcotest.test_case "xor" `Quick test_bitvec_xor;
          Alcotest.test_case "and popcount" `Quick test_bitvec_and_popcount;
          Alcotest.test_case "iter_set" `Quick test_bitvec_iter_set;
          Alcotest.test_case "flip/clear" `Quick test_bitvec_flip_clear;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "word kernels" `Quick test_bitvec_word_kernels;
          Alcotest.test_case "ctz" `Quick test_bitvec_ctz;
          Alcotest.test_case "set_all" `Quick test_bitvec_set_all;
          Alcotest.test_case "random_into stats" `Quick test_bitvec_random_into_stats;
          Alcotest.test_case "random_into invariant" `Quick
            test_bitvec_random_into_invariant ] );
      ( "parallel",
        [ Alcotest.test_case "run order" `Quick test_parallel_run_order;
          Alcotest.test_case "exception" `Quick test_parallel_exception;
          Alcotest.test_case "monte carlo deterministic" `Quick
            test_parallel_monte_carlo_deterministic;
          Alcotest.test_case "covers all shots" `Quick
            test_parallel_monte_carlo_covers_all_shots;
          Alcotest.test_case "map_list" `Quick test_parallel_map_list;
          Alcotest.test_case "set_jobs" `Quick test_parallel_set_jobs;
          Alcotest.test_case "nested run inline" `Quick test_parallel_nested_inline;
          Alcotest.test_case "nesting flag restored" `Quick
            test_parallel_nested_flag_restored ] );
      ( "tableio",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting ] );
      ( "plot",
        [ Alcotest.test_case "spark" `Quick test_spark;
          Alcotest.test_case "lines" `Quick test_plot_lines_basic;
          Alcotest.test_case "empty/nan" `Quick test_plot_lines_empty_and_nonfinite;
          Alcotest.test_case "logy" `Quick test_plot_logy_drops_nonpositive ] );
      ( "content_hash",
        [ Alcotest.test_case "pinned values" `Quick test_content_hash_pinned;
          Alcotest.test_case "canonical injective" `Quick
            test_content_hash_canonical_injective ] );
      ( "properties",
        qc
          [ prop_heap_sorted;
            prop_bitvec_xor_involution;
            prop_uf_transitive;
            prop_content_hash_stream;
            prop_content_hash_renderings;
            prop_stats_running_matches_batch ] ) ]
