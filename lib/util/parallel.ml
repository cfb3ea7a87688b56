(* Deterministic multicore executor.

   A tiny Domain-pool fan-out for Monte-Carlo shot loops and DSE sweeps.
   The contract that everything downstream relies on: the DECOMPOSITION of
   work (chunk layout, per-chunk RNG streams, merge order) depends only on
   the problem size and the master seed — never on the job count — so a
   given seed produces bit-identical results whether it runs on one domain
   or sixteen.  Parallelism only changes which domain executes each task.

   No external dependencies: OCaml 5 Domain + Atomic from the stdlib. *)

let env_jobs =
  match Sys.getenv_opt "HETARCH_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> min j 64
      | _ -> 1)
  | None -> 1

let current_jobs = Atomic.make env_jobs

let set_jobs j =
  if j < 1 then invalid_arg "Parallel.set_jobs: jobs must be >= 1";
  Atomic.set current_jobs (min j 64)

let jobs () = Atomic.get current_jobs

(* Lightweight self-metrics.  hetarch_util sits below hetarch_obs in the
   dependency order, so these are plain atomics that lib/obs mirrors into
   gauges at report time. *)
let tasks_total = Atomic.make 0
let domains_spawned_total = Atomic.make 0
let stats () = (Atomic.get tasks_total, Atomic.get domains_spawned_total)

(* Live queue/worker counts for the serve daemon's stats reply:
   [queue_remaining] counts submitted-but-unclaimed tasks across every
   in-flight [run]; [busy_domains] counts domains currently executing tasks
   (including the submitting domain while it works its own share).  Both
   are advisory instantaneous values, and both return to zero when every
   [run] exits, including on the exception path. *)
let queue_remaining = Atomic.make 0
let busy_domains = Atomic.make 0
let queue_stats () = (Atomic.get queue_remaining, Atomic.get busy_domains)

(* Upward hook (installed by lib/obs, which sits above this library).

   [task_context] is called once in the submitting domain per [run]; the
   closure it returns is called once in each worker domain before that
   domain claims its first task.  lib/obs uses it to seed the worker's
   span-path stack with the caller's, so spans recorded inside tasks carry
   the same caller path whether they run inline (jobs = 1) or in a worker
   domain — the determinism the folded-stack profiler depends on.  GC
   allocation counters are domain-local, so a task-body span measures
   exactly the words the task itself allocated (under the inherited caller
   path); nothing of the submitting domain's allocation leaks in, and
   per-path span counts — and, for sequential workloads, minor-word
   totals — stay identical across --jobs settings. *)
let task_context : (unit -> unit -> unit) ref = ref (fun () () -> ())

(* Set while a domain executes the tasks of a multi-domain run.  A run
   started from inside such a task goes inline (j = 1): a sweep point's
   Monte-Carlo chunks run on the domain that owns the point, so nested
   fan-outs never spawn domains beyond the outer run's.  The decomposition
   does not depend on j, so this changes no result. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* Run every thunk, returning results in task order.  Tasks are claimed from
   a shared atomic cursor, so domains stay busy under uneven task costs; the
   result array is indexed by task id, which makes the output independent of
   the claiming order.  The first exception wins and is re-raised in the
   caller after every domain joins. *)
let run ?jobs:requested tasks =
  let n = Array.length tasks in
  ignore (Atomic.fetch_and_add tasks_total n);
  let j =
    if Domain.DLS.get in_task then 1
    else max 1 (min (match requested with Some j -> j | None -> jobs ()) n)
  in
  if n = 0 then [||]
  else begin
    ignore (Atomic.fetch_and_add queue_remaining n);
    let claimed = Atomic.make 0 in
    (* Tasks abandoned by an error abort were never individually
       decremented; remove this run's whole unclaimed remainder so the
       gauge returns to its pre-run level on every exit path. *)
    let drain_queue () =
      ignore (Atomic.fetch_and_add queue_remaining (Atomic.get claimed - n))
    in
    let claim () =
      Atomic.incr claimed;
      Atomic.decr queue_remaining
    in
    if j = 1 then begin
      Atomic.incr busy_domains;
      Fun.protect
        ~finally:(fun () ->
          Atomic.decr busy_domains;
          drain_queue ())
        (fun () ->
          Array.map
            (fun f ->
              claim ();
              f ())
            tasks)
    end
    else begin
      let results = Array.make n None in
      let error = Atomic.make None in
      let next = Atomic.make 0 in
      let setup = !task_context () in
      let worker () =
        setup ();
        let outer = Domain.DLS.get in_task in
        Domain.DLS.set in_task true;
        Atomic.incr busy_domains;
        Fun.protect
          ~finally:(fun () ->
            Atomic.decr busy_domains;
            Domain.DLS.set in_task outer)
          (fun () ->
            let continue = ref true in
            while !continue do
              let i = Atomic.fetch_and_add next 1 in
              if i >= n || Atomic.get error <> None then continue := false
              else begin
                claim ();
                match tasks.(i) () with
                | v -> results.(i) <- Some v
                | exception e -> ignore (Atomic.compare_and_set error None (Some e))
              end
            done)
      in
      ignore (Atomic.fetch_and_add domains_spawned_total (j - 1));
      let domains = Array.init (j - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains;
      drain_queue ();
      (match Atomic.get error with Some e -> raise e | None -> ());
      Array.map (function Some v -> v | None -> assert false) results
    end
  end

let map ?jobs f xs = run ?jobs (Array.map (fun x () -> f x) xs)

let map_list ?jobs f xs =
  Array.to_list (map ?jobs f (Array.of_list xs))

(* Fixed-order stream splitting: chunk [i] always receives the [i]-th split
   of the master generator, regardless of execution schedule. *)
let split_rngs rng n =
  let out = Array.make (max n 0) rng in
  for i = 0 to n - 1 do
    out.(i) <- Rng.split rng
  done;
  out

let default_chunk = 256

let chunk_count shots = (shots + default_chunk - 1) / default_chunk

(* Deterministic Monte-Carlo fan-out: [f chunk_rng chunk_shots] produces a
   partial result; partials merge left-to-right in chunk order.  The chunk
   size is part of the determinism contract — changing it changes the RNG
   streams — so it is one fixed constant. *)
let monte_carlo ?jobs ~rng ~shots ~init ~merge f =
  if shots < 0 then invalid_arg "Parallel.monte_carlo: shots must be >= 0";
  if shots = 0 then init
  else begin
    let nchunks = chunk_count shots in
    let rngs = split_rngs rng nchunks in
    let tasks =
      Array.init nchunks (fun i ->
          let size =
            if i = nchunks - 1 then shots - ((nchunks - 1) * default_chunk)
            else default_chunk
          in
          fun () -> f rngs.(i) size)
    in
    Array.fold_left merge init (run ?jobs tasks)
  end

let monte_carlo_count ?jobs ~rng ~shots f =
  monte_carlo ?jobs ~rng ~shots ~init:0 ~merge:( + ) f
