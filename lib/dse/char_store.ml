(* Wiring between Characterize's memo hook and the two-tier Cache/Store:
   this is where the paper's "characterize once, reuse everywhere" claim
   becomes a cross-process artifact.  The ambient store is installed either
   by --cache-dir (bin) or [with_store]; with no store the memo
   still deduplicates within the process through the shared memory cache. *)

(* Value codec: duration and error as raw IEEE-754 bits, then the channel's
   own versioned encoding.  Bit-exact round trip, so a warm run is
   byte-identical to a cold one. *)
let codec : Characterize.characterized Cache.codec =
  { encode =
      (fun c ->
        let b = Buffer.create 256 in
        Buffer.add_int64_le b
          (Int64.bits_of_float c.Characterize.perf.Characterize.duration);
        Buffer.add_int64_le b
          (Int64.bits_of_float c.Characterize.perf.Characterize.error);
        Buffer.add_string b (Channel.to_bytes c.Characterize.channel);
        Buffer.contents b);
    decode =
      (fun s ->
        if String.length s < 16 then None
        else
          let duration = Int64.float_of_bits (String.get_int64_le s 0) in
          let error = Int64.float_of_bits (String.get_int64_le s 8) in
          Option.map
            (fun channel ->
              { Characterize.perf = { Characterize.duration; error }; channel })
            (Channel.of_bytes (String.sub s 16 (String.length s - 16)))) }

(* One process-wide memory tier for cell characterizations, fronting
   whatever store is currently installed. *)
let cache : Characterize.characterized Cache.t = Cache.create ()

let current : Store.t option Atomic.t = Atomic.make None

let set_dir = function
  | None -> Atomic.set current None
  | Some dir -> Atomic.set current (Some (Store.open_dir dir))

let store () = Atomic.get current

let with_store s f =
  let prev = Atomic.get current in
  Atomic.set current (Some s);
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f

(* The store is re-read per memoization so worker domains spawned mid-sweep
   see the sweep's store; Cache/Store are mutex-guarded and atomic-rename
   safe, so any --jobs is fine. *)
let memo () =
  { Characterize.memoize =
      (fun ~kind ~fields ~dim f ->
        let key = Store.key ~kind ~fields in
        let disk = Option.map (fun s -> (s, codec)) (Atomic.get current) in
        Cache.find_or_compute ?disk cache ~key ~dim f) }

let stats () = Cache.stats cache
