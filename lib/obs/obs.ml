let now_ns () = Monotonic_clock.now ()

(* ------------------------------------------------------------------ json *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

  (* Most keys and strings need no escaping: return those as they are, and
     build a copy only for the rest. *)
  let escape s =
    if not (String.exists needs_escape s) then s
    else begin
      let b = Buffer.create (String.length s + 2) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | '\r' -> Buffer.add_string b "\\r"
          | '\t' -> Buffer.add_string b "\\t"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    end

  let fmt_float x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
    else if Float.is_nan x then "null"
    else if x = Float.infinity then "1e999"
    else if x = Float.neg_infinity then "-1e999"
    else Printf.sprintf "%.17g" x

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float x -> Buffer.add_string b (fmt_float x)
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            emit b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    emit b t;
    Buffer.contents b

  (* Strict recursive-descent parser over a string cursor. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "Obs.Json.parse: %s at %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                (* Four hex digits, validated strictly (int_of_string would
                   also accept underscores and sign characters).  [!pos] is
                   left on the last consumed digit for the caller's [incr]. *)
                let read_hex4 () =
                  if !pos + 4 >= n then fail "bad \\u escape";
                  let v = ref 0 in
                  for k = 1 to 4 do
                    let d =
                      match s.[!pos + k] with
                      | '0' .. '9' as c -> Char.code c - Char.code '0'
                      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                      | _ -> fail "bad \\u escape"
                    in
                    v := (!v lsl 4) lor d
                  done;
                  pos := !pos + 4;
                  !v
                in
                let code = read_hex4 () in
                (* A high surrogate followed by \uDC00-\uDFFF is one astral
                   code point (JSON's UTF-16 escape convention); a lone
                   surrogate passes through as-is, mirroring the emitter. *)
                let code =
                  if code >= 0xD800 && code <= 0xDBFF
                     && !pos + 2 < n
                     && s.[!pos + 1] = '\\'
                     && s.[!pos + 2] = 'u'
                  then begin
                    let save = !pos in
                    pos := !pos + 2;
                    let low = read_hex4 () in
                    if low >= 0xDC00 && low <= 0xDFFF then
                      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                    else begin
                      pos := save;
                      code
                    end
                  end
                  else code
                in
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else if code < 0x10000 then begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail "bad escape");
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elems [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let to_float = function
    | Int i -> float_of_int i
    | Float f -> f
    | _ -> failwith "Obs.Json.to_float: not a number"

  let to_int = function
    | Int i -> i
    | Float f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
        int_of_float f
    | _ -> failwith "Obs.Json.to_int: not an integer"
end

(* Strict field readers shared by the artifact decoders: a missing or
   mistyped field raises [Failure] naming it, and [decoding] prefixes the
   message with the decoder's name. *)
module Field = struct
  let fail fmt = Printf.ksprintf failwith fmt
  let decoding who f j = try f j with Failure m -> failwith (who ^ ": " ^ m)

  let get what extract name j =
    match Option.bind (Json.member name j) extract with
    | Some v -> v
    | None -> fail "missing %s %s" what name

  let as_int = function Json.Int i -> Some i | _ -> None

  let as_float = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | _ -> None

  let str = get "string" (function Json.String s -> Some s | _ -> None)
  let int = get "integer" as_int
  let float = get "number" as_float
  let bool = get "boolean" (function Json.Bool b -> Some b | _ -> None)
  let list = get "array" (function Json.List xs -> Some xs | _ -> None)
  let obj = get "object" (function Json.Obj kvs -> Some kvs | _ -> None)

  (* JSON null is an undefined number; an absent field is still an error. *)
  let float_opt name j =
    if Json.member name j = Some Json.Null then None else Some (float name j)

  (* An object of named numbers, e.g. counters or rates. *)
  let table what extract name j =
    List.map
      (fun (k, v) ->
        match extract v with Some x -> (k, x) | None -> fail "non-%s %s.%s" what name k)
      (obj name j)

  let ints = table "integer" as_int
  let floats = table "numeric" as_float

  let schema want j =
    match Json.member "schema" j with
    | Some (Json.String s) when s = want -> ()
    | Some (Json.String s) -> fail "schema %s (want %s)" s want
    | _ -> fail "missing schema (want %s)" want
end

(* Torn-tail-tolerant JSONL fold: blank and unparsable lines — the
   truncated final record a killed writer leaves behind — are skipped.
   The trace reader and the collect ledger both replay through it. *)
let fold_jsonl path f init =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line when String.trim line = "" -> go acc
        | line -> (
            match Json.parse line with
            | j -> go (f acc j)
            | exception Failure _ -> go acc)
      in
      go init)

(* ------------------------------------------------------------------- run *)

(* Process-level run identity.  The snapshot and the Chrome-trace export a
   process writes carry the same 64-bit run id.  The id hashes argv, pid,
   wall-clock and monotonic start time; HETARCH_RUN_ID (16 hex digits)
   overrides it for reproducible fixtures.  The shard label ("shard0/3")
   is set once at startup by `collect --shard` and stamped into the same
   artifacts. *)

module Run = struct
  let started_unix = Unix.gettimeofday ()
  let shard_label = ref ""

  let set_shard s = shard_label := s
  let shard () = !shard_label

  let is_id s =
    String.length s = 16 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

  let computed_id =
    lazy
      (match Sys.getenv_opt "HETARCH_RUN_ID" with
      | Some s when is_id s -> s
      | _ ->
          Content_hash.of_components
            ("hetarch-run/1"
            :: string_of_int (Unix.getpid ())
            :: Printf.sprintf "%.17g" started_unix
            :: Int64.to_string (now_ns ())
            :: Array.to_list Sys.argv))

  let id () = Lazy.force computed_id

  (* The run identity every observability document embeds under "run"
     (trace metadata: in its args). *)
  type stamp = { run_id : string; shard : string }

  let stamp () = { run_id = id (); shard = shard () }
  let stamp_fields s = [ ("id", Json.String s.run_id); ("shard", Json.String s.shard) ]
  let stamp_of_json j = { run_id = Field.str "id" j; shard = Field.str "shard" j }
end

(* --------------------------------------------------------------- metrics *)

(* Domain safety: shot loops now fan out across Domains (Parallel), and any
   of them may bump a counter or observe a histogram.  Counters and gauges
   are atomics (lock-free); histograms and the trace ring take a mutex per
   update; every registry serialises interning behind its own mutex so
   concurrent [create] calls from worker domains race neither the Hashtbl
   nor each other's handles. *)

let registered locked registry name make =
  Mutex.protect locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some t -> t
      | None ->
          let t = make () in
          Hashtbl.add registry name t;
          t)

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let registry_lock = Mutex.create ()

  let create name =
    registered registry_lock registry name (fun () -> { name; v = Atomic.make 0 })

  let incr t = Atomic.incr t.v
  let add t n = ignore (Atomic.fetch_and_add t.v n)
  let value t = Atomic.get t.v
  let name t = t.name
end

module Gauge = struct
  type t = { name : string; v : float Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let registry_lock = Mutex.create ()

  let create name =
    registered registry_lock registry name (fun () -> { name; v = Atomic.make 0. })

  let set t x = Atomic.set t.v x

  let rec update t f =
    let old = Atomic.get t.v in
    let next = f old in
    if old <> next && not (Atomic.compare_and_set t.v old next) then update t f

  let add t x = update t (fun v -> v +. x)
  let set_max t x = update t (fun v -> if x > v then x else v)
  let value t = Atomic.get t.v
  let name t = t.name
end

module Histogram = struct
  type t = {
    name : string;
    counts : int array;  (* one per bound of [layout] *)
    mutable over : int;
    welford : Stats.running;
    mutable lo : float;
    mutable hi : float;
    lock : Mutex.t;  (* guards every mutable field above *)
  }

  (* The one bucket layout, 1 ns .. 100 s in thirds of a decade: fine
     enough to rank hot paths, coarse enough to stay 34 ints.  Every
     histogram uses it, so a snapshot stores the counts alone. *)
  let layout = Array.init 34 (fun i -> 1e-9 *. (10. ** (float_of_int i /. 3.)))
  let bounds () = Array.copy layout

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let registry_lock = Mutex.create ()

  let create name =
    registered registry_lock registry name (fun () ->
        { name;
          counts = Array.make (Array.length layout) 0;
          over = 0;
          welford = Stats.running_create ();
          lo = infinity;
          hi = neg_infinity;
          lock = Mutex.create () })

  let observe t x =
    Mutex.protect t.lock (fun () ->
        Stats.running_add t.welford x;
        if x < t.lo then t.lo <- x;
        if x > t.hi then t.hi <- x;
        (* Binary search for the first bound >= x. *)
        let nb = Array.length layout in
        if x > layout.(nb - 1) then t.over <- t.over + 1
        else begin
          let lo = ref 0 and hi = ref (nb - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if x <= layout.(mid) then hi := mid else lo := mid + 1
          done;
          t.counts.(!lo) <- t.counts.(!lo) + 1
        end)

  (* Bucket-interpolated quantile over raw bucket state: walk the
     cumulative counts to the bucket holding rank q*total, then interpolate
     linearly inside it.  Bucket edges are clamped to the observed min/max,
     so estimates never leave the sampled range; the overflow bucket spans
     (last bound, max].  Readers call it on a captured [Snapshot.hist]. *)
  let bucket_quantile ~counts ~overflow ~lo ~hi q =
    if not (q >= 0. && q <= 1.) then invalid_arg "Obs.Histogram.quantile";
    let total = Array.fold_left ( + ) overflow counts in
    if total = 0 then Float.nan
    else if total = 1 || lo = hi then
      (* Every observation was the same value: report it exactly rather
         than interpolating between clamped bucket edges, which can return
         a point never observed. *)
      lo
    else begin
      let target = q *. float_of_int total in
      let nb = Array.length layout in
      let rec find i cum =
        if i > nb then hi
        else begin
          let c = if i = nb then overflow else counts.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= target then begin
            let lo_edge = if i = 0 then lo else Float.max lo layout.(i - 1) in
            let hi_edge = if i = nb then hi else Float.min hi layout.(i) in
            let frac = Float.max 0. ((target -. cum) /. float_of_int c) in
            lo_edge +. (frac *. (hi_edge -. lo_edge))
          end
          else find (i + 1) cum'
        end
      in
      Float.min hi (Float.max lo (find 0 0.))
    end

  let name t = t.name
end

(* --------------------------------------------------------------- tracing *)

module Trace = struct
  type span = {
    name : string;
    start_ns : int64;
    dur_ns : int64;
    depth : int;
    domain : int;  (* recording domain id *)
    path : string;  (* caller path incl. self, ";"-separated *)
    minor_w : int;  (* words allocated on this domain inside the span window *)
    promoted_w : int;
    major_w : int;
    attrs : (string * string) list;
  }

  let t0 = now_ns ()

  (* The ring holds span [k] at slot [k mod capacity].  It is allocated
     on demand: empty until the first span, then [first_slots] slots,
     doubled while every span recorded so far still fits, up to
     [capacity].  Until it is full span [k] sits at slot [k], so growing
     copies the slots in place.  The ring grows while spans are open, so it
     must stay out of their minor-word windows: 512 slots is past the
     runtime's largest minor-heap block (256 words), so each array goes
     straight to the major heap. *)
  let first_slots = 512
  let capacity = ref 65536
  let ring : span option array ref = ref [||]
  let next = ref 0 (* total spans ever recorded *)

  (* Caller-path-keyed aggregates (count, total_ns, minor_w, promoted_w,
     major_w): the profiler's input, and grouped by last segment the
     per-name totals ([Snapshot.span_totals]).  Unlike the ring, these never
     evict, so self-time trees stay exact over arbitrarily long runs. *)
  let path_totals : (string, int * int64 * int * int * int) Hashtbl.t =
    Hashtbl.create 64

  (* One lock for ring + path totals + capacity swaps; span recording is far off
     the per-shot hot path (spans wrap whole experiments), so contention is
     negligible.  The enclosing-span path is tracked per domain (innermost
     first); [Parallel.task_context] seeds a worker domain's stack with the
     submitting caller's, so spans recorded inside fanned-out tasks carry
     the same caller path at any job count. *)
  let lock = Mutex.create ()
  let stack_key = Domain.DLS.new_key (fun () -> ref ([] : string list))

  (* Minor words the process had allocated when its first root span opened:
     library initialisers and argument parsing, which no span can
     attribute.  What the span tree accounts for is the process counter
     minus this. *)
  let g_startup_words = Gauge.create "process.startup_minor_words"
  let root_opened = Atomic.make false

  let set_capacity c =
    if c <= 0 then invalid_arg "Obs.Trace.set_capacity";
    Mutex.protect lock (fun () ->
        capacity := c;
        ring := [||];
        next := 0)

  let add tbl key (c, t, mw, pw, jw) =
    let count, total, mw', pw', jw' =
      Option.value ~default:(0, 0L, 0, 0, 0) (Hashtbl.find_opt tbl key)
    in
    Hashtbl.replace tbl key (count + c, Int64.add total t, mw' + mw, pw' + pw, jw' + jw)

  let rows tbl =
    Hashtbl.fold (fun key (c, t, mw, pw, jw) acc -> (key, c, t, mw, pw, jw) :: acc) tbl []
    |> List.sort compare

  let record s =
    Mutex.protect lock (fun () ->
        let len = Array.length !ring in
        if !next = len && len < !capacity then begin
          let grown = Array.make (min !capacity (max first_slots (2 * len))) None in
          Array.blit !ring 0 grown 0 len;
          ring := grown
        end;
        !ring.(!next mod !capacity) <- Some s;
        incr next;
        add path_totals s.path (1, s.dur_ns, s.minor_w, s.promoted_w, s.major_w))

  let with_span ?(attrs = []) name f =
    let start = now_ns () in
    let stack = Domain.DLS.get stack_key in
    let parent = !stack in
    let depth = List.length parent in
    stack := name :: parent;
    let path = String.concat ";" (List.rev !stack) in
    (* Allocation window.  GC word counters are domain-local and monotone;
       the entry samples are taken after every piece of span setup (stack
       push, path concat) so only the thunk's own allocation — plus the
       constant cost of the entry samples' own boxes — lands in the window.
       Minor words come from [Gc.minor_words], which reads the young
       pointer directly and is exact mid-collection-interval; on OCaml 5
       [quick_stat]'s minor_words field only refreshes at collection
       boundaries and would report 0 for most spans.  Promoted/major words
       only ever change at collections, so [quick_stat] is fine for them.
       The exit samples are the first thing [finish] does, so exit-side
       bookkeeping (span record, hashtable fold) stays outside. *)
    let gc0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    if depth = 0 && Atomic.compare_and_set root_opened false true then
      Gauge.set g_startup_words mw0;
    let finish () =
      let mw1 = Gc.minor_words () in
      let gc1 = Gc.quick_stat () in
      stack := parent;
      let stop = now_ns () in
      let dw a b = max 0 (int_of_float (a -. b)) in
      record
        { name;
          start_ns = Int64.sub start t0;
          dur_ns = Int64.sub stop start;
          depth;
          domain = (Domain.self () :> int);
          path;
          minor_w = dw mw1 mw0;
          promoted_w = dw gc1.Gc.promoted_words gc0.Gc.promoted_words;
          major_w = dw gc1.Gc.major_words gc0.Gc.major_words;
          attrs }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

  let spans () =
    Mutex.protect lock (fun () ->
        let cap = !capacity in
        let first = max 0 (!next - cap) in
        List.filter_map
          (fun i -> !ring.(i mod cap))
          (List.init (!next - first) (fun k -> first + k)))

  let recorded () = Mutex.protect lock (fun () -> !next)

  let by_path () = Mutex.protect lock (fun () -> rows path_totals)

  (* The trace file format, one JSON object per line, written by [export]
     and read back by [read]: a "hetarch.run" metadata event (ph "M")
     carrying the run stamp, then one Chrome-trace complete event (ph "X")
     per span.  [tid] is the recording domain, so Perfetto lays each
     domain's spans on its own track; nesting depth, the caller path and
     the allocation words travel in [args]. *)
  type span_event = {
    ev_name : string;
    ev_ts_us : float;
    ev_dur_us : float;
    ev_pid : int;
    ev_tid : int;
    ev_depth : int;
    ev_path : string;
    ev_minor_w : int;
    ev_promoted_w : int;
    ev_major_w : int;
    ev_attrs : (string * string) list;
  }

  type event = Run of { pid : int; run : Run.stamp } | Span of span_event

  let event_to_json = function
    | Run { pid; run } ->
        Json.Obj
          [ ("name", Json.String "hetarch.run");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
            ("args", Json.Obj (Run.stamp_fields run)) ]
    | Span e ->
        Json.Obj
          [ ("name", Json.String e.ev_name);
            ("ph", Json.String "X");
            ("ts", Json.Float e.ev_ts_us);
            ("dur", Json.Float e.ev_dur_us);
            ("pid", Json.Int e.ev_pid);
            ("tid", Json.Int e.ev_tid);
            ( "args",
              Json.Obj
                (("depth", Json.Int e.ev_depth)
                :: ("path", Json.String e.ev_path)
                :: ("minor_w", Json.Int e.ev_minor_w)
                :: ("promoted_w", Json.Int e.ev_promoted_w)
                :: ("major_w", Json.Int e.ev_major_w)
                :: List.map (fun (k, v) -> (k, Json.String v)) e.ev_attrs) ) ]

  let span_args = [ "depth"; "path"; "minor_w"; "promoted_w"; "major_w" ]

  let event_of_json =
    Field.decoding "Obs.Trace.event_of_json" (fun j ->
        let ph =
          match Json.member "ph" j with
          | Some (Json.String ph) -> ph
          | _ -> Field.fail "not a trace event (no ph)"
        in
        let name = Field.str "name" j and args = Json.Obj (Field.obj "args" j) in
        match (ph, name) with
        | "M", "hetarch.run" -> Run { pid = Field.int "pid" j; run = Run.stamp_of_json args }
        | "X", name ->
            Span
              { ev_name = name;
                ev_ts_us = Field.float "ts" j;
                ev_dur_us = Field.float "dur" j;
                ev_pid = Field.int "pid" j;
                ev_tid = Field.int "tid" j;
                ev_depth = Field.int "depth" args;
                ev_path = Field.str "path" args;
                ev_minor_w = Field.int "minor_w" args;
                ev_promoted_w = Field.int "promoted_w" args;
                ev_major_w = Field.int "major_w" args;
                ev_attrs =
                  List.filter_map
                    (fun (k, _) ->
                      if List.mem k span_args then None else Some (k, Field.str k args))
                    (Field.obj "args" j) }
        | ph, name -> Field.fail "unsupported event %s (ph %s)" name ph)

  let export ~path =
    let span_event s =
      Span
        { ev_name = s.name;
          ev_ts_us = Int64.to_float s.start_ns /. 1e3;
          ev_dur_us = Int64.to_float s.dur_ns /. 1e3;
          ev_pid = 0;
          ev_tid = s.domain;
          ev_depth = s.depth;
          ev_path = s.path;
          ev_minor_w = s.minor_w;
          ev_promoted_w = s.promoted_w;
          ev_major_w = s.major_w;
          ev_attrs = s.attrs }
    in
    let meta = Run { pid = 0; run = Run.stamp () } in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun ev ->
            output_string oc (Json.to_string (event_to_json ev));
            output_char oc '\n')
          (meta :: List.map span_event (spans ())))

  let read path = List.rev (fold_jsonl path (fun acc j -> event_of_json j :: acc) [])

  let reset () =
    Mutex.protect lock (fun () ->
        ring := [||];
        next := 0;
        Hashtbl.reset path_totals);
    Domain.DLS.get stack_key := []
end

(* ------------------------------------------------------------- profiling *)

(* Call-tree profiler over the caller-path-keyed span aggregates.  The tree
   is built from [Trace.by_path] (or any (path, count, cum_ns, minor_w,
   promoted_w, major_w) list, e.g. re-aggregated from an exported trace
   file): cumulative time is summed per exact caller path, and self time is
   cumulative minus the cumulative time of direct children — so self times
   telescope: they sum exactly to the root spans' cumulative time.  Minor
   allocation telescopes by the identical rule: [self_w] is a node's
   cumulative minor words minus its direct children's, so an allocation
   flamegraph attributes every word to the innermost span that allocated
   it.  All orderings are lexicographic by path, making every rendering
   deterministic regardless of the completion order spans were recorded in
   (which differs across worker domains). *)

module Profile = struct
  type node = {
    path : string;
    name : string;
    count : int;
    cum_ns : int64;
    self_ns : int64;
    cum_w : int;  (* cumulative minor words under this path *)
    self_w : int;  (* cum_w minus direct children's cum_w, clamped >= 0 *)
    children : node list;
  }

  let of_totals totals =
    (* Split paths into segment lists and build the trie level by level.
       A path can appear without its parent (the parent span still open at
       export time, or evicted from an offline trace's ring): such implicit
       interior nodes get zero count/cum and zero self. *)
    let entries =
      List.map
        (fun (path, c, t, mw, _, _) -> (String.split_on_char ';' path, c, t, mw))
        totals
    in
    let rec build prefix entries =
      (* Group by head segment, preserving nothing but content. *)
      let groups : (string, (string list * int * int64 * int) list ref) Hashtbl.t
          =
        Hashtbl.create 16
      in
      let order = ref [] in
      List.iter
        (fun (segs, c, t, w) ->
          match segs with
          | [] -> ()
          | head :: rest ->
              let cell =
                match Hashtbl.find_opt groups head with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add groups head r;
                    order := head :: !order;
                    r
              in
              cell := (rest, c, t, w) :: !cell)
        entries;
      List.sort compare !order
      |> List.map (fun name ->
             let members = !(Hashtbl.find groups name) in
             let path = if prefix = "" then name else prefix ^ ";" ^ name in
             let count, cum, cum_w =
               List.fold_left
                 (fun (c, t, w) (segs, c', t', w') ->
                   if segs = [] then (c + c', Int64.add t t', w + w') else (c, t, w))
                 (0, 0L, 0) members
             in
             let deeper =
               List.filter (fun (segs, _, _, _) -> segs <> []) members
             in
             let children = build path deeper in
             let child_cum =
               List.fold_left (fun acc n -> Int64.add acc n.cum_ns) 0L children
             in
             let child_w =
               List.fold_left (fun acc n -> acc + n.cum_w) 0 children
             in
             (* Negative only for implicit nodes (count 0) or clock jitter;
                clamp so folded weights stay valid.  Allocation can also go
                negative on a real node when children ran on other domains
                (their words were never in the parent domain's window). *)
             let self =
               if count = 0 then 0L
               else if Int64.compare child_cum cum > 0 then 0L
               else Int64.sub cum child_cum
             in
             let self_w = if count = 0 then 0 else max 0 (cum_w - child_w) in
             { path; name; count; cum_ns = cum; self_ns = self; cum_w; self_w;
               children })
    in
    build "" entries

  let tree () = of_totals (Trace.by_path ())

  (* A trace file's spans, one total each ([of_totals] sums a repeated
     path).  Durations on disk are Chrome-trace microseconds, so re-read
     times are µs-granular; counts, words and tree shape are exact. *)
  let of_events events =
    of_totals
      (List.filter_map
         (function
           | Trace.Span e ->
               Some
                 ( e.Trace.ev_path, 1, Int64.of_float (e.Trace.ev_dur_us *. 1e3),
                   e.Trace.ev_minor_w, e.Trace.ev_promoted_w, e.Trace.ev_major_w )
           | Trace.Run _ -> None)
         events)

  let rec fold_nodes f acc nodes =
    List.fold_left (fun acc n -> fold_nodes f (f acc n) n.children) acc nodes

  (* Folded-stack text (flamegraph.pl / speedscope "folded" input): one
     [path weight] line per node with a positive weight, sorted by path.
     [`Self] weights are wall-clock and vary run to run; [`Count] weights
     depend only on the span structure, so they are byte-identical across
     --jobs settings — that is what the CI smoke diffs.  [`Alloc]
     weights by self minor words: exact (not sampled), so for a workload
     whose spans run sequentially the allocation flamegraph is
     byte-identical across runs and --jobs settings too. *)
  let folded ?(weight = `Self) nodes =
    let b = Buffer.create 256 in
    let lines =
      fold_nodes
        (fun acc n ->
          let w =
            match weight with
            | `Self -> Int64.to_int n.self_ns
            | `Count -> n.count
            | `Alloc -> n.self_w
          in
          if w > 0 then (n.path, w) :: acc else acc)
        [] nodes
      |> List.sort compare
    in
    List.iter (fun (path, w) -> Printf.bprintf b "%s %d\n" path w) lines;
    Buffer.contents b

  (* Flattened nodes ranked by the sort key (desc), path as tiebreak. *)
  let top ?(sort = `Self) ?limit nodes =
    let all = fold_nodes (fun acc n -> n :: acc) [] nodes in
    let sorted =
      List.sort
        (fun a b ->
          let c =
            match sort with
            | `Self -> Int64.compare b.self_ns a.self_ns
            | `Cum -> Int64.compare b.cum_ns a.cum_ns
            | `Count -> compare b.count a.count
            | `Alloc -> compare b.self_w a.self_w
          in
          match c with 0 -> compare a.path b.path | c -> c)
        all
    in
    match limit with
    | None -> sorted
    | Some k -> List.filteri (fun i _ -> i < k) sorted

  let top_table ?(sort = `Self) ?(limit = 20) nodes =
    let total_self =
      fold_nodes (fun acc n -> Int64.add acc n.self_ns) 0L nodes
    in
    let b = Buffer.create 256 in
    Printf.bprintf b "%12s %10s %12s %6s %14s  %s\n" "self_ms" "count" "cum_ms"
      "self%" "self_words" "path";
    List.iter
      (fun n ->
        let ms ns = Int64.to_float ns /. 1e6 in
        let pct =
          if Int64.compare total_self 0L > 0 then
            100. *. Int64.to_float n.self_ns /. Int64.to_float total_self
          else 0.
        in
        Printf.bprintf b "%12.3f %10d %12.3f %6.2f %14d  %s\n" (ms n.self_ns)
          n.count (ms n.cum_ns) pct n.self_w n.path)
      (top ~sort ~limit nodes);
    Buffer.contents b
end

(* ------------------------------------------------------------- snapshots *)

(* The one captured form of a process's obs state: what --metrics writes.
   It carries the raw state, each fact once — integer bucket counts in the
   one [Histogram] layout, Welford (n, mean, m2) triples, per-caller-path
   aggregates (from which the profile trie and the per-name totals are
   rebuilt exactly) — and leaves every derived quantity (quantiles,
   variance, self time, per-name totals) to readers.  Serialization is
   canonical — sections sorted by name, floats via the round-tripping
   emitter — so parse ∘ serialize is the identity on bytes and the content
   hash is well-defined. *)

module Snapshot = struct
  let schema = "hetarch.snapshot/6"

  type hist = {
    h_counts : int array;  (* one per bound of [Histogram.layout] *)
    h_overflow : int;
    h_count : int;
    h_mean : float;
    h_m2 : float;  (* Welford sum of squared deviations *)
    h_min : float;
    h_max : float;
  }

  type process = {
    p_minor_collections : int;
    p_major_collections : int;
    p_compactions : int;
    p_minor_words : float;
    p_promoted_words : float;
    p_major_words : float;
    p_heap_words : int;
    p_top_heap_words : int;
  }

  type task_progress = {
    tp_id : string;
    tp_kind : string;
    tp_shots : int;
    tp_errors : int;
    tp_resumed : int;  (* shots replayed from a ledger, not sampled now *)
    tp_rel_halfwidth : float;  (* nan when undefined (no errors yet) *)
    tp_remaining : int;  (* shots to the task's ceiling; 0 once stopped *)
    tp_done : bool;
  }

  type campaign = {
    c_done : int;
    c_total : int;
    c_shots : int;  (* merged, incl. resumed *)
    c_new_shots : int;  (* sampled by this run *)
    c_rate : float;  (* new shots per second *)
    c_remaining : int;
    c_eta_s : float option;  (* None until the rate is measurable *)
    c_tasks : task_progress list;
  }

  type t = {
    run : Run.stamp;
    argv : string list;
    started_unix : float;
    wall_seconds : float;
    jobs : int;
    counters : (string * int) list;  (* sorted by name *)
    gauges : (string * float) list;
    histograms : (string * hist) list;
    (* profile trie: (path, count, total_ns, minor_w, promoted_w, major_w) *)
    paths : (string * int * int64 * int * int * int) list;
    process : process;
    campaign : campaign option;  (* only while a provider is set *)
  }

  let quantile h q =
    Histogram.bucket_quantile ~counts:h.h_counts ~overflow:h.h_overflow ~lo:h.h_min
      ~hi:h.h_max q

  (* Per span name: the path aggregates grouped by leaf segment, the span's
     own name. *)
  let span_totals t =
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun (path, c, ns, mw, pw, jw) ->
        let name =
          match String.rindex_opt path ';' with
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
          | None -> path
        in
        Trace.add by_name name (c, ns, mw, pw, jw))
      t.paths;
    Trace.rows by_name

  (* The campaign progress provider and the instant it was set, the zero
     of the campaign's rate. *)
  let provider : ((unit -> task_progress list) * int64) option Atomic.t = Atomic.make None

  let set_campaign p = Atomic.set provider (Option.map (fun f -> (f, now_ns ())) p)

  let campaign () =
    match Atomic.get provider with
    | None -> None
    | Some (f, t0) ->
        let tasks = f () in
        let elapsed = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
        let sum g = List.fold_left (fun a t -> a + g t) 0 tasks in
        let new_shots = sum (fun t -> t.tp_shots - t.tp_resumed) in
        let remaining = sum (fun t -> t.tp_remaining) in
        let rate = if elapsed > 0. then float_of_int new_shots /. elapsed else 0. in
        Some
          { c_done = List.length (List.filter (fun t -> t.tp_done) tasks);
            c_total = List.length tasks;
            c_shots = sum (fun t -> t.tp_shots);
            c_new_shots = new_shots;
            c_rate = rate;
            c_remaining = remaining;
            c_eta_s = (if rate > 0. then Some (float_of_int remaining /. rate) else None);
            c_tasks = tasks }

  let sorted_fold registry f =
    Hashtbl.fold (fun name v acc -> (name, f v) :: acc) registry []
    |> List.sort compare

  (* hetarch_util sits below this library, so the Parallel executor keeps
     plain atomics; copy them into gauges whenever a snapshot is cut. *)
  let g_parallel_tasks = Gauge.create "parallel.tasks_total"
  let g_parallel_domains = Gauge.create "parallel.domains_spawned_total"

  let capture () =
    (* The GC/process sample comes first, before any (allocation-heavy)
       section is built: its minor_words is what span allocation
       attribution reconciles against, so the capture's own cost must not
       land between the last span and the sample.  [Gc.minor_words], not
       [quick_stat]'s field, which only refreshes at collection boundaries
       on OCaml 5. *)
    let minor_words = Gc.minor_words () in
    let st = Gc.quick_stat () in
    let wall_seconds = Int64.to_float (Int64.sub (now_ns ()) Trace.t0) /. 1e9 in
    let process =
      { p_minor_collections = st.Gc.minor_collections;
        p_major_collections = st.Gc.major_collections;
        p_compactions = st.Gc.compactions;
        p_minor_words = minor_words;
        p_promoted_words = st.Gc.promoted_words;
        p_major_words = st.Gc.major_words;
        p_heap_words = st.Gc.heap_words;
        p_top_heap_words = st.Gc.top_heap_words }
    in
    let tasks, domains = Parallel.stats () in
    Gauge.set g_parallel_tasks (float_of_int tasks);
    Gauge.set g_parallel_domains (float_of_int domains);
    let histograms =
      sorted_fold Histogram.registry (fun h ->
          Mutex.protect h.Histogram.lock (fun () ->
              { h_counts = Array.copy h.Histogram.counts;
                h_overflow = h.Histogram.over;
                h_count = Stats.running_count h.Histogram.welford;
                h_mean = Stats.running_mean h.Histogram.welford;
                h_m2 = Stats.running_m2 h.Histogram.welford;
                h_min = h.Histogram.lo;
                h_max = h.Histogram.hi }))
    in
    { run = Run.stamp ();
      argv = Array.to_list Sys.argv;
      started_unix = Run.started_unix;
      wall_seconds;
      jobs = Parallel.jobs ();
      counters = sorted_fold Counter.registry Counter.value;
      gauges = sorted_fold Gauge.registry Gauge.value;
      histograms;
      paths = Trace.by_path ();
      process;
      campaign = campaign () }

  let hist_json h =
    Json.Obj
      [ ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.h_counts)));
        ("overflow", Json.Int h.h_overflow);
        ("count", Json.Int h.h_count);
        ("mean", Json.Float h.h_mean);
        ("m2", Json.Float h.h_m2);
        ("min", Json.Float h.h_min);
        ("max", Json.Float h.h_max) ]

  let agg_json (name, count, total_ns, minor_w, promoted_w, major_w) =
    ( name,
      Json.Obj
        [ ("count", Json.Int count);
          ("total_ns", Json.Int (Int64.to_int total_ns));
          ("minor_w", Json.Int minor_w);
          ("promoted_w", Json.Int promoted_w);
          ("major_w", Json.Int major_w) ] )

  let process_json p =
    Json.Obj
      [ ("minor_collections", Json.Int p.p_minor_collections);
        ("major_collections", Json.Int p.p_major_collections);
        ("compactions", Json.Int p.p_compactions);
        ("minor_words", Json.Float p.p_minor_words);
        ("promoted_words", Json.Float p.p_promoted_words);
        ("major_words", Json.Float p.p_major_words);
        ("heap_words", Json.Int p.p_heap_words);
        ("top_heap_words", Json.Int p.p_top_heap_words) ]

  (* [tp_resumed] is not on the wire: a decoded task carries 0. *)
  let campaign_json c =
    let task t =
      Json.Obj
        [ ("id", Json.String t.tp_id);
          ("kind", Json.String t.tp_kind);
          ("shots", Json.Int t.tp_shots);
          ("errors", Json.Int t.tp_errors);
          ("rel_halfwidth", Json.Float t.tp_rel_halfwidth);
          ("remaining", Json.Int t.tp_remaining);
          ("done", Json.Bool t.tp_done) ]
    in
    Json.Obj
      [ ("tasks_done", Json.Int c.c_done);
        ("tasks", Json.Int c.c_total);
        ("shots", Json.Int c.c_shots);
        ("new_shots", Json.Int c.c_new_shots);
        ("shots_per_s", Json.Float c.c_rate);
        ("remaining_shots", Json.Int c.c_remaining);
        ("eta_s", Json.Float (Option.value ~default:nan c.c_eta_s));
        ("task_progress", Json.List (List.map task c.c_tasks)) ]

  (* Every field except the content hash itself; the hash is computed over
     this serialization, so any bit of state change changes the hash.  The
     campaign section is written only when there is one, so snapshots of
     runs without a campaign keep their bytes. *)
  let body t =
    [ ("schema", Json.String schema);
      ( "run",
        Json.Obj
          (Run.stamp_fields t.run
          @ [ ("argv", Json.List (List.map (fun a -> Json.String a) t.argv));
              ("started_unix", Json.Float t.started_unix);
              ("wall_seconds", Json.Float t.wall_seconds);
              ("jobs", Json.Int t.jobs) ]) );
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) t.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) t.gauges));
      ("histograms", Json.Obj (List.map (fun (n, h) -> (n, hist_json h)) t.histograms));
      ("paths", Json.Obj (List.map agg_json t.paths));
      ("process", process_json t.process) ]
    @ List.map (fun c -> ("campaign", campaign_json c)) (Option.to_list t.campaign)

  let content_hash t =
    Content_hash.of_components [ schema; Json.to_string (Json.Obj (body t)) ]

  let to_json t =
    Json.Obj (body t @ [ ("content_hash", Json.String (content_hash t)) ])

  let of_json =
    Field.decoding "Obs.Snapshot.of_json" (fun doc ->
        (match doc with
        | Json.Obj _ -> ()
        | _ -> Field.fail "not a snapshot (want a %s object)" schema);
        Field.schema schema doc;
        let section name = Field.obj name doc in
        let run = Json.Obj (section "run") in
        (* Bucket state is validated here, once, so quantiles and readers can
           index it without checks of their own. *)
        let hist_of (name, j) =
          let count = function
            | Json.Int i when i >= 0 -> i
            | _ -> Field.fail "histogram %s: bucket count is not a non-negative integer" name
          in
          let counts = Array.of_list (List.map count (Field.list "counts" j)) in
          let nb = Array.length Histogram.layout in
          if Array.length counts <> nb then
            Field.fail "histogram %s: %d counts for %d buckets" name (Array.length counts) nb;
          let overflow = Field.int "overflow" j in
          if overflow < 0 then Field.fail "histogram %s: negative overflow" name;
          ( name,
            { h_counts = counts;
              h_overflow = overflow;
              h_count = Field.int "count" j;
              h_mean = Field.float "mean" j;
              h_m2 = Field.float "m2" j;
              h_min = Field.float "min" j;
              h_max = Field.float "max" j } )
        in
        let agg_of (name, j) =
          ( name,
            Field.int "count" j,
            Int64.of_int (Field.int "total_ns" j),
            Field.int "minor_w" j,
            Field.int "promoted_w" j,
            Field.int "major_w" j )
        in
        let task t =
          { tp_id = Field.str "id" t;
            tp_kind = Field.str "kind" t;
            tp_shots = Field.int "shots" t;
            tp_errors = Field.int "errors" t;
            tp_resumed = 0;
            tp_rel_halfwidth = Option.value ~default:nan (Field.float_opt "rel_halfwidth" t);
            tp_remaining = Field.int "remaining" t;
            tp_done = Field.bool "done" t }
        in
        let campaign c =
          { c_done = Field.int "tasks_done" c;
            c_total = Field.int "tasks" c;
            c_shots = Field.int "shots" c;
            c_new_shots = Field.int "new_shots" c;
            c_rate = Field.float "shots_per_s" c;
            c_remaining = Field.int "remaining_shots" c;
            c_eta_s = Field.float_opt "eta_s" c;
            c_tasks = List.map task (Field.list "task_progress" c) }
        in
        let p = Json.Obj (section "process") in
        { run = Run.stamp_of_json run;
          argv =
            List.map
              (function Json.String s -> s | _ -> Field.fail "non-string argv entry")
              (Field.list "argv" run);
          started_unix = Field.float "started_unix" run;
          wall_seconds = Field.float "wall_seconds" run;
          jobs = Field.int "jobs" run;
          counters = List.sort compare (Field.ints "counters" doc);
          gauges = List.sort compare (Field.floats "gauges" doc);
          histograms = List.sort compare (List.map hist_of (section "histograms"));
          paths = List.sort compare (List.map agg_of (section "paths"));
          process =
            { p_minor_collections = Field.int "minor_collections" p;
              p_major_collections = Field.int "major_collections" p;
              p_compactions = Field.int "compactions" p;
              p_minor_words = Field.float "minor_words" p;
              p_promoted_words = Field.float "promoted_words" p;
              p_major_words = Field.float "major_words" p;
              p_heap_words = Field.int "heap_words" p;
              p_top_heap_words = Field.int "top_heap_words" p };
          campaign = Option.map campaign (Json.member "campaign" doc) })

  let write ~path t =
    Fs.write_atomic path (fun oc ->
        output_string oc (Json.to_string (to_json t));
        output_char oc '\n')

  let load path = of_json (Json.parse (In_channel.with_open_bin path In_channel.input_all))
end

(* ----------------------------------------------------------------- trend *)

(* The regression judge: each metric of one run against the same metric of
   one baseline run.  A metric regresses when it exceeds the baseline by
   more than the threshold percentage; one that grows from 0 (limit 0)
   regresses at any threshold.  The noise floor spares metrics too small
   for a relative threshold to mean anything under scheduling noise. *)

module Trend = struct
  type verdict = {
    v_metric : string;
    v_baseline : float;
    v_current : float;
    v_limit : float;
    v_regression : bool;
  }

  let default_threshold_pct = 20.

  (* (metric, value) list of one run; higher is always worse: span totals,
     span minor words (exact counts, so allocation regressions gate like
     time ones) and histogram means. *)
  let metrics_of (s : Snapshot.t) =
    let spans = Snapshot.span_totals s in
    List.map (fun (n, _, t, _, _, _) -> ("span:" ^ n, Int64.to_float t)) spans
    @ List.map (fun (n, _, _, w, _, _) -> ("alloc:" ^ n, float_of_int w)) spans
    @ List.filter_map
        (fun (n, (h : Snapshot.hist)) ->
          if Float.is_finite h.h_mean then Some ("hist:" ^ n ^ ".mean", h.h_mean)
          else None)
        s.histograms

  let judge ?(threshold_pct = default_threshold_pct) ?(noise_floor_ns = 0.) ~baseline current =
    List.filter_map
      (fun (metric, cur) ->
        Option.map
          (fun base ->
            let limit = base *. (1. +. (threshold_pct /. 100.)) in
            { v_metric = metric;
              v_baseline = base;
              v_current = cur;
              v_limit = limit;
              v_regression = cur > limit && Float.max cur base >= noise_floor_ns })
          (List.assoc_opt metric baseline))
      current
    |> List.sort (fun a b -> compare a.v_metric b.v_metric)

  let delta_pct v =
    if v.v_baseline > 0. then 100. *. (v.v_current -. v.v_baseline) /. v.v_baseline
    else if v.v_current > 0. then infinity
    else 0.

  let regressions verdicts =
    List.filter (fun v -> v.v_regression) verdicts
    |> List.stable_sort (fun a b -> compare (delta_pct b) (delta_pct a))

  let only_in ~baseline current =
    let names m = List.sort_uniq compare (List.map fst m) in
    let base = names baseline and cur = names current in
    ( List.filter (fun k -> not (List.mem k cur)) base,
      List.filter (fun k -> not (List.mem k base)) cur )
end

(* Zero values in place rather than dropping registrations: modules hold
   metric handles created at init, and those must stay live in the
   registry across resets. *)
let reset () =
  Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.v 0) Counter.registry;
  Hashtbl.iter (fun _ (g : Gauge.t) -> Atomic.set g.Gauge.v 0.) Gauge.registry;
  Hashtbl.iter
    (fun _ (h : Histogram.t) ->
      Mutex.protect h.Histogram.lock (fun () ->
          Array.fill h.Histogram.counts 0 (Array.length h.Histogram.counts) 0;
          h.Histogram.over <- 0;
          h.Histogram.lo <- infinity;
          h.Histogram.hi <- neg_infinity;
          Stats.running_reset h.Histogram.welford))
    Histogram.registry;
  Trace.reset ()

(* Hook the deterministic executor (which sits below this library in the
   dependency order and therefore cannot call it directly): workers inherit
   the submitting caller's span path, so profile trees and folded stacks
   are identical at any --jobs setting.  Allocation attribution inherits
   for free: GC word counters are domain-local and each span's alloc
   window is a delta of its own domain's counters, so a task span on a
   worker domain measures exactly the task body's allocation and books it
   under the submitting caller's path — the worker's alloc baseline is the
   span entry sample itself, taken after the inherited path is installed. *)
let () =
  Parallel.task_context :=
    (fun () ->
      (* Force the run identity in the submitting domain before any fan
         out: the id is a lazy, and first forces racing each other from
         worker domains would be unsafe. *)
      ignore (Run.id ());
      let inherited = !(Domain.DLS.get Trace.stack_key) in
      fun () -> Domain.DLS.get Trace.stack_key := inherited)
