(* Priorities and values in parallel arrays: a push allocates nothing once
   the arrays have grown, and the float priorities stay unboxed. *)
type 'a t = { mutable prios : float array; mutable vals : 'a array; mutable len : int }

let create () = { prios = [||]; vals = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len

let grow h v =
  let cap = Array.length h.vals in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let prios = Array.make ncap 0. and vals = Array.make ncap v in
    Array.blit h.prios 0 prios 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.prios <- prios;
    h.vals <- vals
  end

let swap h i j =
  let p = h.prios.(i) and v = h.vals.(i) in
  h.prios.(i) <- h.prios.(j);
  h.vals.(i) <- h.vals.(j);
  h.prios.(j) <- p;
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prios.(i) < h.prios.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.prios.(l) < h.prios.(!smallest) then smallest := l;
  if r < h.len && h.prios.(r) < h.prios.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h prio value =
  grow h value;
  h.prios.(h.len) <- prio;
  h.vals.(h.len) <- value;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_prio h =
  if h.len = 0 then invalid_arg "Heap.min_prio: empty heap";
  h.prios.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top = h.vals.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.prios.(0) <- h.prios.(h.len);
    h.vals.(0) <- h.vals.(h.len);
    sift_down h 0
  end;
  top

let pop h =
  if h.len = 0 then None
  else begin
    let prio = h.prios.(0) in
    Some (prio, pop_min h)
  end

let peek h = if h.len = 0 then None else Some (h.prios.(0), h.vals.(0))
let clear h = h.len <- 0
