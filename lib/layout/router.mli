(** Greedy SWAP-routing scheduler for the homogeneous baseline.

    Stands in for the Qiskit transpiler at its highest optimization level
    (paper §4): two-qubit operations between non-adjacent lattice sites are
    routed along an L-shaped shortest path with SWAP chains (there and back),
    and operations are list-scheduled onto the lattice greedily, serializing
    whenever their paths share qubits.

    Costs are reported in two-qubit-gate units so callers can convert with
    their own gate times and error rates. *)

type op = { a : int; b : int }
(** A two-qubit operation between lattice node indices. *)

type schedule = {
  makespan : int;  (** completion time, in 2q-gate slots *)
  two_qubit_gates : int;  (** total CX/SWAP count including routing *)
  busy : int array;  (** per-node busy slots *)
  op_finish : int array;  (** finish slot per input op *)
}

val route_cost : Grid.t -> op -> int
(** 2q gates needed for one op: 2 * distance - 1 (SWAP chain in, the gate,
    SWAP chain back); 1 when already adjacent. *)

val schedule : Grid.t -> op list -> schedule
(** Greedy list scheduling in input order: an op starts when every node on
    its routing path is free and occupies the whole path for its duration. *)
