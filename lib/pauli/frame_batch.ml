(* The sampled-batch record under its former name.  Code in lib/, bin/ and
   test/ names it [Dem_sampler.batch]; perfbench/replay, which is pinned
   against earlier revisions, still reads the fields through this path. *)

type t = Dem_sampler.batch = {
  nshots : int;
  detectors : Bitvec.t array;
  observables : Bitvec.t array;
}
