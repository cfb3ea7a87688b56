(** HetArch public facade.

    The library family is flat (one OCaml library per subsystem, all
    unwrapped); this module provides the entry-point documentation and the
    version.  The paper's experiments are the [hetarch] CLI's subcommands.

    {2 Layer map}

    - {!Device}: Table-1 superconducting device catalog.
    - {!Design_rules} / {!Cell}: standard cells and DR1-DR4 (Table 2).
    - {!Characterize}: density-matrix cell characterization (channels).
    - {!Code} / {!Codes} / {!Decoder_lookup} / {!Decoder_uf} / {!Threshold}:
      QEC codes and decoders.
    - {!Circuit} / {!Dem} / {!Dem_sampler} / {!Surface_circuit}:
      circuit-level simulation (the Stim role): one DEM-direct sampler,
      decoded by {!Decoder_uf}.
    - {!Distill_module} / {!Bell_pair} / {!Ep_source}: §4.1.
    - {!Uec}: §4.2.2.  {!Teleport}: §4.3.
    - {!Sweep} / {!Cache} / {!Burden}: design-space exploration.
    - {!Hierarchy}: module/cell/device trees (Fig. 2). *)

val version : string
