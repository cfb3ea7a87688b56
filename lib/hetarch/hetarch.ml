let version = "1.0.0"

type experiment = { id : string; title : string; paper_claim : string }

let experiments =
  [ { id = "devices";
      title = "Table 1: Device catalog";
      paper_claim = "Properties of near-term superconducting quantum devices" };
    { id = "cells";
      title = "Table 2: Standard cells";
      paper_claim = "Register/ParCheck/SeqOp/USC assembled under DR1-DR4" };
    { id = "fig3";
      title = "Distillation infidelity over time";
      paper_claim =
        "Heterogeneous memory preserves distilled fidelity; homogeneous decays" };
    { id = "fig4";
      title = "Distilled-EP rate vs generation rate";
      paper_claim =
        "Ts >= 2.5 ms heterogeneous outperforms homogeneous 2x+; homogeneous fails at low rates" };
    { id = "fig6";
      title = "Surface-code logical error vs data/ancilla coherence (d=13)";
      paper_claim = "Scaling data coherence helps ~2.5x; ancilla coherence helps little" };
    { id = "fig7";
      title = "Logical error vs distance for Tcd/Tca ratios";
      paper_claim = "Raising the ratio moves the code below threshold; returns diminish past 5" };
    { id = "fig9";
      title = "UEC logical error vs storage coherence";
      paper_claim = "Serialized checks demand long Ts; non-planar codes benefit most" };
    { id = "table3";
      title = "UEC het vs hom per code";
      paper_claim = "RM/17QCC/ST improve 4.7x/3.5x/10.7x; surface codes favor homogeneous" };
    { id = "fig12";
      title = "Code-teleportation error vs Ts";
      paper_claim = "CT error drops with storage lifetime; large codes need Ts >= 50 ms" };
    { id = "table4";
      title = "CT error probabilities for all code pairs";
      paper_claim = "Heterogeneous wins every pair; 2.96x best, 2.33x average, 1.60x min" } ]

let find_experiment id = List.find_opt (fun e -> e.id = id) experiments
