"""The benchmark's workloads: the experiment config each one runs, the CLI
commands it issues in order, and the numeric artifacts its checks digest.

`--seed` varies every input that leaves the amount of work alone:

- ihdp_*: the dataset. The experiment seed, which also draws the sweep's
  hyper-parameters, stays at EXPERIMENT_SEED, so every seed trains the same
  member architectures. A fresh 4+4 draw from the default width and depth
  grids would move the sweep's cost by an order of magnitude between seeds.
- acic_large: the experiment seed (split, initialisations, CV folds). The
  dataset stays at ACIC_DATASET_SEED, because each acic_like seed draws a new
  propensity function: across seeds 0-9 the treated share runs from 5% to
  87%, and with it the twin-search matrix (n0 x n1 entries) and the peak
  memory by a factor of two. Seed 1 has the most balanced arms of those ten
  (44% treated), so it shows the largest twin-search memory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

EXPERIMENT_SEED = 0
ACIC_DATASET_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[tuple[str, int], ...]  # (command, --workers), in order
    artifacts: tuple[str, ...]  # numeric artifacts whose bytes are digested
    pehe_source: str  # "evaluation" or "ensemble_curve"
    config: dict
    tiny: dict  # overrides for the seconds-long test size
    dataset_seed: int | None = None  # fixed dataset; --seed is the experiment seed
    min_iterations: int = 1  # iterations made even past --seconds

    def make_config(self, seed: int, tiny: bool = False) -> dict:
        cfg = copy.deepcopy(self.config)
        if tiny:
            for section, values in self.tiny.items():
                cfg[section].update(values)
        if self.dataset_seed is None:
            cfg["seed"], cfg["dataset"]["seed"] = EXPERIMENT_SEED, seed
        else:
            cfg["seed"], cfg["dataset"]["seed"] = seed, self.dataset_seed
        return cfg


_W50 = {"embed_width": 50, "head_width": 50}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ihdp_train",
        why="training-bound serial reference: a 4+4-member 40-epoch sweep and a "
            "width-50 fit, so nn, pipeline and twin dominate",
        steps=(("generate", 1), ("sweep", 1), ("fit", 1), ("evaluate", 1)),
        artifacts=("candidates.csv", "evaluation.json"),
        pehe_source="evaluation",
        config={"dataset": {"kind": "ihdp_like", "n": 747},
                "search": {"l0": 4, "l1": 4, "epochs": 40},
                "fit": {"hp0": dict(_W50), "hp1": dict(_W50)}},
        tiny={"dataset": {"n": 200}, "search": {"l0": 2, "l1": 2, "epochs": 2},
              "fit": {"hp0": {"embed_width": 10, "head_width": 10},
                      "hp1": {"embed_width": 10, "head_width": 10}}},
    ),
    Workload(
        name="ihdp_select",
        why="selection-bound: 16+16 one-epoch members over 2 pool workers, "
            "256 candidates x 8 proxies, a 13-value softmax ensemble and "
            "large member JSON",
        steps=(("generate", 1), ("sweep", 2), ("select", 1), ("ensemble", 1),
               ("report", 1)),
        artifacts=("candidates.csv", "ensemble_curve.csv"),
        pehe_source="ensemble_curve",
        config={"dataset": {"kind": "ihdp_like", "n": 747},
                "search": {"l0": 16, "l1": 16, "epochs": 1},
                "selection": {"proxy": "tau_dr"},
                "ensemble": {"mode": "softmax"}},
        tiny={"dataset": {"n": 200}, "search": {"l0": 3, "l1": 3}},
        # one ~21 s iteration fits in a run, and it is the noisiest: its sweep
        # runs 3 processes of 2 BLAS threads each on 2 CPUs. Over ten seeds a
        # single iteration spread wall_s by 0.11 and 0.22 (quartile distance
        # over median), too close to the 0.25 bound.
        min_iterations=2,
    ),
    Workload(
        name="acic_large",
        why="the only large-n case: acic_like n=10000 d=58, where propensity CV, "
            "twin search memory and the bound verifiers dominate",
        steps=(("generate", 1), ("fit", 1), ("evaluate", 1), ("bounds", 1)),
        artifacts=("evaluation.json", "bounds.csv"),
        pehe_source="evaluation",
        config={"dataset": {"kind": "acic_like", "n": 10000},
                "fit": {"hp0": dict(_W50, epochs=5, batch_size=200),
                        "hp1": dict(_W50, epochs=5, batch_size=200)},
                "bounds": {"n": 2000, "instances": 10}},
        tiny={"dataset": {"n": 300},
              "fit": {"hp0": {"epochs": 1, "embed_width": 10, "head_width": 10},
                      "hp1": {"epochs": 1, "embed_width": 10, "head_width": 10}},
              "bounds": {"n": 100, "instances": 2}},
        dataset_seed=ACIC_DATASET_SEED,
    ),
)}
