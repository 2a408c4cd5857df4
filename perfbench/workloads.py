"""Seeded workload inputs: a list of sweep plans (template, grid, seeds).

One round of a workload is one ``dyadica sweep`` call per plan, in order.
Every workload runs all eight checks, so every stage metric is measured on
every workload; the geometry and size decide which layer does the work.
The benchmark seed feeds the scenario seeds (from which a random point
cloud also draws its points) and the sigma/omega measure seeds, and nothing
else: the same seed always writes the same plan bytes.
"""

from __future__ import annotations

import json
import math

DEFAULT_SEED = 0

_KERNEL = {"type": "ball_volume", "ball": "closed", "gamma": 0.5}


def _measures(seed: int) -> dict:
    # omega vanishes on about a quarter of the points, so the dual testing
    # sweep takes the inf * 0 = 0 convention on some cubes
    return {"sigma": {"random": {"seed": 2 * seed + 1}},
            "omega": {"random": {"seed": 2 * seed + 2,
                                 "zero_fraction": 0.25}}}


def _plan(spaces: list[dict], exponents: dict, seed: int, scenario_seed: int,
          budget: int) -> dict:
    template = {"space": spaces[0], "measures": _measures(seed),
                "kernel": dict(_KERNEL), "exponents": exponents,
                "budget": budget}
    grid = {"space": spaces} if len(spaces) > 1 else {}
    return {"template": template, "grid": grid, "seeds": [scenario_seed]}


# three scenario seeds per workload average out how much work one seed's
# points and measures happen to make
PER_SPACE = 3


def euclid_tree(seed: int) -> list[dict]:
    """One sweep call per scenario, so each call is timed on its own."""
    spaces = [{"kind": "euclidean_random_points", "n": 16, "dim": 2},
              {"kind": "ultrametric_tree", "depth": 3, "branching": 3,
               "ratio": 1.0 / 96.0}]
    return [_plan([space], {"p": 2.0, "q": 2.0}, seed, 1000 * seed + i,
                  budget=1)
            for i in range(PER_SPACE) for space in spaces]


def sweep_small(seed: int) -> list[dict]:
    """One sweep call per scenario over three small spaces: per-call costs
    (argument parsing, scenario set-up, hashing, CSV/JSON writing) weigh
    most, and each call is short enough to be timed on its own."""
    spaces = [{"kind": "integer_segment_counting", "n": 16},
              {"kind": "euclidean_random_points", "n": 16, "dim": 2},
              {"kind": "ultrametric_tree", "depth": 2, "branching": 4,
               "ratio": 1.0 / 96.0}]
    # p != 2 keeps the norm searches off the spectral shortcut
    return [_plan([space], {"p": 1.5, "q": 3.0}, seed, 1000 * seed + i,
                  budget=2)
            for i in range(PER_SPACE) for space in spaces]


WORKLOADS = {
    "euclid-tree": euclid_tree,
    "sweep-small": sweep_small,
}


def plan_bytes(name: str, seed: int) -> bytes:
    return (json.dumps(WORKLOADS[name](seed), sort_keys=True, indent=1)
            + "\n").encode("utf-8")


def scenario_count(plan: dict) -> int:
    """Scenarios one sweep of a plan runs."""
    grid = plan["grid"].values()
    return len(plan["seeds"]) * math.prod(len(v) for v in grid)


def write_plans(name: str, seed: int, stem: str) -> list[str]:
    """Write the workload's plans to ``{stem}.{i}.json``; return the paths."""
    paths = []
    for i, plan in enumerate(WORKLOADS[name](seed)):
        path = f"{stem}.{i}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh, sort_keys=True, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths


def scenario_label(scenario: dict) -> str:
    """Readable name of one sweep run, as echoed in its report."""
    space = scenario["space"]
    size = ",".join(f"{k}={space[k]}" for k in ("n", "dim", "depth",
                                                "branching") if k in space)
    return f"{space['kind']}({size})/seed={scenario['seed']}"
