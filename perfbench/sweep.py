"""The three benchmark workloads and the closed loop that drives them.

Each workload repeats one *unit* of work back to back (closed loop: the next
unit starts when the previous one has returned) until the time budget is
spent.  A unit is one call of a public entry point: ``cli.run_cells`` for the
in-process sweeps, ``cli.run_experiment`` for the CLI-style sweep.
"""
from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from vrpqaoa import cli
from vrpqaoa.ansatz import CONSTRAINT_AWARE, STANDARD
from vrpqaoa.optimize import OptimizerConfig

#: Package defaults every run uses: p=4, 5 restarts x 150 evaluations,
#: 1024x3 objective shots, 4096 final shots.
DEPTH = cli.DEFAULT_DEPTH
OPTIMIZER = OptimizerConfig()


@dataclass(frozen=True)
class Workload:
    name: str
    regime: str
    cells: tuple[tuple[str, float | None], ...]
    seeds_per_unit: int
    #: Units a timed run executes at least; the quality means use only these,
    #: so they average the same seeded runs however fast the program is.
    quality_units: int
    #: Units a traced run executes.  Fixed, so per-layer counts repeat exactly.
    trace_units: int
    #: True: each unit is one ``run_experiment`` sweep on a process pool.
    via_experiment: bool = False

    @property
    def runs_per_unit(self) -> int:
        return len(self.cells) * self.seeds_per_unit


# Why these three: exact-sweep is all statevector engine, per-gate dispatch
# and Nelder-Mead bookkeeping; noisy-sweep is all density-matrix gates,
# depolarizing channels and readout; shots-cli is the only one with the
# stochastic objective, restart re-evaluation, the process pool and result
# files, on a 1-vehicle instance whose constraint structure differs from toy3.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-sweep",
            "I",
            ((STANDARD, None), (CONSTRAINT_AWARE, 0.5), (CONSTRAINT_AWARE, 0.7), (CONSTRAINT_AWARE, 1.0)),
            seeds_per_unit=1,
            quality_units=8,
            trace_units=2,
        ),
        Workload(
            "noisy-sweep",
            "III",
            ((STANDARD, None), (CONSTRAINT_AWARE, 0.7)),
            seeds_per_unit=1,
            quality_units=2,
            trace_units=1,
        ),
        Workload(
            "shots-cli",
            "II",
            ((STANDARD, None), (CONSTRAINT_AWARE, 0.7)),
            seeds_per_unit=4,
            quality_units=8,
            trace_units=2,
            via_experiment=True,
        ),
    )
}


def tour_costs(distances) -> tuple[float, float]:
    """Route costs of the two tours of a 3-node, 1-vehicle instance."""
    d = distances
    return (d[0][1] + d[1][2] + d[2][0], d[0][2] + d[2][1] + d[1][0])


def generate_instance(seed: int) -> dict:
    """Seeded asymmetric 3-node, 1-vehicle instance for shots-cli.

    The two tours cost 125 and 175 (a 40% margin, so the optimum is unique
    but not trivial) and the links sum to 300, so the penalty weight (twice
    that sum) is the same for every seed.  The seed decides which tour is
    the cheap one and how each tour's cost splits over its three links, a
    Dirichlet(16, 16, 16) draw: each link's share is a third give or take
    about 0.07.  Holding margin and scale fixed, and the splits near even,
    keeps the quality metrics comparable across seeds.
    """
    rng = np.random.default_rng([seed, 31])
    costs = rng.permutation([125.0, 175.0])
    d = np.zeros((3, 3))
    d[0, 1], d[1, 2], d[2, 0] = rng.dirichlet([16.0, 16.0, 16.0]) * costs[0]
    d[0, 2], d[2, 1], d[1, 0] = rng.dirichlet([16.0, 16.0, 16.0]) * costs[1]
    payload = {"distances": np.round(d, 1).tolist(), "vehicles": 1}
    check_generated_instance(payload)
    return payload


def check_generated_instance(payload: dict) -> None:
    """Scope check made before the program sees the instance."""
    d = payload["distances"]
    if len(d) != 3 or any(len(row) != 3 for row in d):
        raise ValueError("generated instance must have 3 nodes")
    if payload["vehicles"] != 1:
        raise ValueError("generated instance must have 1 vehicle")
    if any(d[i][i] != 0 for i in range(3)) or any(
        d[i][j] <= 0 for i in range(3) for j in range(3) if i != j
    ):
        raise ValueError("generated distances need a zero diagonal and positive links")
    a, b = tour_costs(d)
    if a == b:
        raise ValueError("generated instance has two optimal tours")


@dataclass
class Sweep:
    """Inputs and outputs of one benchmark run of one workload."""

    workload: Workload
    instance_path: str
    master_seed: int
    workers: int
    out_dir: Path
    problem: cli.Problem | None = None
    unit_records: dict[int, list[dict]] = field(default_factory=dict)
    unit_dirs: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kind = cli.regime_objective_kind(self.workload.regime, cli.NOISE_PRESETS["paper"])
        if not self.workload.via_experiment:
            # Set-up cost is measured separately (setup_s), not in the loop.
            self.problem = cli.build_problem(cli.load_instance(self.instance_path))

    def seeds(self, unit: int) -> tuple[int, ...]:
        k = self.workload.seeds_per_unit
        return tuple(range(unit * k, (unit + 1) * k))

    def run_unit(self, unit: int) -> None:
        w = self.workload
        if not w.via_experiment:
            records = cli.run_cells(
                self.problem, w.cells, self.seeds(unit), self.kind, DEPTH, OPTIMIZER,
                master_seed=self.master_seed,
            )
            self.unit_records[unit] = [r.as_dict() for r in records]
            return
        unit_dir = str(self.out_dir / f"unit{unit:03d}")
        self.unit_dirs[unit] = unit_dir
        cfg = cli.ExperimentConfig(
            instance_path=self.instance_path,
            regime=w.regime,
            ansatz="both",
            lambdas=tuple(lam for _, lam in w.cells if lam is not None),
            depth=DEPTH,
            seeds=self.seeds(unit),
            optimizer=OPTIMIZER,
            master_seed=self.master_seed,
            output_dir=unit_dir,
            workers=self.workers,
        )
        cli.run_experiment(cfg)

    def load_written_records(self) -> None:
        """Read back the run JSON files the experiment units wrote."""
        for unit, unit_dir in self.unit_dirs.items():
            records = self.unit_records.setdefault(unit, [])
            for path in sorted((Path(unit_dir) / "runs").glob("*.json")):
                with open(path, encoding="utf-8") as fh:
                    records.append(json.load(fh))

    def records(self, first: int | None = None) -> list[dict]:
        """Records of every unit, or of units 0 .. first-1, in unit order."""
        return [
            record
            for unit in sorted(self.unit_records)
            if first is None or unit < first
            for record in self.unit_records[unit]
        ]

    def output_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(dirpath, f))
            for unit_dir in self.unit_dirs.values()
            for dirpath, _, files in os.walk(unit_dir)
            for f in files
        )


@dataclass
class LoopResult:
    units: int
    attempted: int
    raised: int
    elapsed_s: float
    unit_s: list[float]


def closed_loop(
    run_unit: Callable[[int], None],
    runs_per_unit: int,
    seconds: float,
    units: int | None = None,
    min_units: int = 1,
) -> LoopResult:
    """Run units back to back: exactly ``units`` of them, or for ``seconds``.

    In the timed form a new unit starts only if the last one's duration
    still fits in the budget, and at least ``min_units`` units run.  A unit
    that raises counts all its runs as failed; the loop goes on.
    """
    unit_s: list[float] = []
    raised = 0
    start = time.perf_counter()
    while units is None or len(unit_s) < units:
        t0 = time.perf_counter()
        try:
            run_unit(len(unit_s))
        except Exception:  # counted as failed runs, reported, loop continues
            traceback.print_exc()
            raised += runs_per_unit
        unit_s.append(time.perf_counter() - t0)
        if (
            units is None
            and len(unit_s) >= min_units
            and time.perf_counter() - start + unit_s[-1] > seconds
        ):
            break
    return LoopResult(
        units=len(unit_s),
        attempted=len(unit_s) * runs_per_unit,
        raised=raised,
        elapsed_s=time.perf_counter() - start,
        unit_s=unit_s,
    )
