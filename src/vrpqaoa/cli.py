"""Experiment orchestration and the command-line entry points.

Three subcommands:

* ``solve``   -- brute-force report for an instance file
* ``encode``  -- QUBO / Ising coefficient dump for diffing by hand
* ``run``     -- seeded regime/lambda sweep writing per-run JSON records,
                 an aggregate CSV, and a plot-ready CSV
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .ansatz import AnsatzSpec, CONSTRAINT_AWARE, STANDARD, ParameterPoint
from .encode import (
    CompiledCost,
    CONVENTION_A,
    CONVENTION_B,
    QuboProblem,
    default_energy_scale,
    ising_as_dict,
    penalize,
    penalty_terms,
    qubo_as_dict,
    to_ising,
)
from .instance import (
    BruteForceResult,
    ConstraintSet,
    LinkVariableIndex,
    VrpInstance,
    brute_force_optimum,
    build_constraints,
    check_positive,
    check_real,
    check_whole,
)
from .metrics import RunMetrics, aggregate, run_metrics
from .optimize import (
    REGIMES,
    ObjectiveKind,
    OptimizerConfig,
    final_distribution,
    minimize,
    write_trace_csv,
)
from .simcore import NoiseModel, ShotHistogram, sample

DEFAULT_LAMBDAS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_SEEDS = tuple(range(30))

#: Hardware-inspired reference noise level (lab-grade fidelities).
NOISE_PRESETS = {
    "paper": NoiseModel(p1=0.00015, p2=0.00125, p01=0.001, p10=0.001),
    "none": NoiseModel(),
}


def toy_instance_path() -> str:
    """Path of the bundled three-node instance file."""
    return str(resources.files("vrpqaoa.data").joinpath("toy3.json"))


def _read_json(path: str):
    """The parsed JSON file; a syntax error names the path, line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc


def load_instance(path: str) -> VrpInstance:
    return VrpInstance.from_dict(_read_json(path))


@dataclass(frozen=True)
class Problem:
    """Instance plus every derived object the sweep needs, built once."""

    instance: VrpInstance
    constraints: ConstraintSet
    qubo: QuboProblem
    cost: CompiledCost
    oracle: BruteForceResult


def build_problem(inst: VrpInstance) -> Problem:
    cs = build_constraints(inst)
    qubo = penalize(inst, cs)
    cost = CompiledCost.from_qubo(qubo)
    oracle = brute_force_optimum(inst, cs, cost.full_diagonal.diagonal)
    return Problem(instance=inst, constraints=cs, qubo=qubo, cost=cost, oracle=oracle)


def regime_objective_kind(regime: str, noise: NoiseModel | None) -> ObjectiveKind:
    """The regime's objective kind; only regime III keeps the noise model."""
    return ObjectiveKind(regime, noise if regime == "III" else None)


def derive_run_seed(master: int, model: str, lam: float | None, seed_index: int):
    """Independent seed material per sweep cell and repetition."""
    model_key = 0 if model == STANDARD else 1
    lam_key = 0 if lam is None else int(round(lam * 1000))
    return np.random.SeedSequence(entropy=(master, model_key, lam_key, seed_index))


@dataclass
class RunRecord:
    model: str
    lam: float | None
    seed: int
    params: ParameterPoint
    objective: float
    histogram: ShotHistogram
    metrics: RunMetrics
    distribution: np.ndarray
    trace: list[tuple[int, int, float]] | None = None

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "lambda": self.lam,
            "seed": self.seed,
            "gamma": list(self.params.gamma),
            "beta": list(self.params.beta),
            "objective": self.objective,
            "shots": self.histogram.shots,
            "histogram": dict(sorted(self.histogram.counts.items())),
            "metrics": asdict(self.metrics),
            "distribution": [float(v) for v in self.distribution],
        }


def run_single(
    problem: Problem,
    model: str,
    lam: float | None,
    depth: int,
    seed_index: int | Sequence[int],
    kind: ObjectiveKind,
    opt_cfg: OptimizerConfig,
    master_seed: int,
    collect_trace: bool = False,
) -> RunRecord | list[RunRecord]:
    """One seeded optimize-then-sample run of one sweep cell; given a sequence of
    seed indices, one run per index, returned as a list.

    The runs of a sequence share one ansatz and optimize in lockstep (one
    :func:`minimize` call); each run's final distribution, sample and metrics
    are its own."""
    if model == STANDARD:
        spec = AnsatzSpec.standard(problem.qubo.n, depth)
    else:
        if lam is None:
            raise ValueError("constraint-aware runs need a lambda value")
        spec = AnsatzSpec.constraint_aware(problem.constraints, depth, lam)
    indices = [seed_index] if np.ndim(seed_index) == 0 else list(seed_index)
    seeds = [  # (optimizer seed, final sampling seed) per run
        [int(v) for v in derive_run_seed(master_seed, model, lam, i).generate_state(2, np.uint64)]
        for i in indices
    ]
    results = minimize(spec, problem.cost, kind, opt_cfg, [opt_seed for opt_seed, _ in seeds])
    records = []
    for index, (_, final_seed), result in zip(indices, seeds, results):
        dist = final_distribution(spec, problem.cost, result.params, kind)
        hist = sample(dist, opt_cfg.shots_final, np.random.default_rng(final_seed))
        measured = run_metrics(
            hist, problem.oracle.feasible_optima, problem.qubo, problem.oracle.feasible_cost
        )
        records.append(RunRecord(
            model=model,
            lam=lam,
            seed=index,
            params=result.params,
            objective=result.objective,
            histogram=hist,
            metrics=measured,
            distribution=dist,
            trace=result.trace if collect_trace else None,
        ))
    return records[0] if np.ndim(seed_index) == 0 else records


#: Evaluator rows a sweep task aims at.  A task runs a chunk of one cell's seeds,
#: whose restarts share each lockstep round's evaluator call, and a call's
#: fixed cost is then spread over more rows.  On toy3 at depth 4 (paper noise,
#: one BLAS thread; median of 7 processes, each the best of 15 interleaved
#: rounds of 10 calls) the cost per row at 5 -> 20 rows falls from 19 to 13 us
#: in regime I, from 112 to 95 us in regime III for standard QAOA and from 53
#: to 39 us for constraint-aware QAOA; past 20 rows the standard one rises
#: again (118 us at 40 rows, 138 us at 150).
CHUNK_ROWS = 20


def seed_chunks(
    seeds: Sequence[int], cells: int, restarts: int, workers: int | None
) -> list[tuple[int, ...]]:
    """Each cell's seeds as consecutive chunks of near-equal size, each of at
    most ``max(1, CHUNK_ROWS // restarts)`` seeds, split further only until the
    ``cells`` cells give at least ``min(workers, runs)`` tasks."""
    n = len(seeds)
    size = max(1, CHUNK_ROWS // restarts)
    tasks = min(workers or 1, cells * n)
    k = max(-(-n // size), -(-tasks // max(cells, 1)))  # chunks per cell
    return [tuple(seeds[i * n // k:(i + 1) * n // k]) for i in range(k)]


def run_cells(
    problem: Problem,
    cells: Sequence[tuple[str, float | None]],
    seeds: Sequence[int],
    kind: ObjectiveKind,
    depth: int,
    opt_cfg: OptimizerConfig,
    master_seed: int = 0,
    workers: int | None = None,
    collect_traces: bool = False,
    on_record: Callable[[RunRecord], None] | None = None,
) -> list[RunRecord]:
    """Run every (cell, seed) combination, optionally on a process pool.

    Each task is one :func:`run_single` call on a chunk of one cell's seeds
    (:func:`seed_chunks`), whose restarts all run in lockstep, so an evaluator
    call carries up to ``CHUNK_ROWS`` rows (one seed's restarts, if more).
    Every evaluator row has the bits of a one-row call, and each run draws
    from its own derived seed, so the records depend neither on the chunking
    nor on the worker count; the returned list is ordered by (cell order,
    seed order).
    """
    chunks = seed_chunks(seeds, len(cells), opt_cfg.restarts, workers)
    tasks = [
        (problem, model, lam, depth, chunk, kind, opt_cfg, master_seed, collect_traces)
        for model, lam in cells
        for chunk in chunks
    ]
    notify = on_record or (lambda record: None)
    if workers is not None and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(run_single, *task) for task in tasks]
            for future in as_completed(futures):
                for record in future.result():
                    notify(record)
            return [record for future in futures for record in future.result()]
    records = []
    for task in tasks:
        for record in run_single(*task):
            records.append(record)
            notify(record)
    return records


#: Circuit depth used when a config does not specify one.  At p <= 2 the
#: hybrid ansatz cannot move enough weight between the protected subspaces
#: of this instance family to beat the standard mixer; p = 3 is the
#: shallowest depth where its advantage appears, and p = 4 expresses it
#: with low enough seed-to-seed variance for interval-separated comparisons.
DEFAULT_DEPTH = 4


@dataclass
class ExperimentConfig:
    instance_path: str
    regime: str = "I"
    ansatz: str = "both"  # standard | constraint_aware | both
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    depth: int = DEFAULT_DEPTH
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    noise: NoiseModel | None = None
    master_seed: int = 0
    output_dir: str = "results"
    workers: int | None = None
    save_traces: bool = False

    def __post_init__(self) -> None:
        for name, value in (("instance_path (config key 'instance')", self.instance_path),
                            ("output_dir", self.output_dir)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.save_traces, bool):
            raise ValueError(f"save_traces must be a bool, got {self.save_traces!r}")
        ObjectiveKind(self.regime, self.noise)  # raises on a bad regime or a misplaced noise model
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ValueError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")
        for name, value in (("lambdas", self.lambdas), ("seeds", self.seeds)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a tuple or list, got {value!r}")
        if self.ansatz not in (STANDARD, CONSTRAINT_AWARE, "both"):
            raise ValueError(
                f"ansatz must be standard, constraint_aware, or both, got {self.ansatz!r}"
            )
        if self.ansatz != STANDARD and not self.lambdas:
            raise ValueError("constraint-aware sweeps need at least one lambda")
        if not self.seeds:
            raise ValueError("need at least one seed")
        check_whole("master_seed", self.master_seed, 0)
        for i, seed in enumerate(self.seeds):
            check_whole("seed", seed, 0)
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed} is repeated")
        check_whole("depth (--p)", self.depth, 1)
        if self.workers is not None:
            check_whole("workers", self.workers, 1)
        keys = set()
        for lam in self.lambdas:
            check_real("lambda", lam, 0)  # AnsatzSpec's rule, checked before any output is made
            # derive_run_seed keys runs by round(lambda * 1000), the run files by label
            key, label = round(lam * 1000), _cell_label(CONSTRAINT_AWARE, lam)
            if not math.isclose(lam * 1000, key, rel_tol=0.0, abs_tol=1e-6):
                raise ValueError(f"lambda {lam!r} is not a multiple of 0.001")
            if key in keys or label in keys:
                raise ValueError(f"lambda {lam!r} is repeated")
            keys.update((key, label))
        self.lambdas = tuple(float(lam) for lam in self.lambdas)
        self.seeds = tuple(self.seeds)

    def cells(self) -> list[tuple[str, float | None]]:
        out: list[tuple[str, float | None]] = []
        if self.ansatz in (STANDARD, "both"):
            out.append((STANDARD, None))
        if self.ansatz in (CONSTRAINT_AWARE, "both"):
            out.extend((CONSTRAINT_AWARE, lam) for lam in self.lambdas)
        return out


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cell_label(model: str, lam: float | None) -> str:
    return model if lam is None else f"{model}_lam{_fmt(lam)}"


def aggregate_rows(records: list[RunRecord]) -> list[dict]:
    """One row per sweep cell with mean/std/CI for each metric."""
    by_cell: dict[tuple[str, float | None], list[RunRecord]] = {}
    for record in records:
        by_cell.setdefault((record.model, record.lam), []).append(record)
    rows = []
    for (model, lam), cell in by_cell.items():
        row: dict = {"model": model, "lambda": "" if lam is None else _fmt(lam)}
        for metric in fields(RunMetrics):
            name = metric.metadata["column"]
            data = [float(getattr(r.metrics, metric.name)) for r in cell]
            # spread statistics are undefined for a single run
            agg = aggregate(data) if len(data) >= 2 else None
            row[f"{name}_mean"] = _fmt(data[0] if agg is None else agg.mean)
            for stat in ("std", "ci_low", "ci_high"):
                row[f"{name}_{stat}"] = "" if agg is None else _fmt(getattr(agg, stat))
        rows.append(row)
    return rows


def write_aggregate_csv(rows: list[dict], path: str) -> None:
    header = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[col]) for col in header) + "\n")


def write_plot_csv(rows: list[dict], regime: str, path: str) -> None:
    """Long-format rows (regime, model, lambda, metric, mean, ci bounds)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("regime,model,lambda,metric,mean,ci_low,ci_high\n")
        for row in rows:
            for metric in (f.metadata["column"] for f in fields(RunMetrics)):
                stats = [row[f"{metric}_{stat}"] for stat in ("mean", "ci_low", "ci_high")]
                fh.write(",".join([regime, row["model"], row["lambda"], metric, *stats]) + "\n")


#: The files and directories a sweep writes into its output directory.
SWEEP_OUTPUTS = ("runs", "traces", "aggregate.csv", "plot_data.csv")


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute the configured sweep and persist all result files.

    An output directory that already holds a sweep's outputs is refused before
    anything is written: files of two sweeps in one tree would look alike."""
    used = [name for name in SWEEP_OUTPUTS if os.path.exists(os.path.join(cfg.output_dir, name))]
    if used:
        raise ValueError(f"output directory {cfg.output_dir} already holds {', '.join(used)}; "
                         "give a new one")
    problem = build_problem(load_instance(cfg.instance_path))
    kind = regime_objective_kind(cfg.regime, cfg.noise)

    runs_dir = os.path.join(cfg.output_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    traces_dir = os.path.join(cfg.output_dir, "traces")
    if cfg.save_traces:
        os.makedirs(traces_dir, exist_ok=True)

    def persist(record: RunRecord) -> None:
        stem = f"{_cell_label(record.model, record.lam)}_seed{record.seed}"
        with open(os.path.join(runs_dir, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        if cfg.save_traces and record.trace is not None:
            write_trace_csv(record.trace, os.path.join(traces_dir, stem + ".csv"))

    records = run_cells(
        problem,
        cfg.cells(),
        cfg.seeds,
        kind,
        cfg.depth,
        cfg.optimizer,
        master_seed=cfg.master_seed,
        workers=cfg.workers,
        collect_traces=cfg.save_traces,
        on_record=persist,
    )
    rows = aggregate_rows(records)
    write_aggregate_csv(rows, os.path.join(cfg.output_dir, "aggregate.csv"))
    write_plot_csv(rows, cfg.regime, os.path.join(cfg.output_dir, "plot_data.csv"))
    return records


def solve_report(path: str) -> dict:
    oracle = build_problem(load_instance(path)).oracle
    return {
        "feasible_optima": list(oracle.feasible_optima),
        "feasible_cost": oracle.feasible_cost,
        "feasible_count": oracle.feasible_count,
        "qubo_argmin": list(oracle.qubo_argmin),
        "qubo_min": oracle.qubo_min,
    }


def encode_report(path: str, penalty: float | None = None) -> dict:
    """Full coefficient dump: raw penalty terms, collected QUBO, both Ising forms, scale."""
    if penalty is not None:
        check_positive("--penalty", penalty)
    inst = load_instance(path)
    cs = build_constraints(inst)
    qubo = penalize(inst, cs, penalty)
    idx = LinkVariableIndex.for_nodes(inst.node_count)
    ising_a = to_ising(qubo, CONVENTION_A)
    ising_b = to_ising(qubo, CONVENTION_B)

    terms = []
    for c in cs:
        constant, linear, quadratic = penalty_terms(c)
        terms.append(
            {
                "label": c.label,
                "relation": c.relation,
                "rhs": c.rhs,
                "constant": constant,
                "linear": {idx.name(q): coeff for q, coeff in linear.items()},
                "quadratic": {
                    f"{idx.name(a)}*{idx.name(b)}": coeff for (a, b), coeff in quadratic.items()
                },
            }
        )
    return {
        "variables": [idx.name(q) for q in range(idx.n)],
        "penalty": qubo.penalty,
        "penalty_terms": terms,
        "qubo": qubo_as_dict(qubo),
        "ising_a": ising_as_dict(ising_a),
        "ising_b": ising_as_dict(ising_b),
        "scale": default_energy_scale(ising_b),
    }


def _print_encode_report(report: dict) -> None:
    names = report["variables"]
    print(f"penalty P = {report['penalty']:g}")
    print("\npenalty terms (each scaled by P):")
    for term in report["penalty_terms"]:
        pieces = [f"{term['constant']}"]
        pieces += [f"{coeff:+d}*{name}" for name, coeff in term["linear"].items()]
        pieces += [f"{coeff:+d}*{prod}" for prod, coeff in term["quadratic"].items()]
        print(f"  [{term['label']}] P*({' '.join(pieces)})")
    qubo = report["qubo"]
    print("\ncollected QUBO:")
    print(f"  constant: {qubo['constant']:g}")
    for q, coeff in enumerate(qubo["linear"]):
        print(f"  {names[q]}: {coeff:g}")
    for key, coeff in qubo["quadratic"].items():
        i, j = (int(v) for v in key.split(","))
        print(f"  {names[i]}*{names[j]}: {coeff:g}")
    for tag in ("ising_a", "ising_b"):
        ising = report[tag]
        print(f"\nIsing (convention {ising['convention']}):")
        print(f"  constant: {ising['constant']:g}")
        for q, coeff in enumerate(ising["fields"]):
            print(f"  h[{names[q]}]: {coeff:g}")
        for key, coeff in ising["couplings"].items():
            i, j = (int(v) for v in key.split(","))
            print(f"  J[{names[i]},{names[j]}]: {coeff:g}")
    print(f"\nenergy scale s = {report['scale']:g}")


def lambda_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def seed_list(text: str) -> int | tuple[int, ...]:
    """A seed count, or a comma-separated list of seeds."""
    if "," in text:
        return tuple(int(v) for v in text.split(",") if v.strip())
    return int(text)


#: ``run`` flag (argparse dest) -> the config key it overrides.
RUN_FLAG_KEYS = {
    "instance": "instance",
    "regime": "regime",
    "lambdas": "lambdas",
    "p": "depth",
    "seeds": "seeds",
    "ansatz": "ansatz",
    "shots_final": "optimizer.shots_final",
    "noise_preset": "noise",
    "out": "output_dir",
    "workers": "workers",
}


def _fields(cls: type, payload: dict, section: str | None = None, exclude: tuple = ()) -> dict:
    """``payload``, once each of its keys names a field of ``cls`` outside ``exclude``."""
    names = {f.name for f in fields(cls)} - set(exclude)
    prefix = "" if section is None else f"{section}."
    for key in payload:
        if key not in names:
            raise ValueError(f"unknown config key {prefix + key!r}")
    return payload


def _built(cls: type, value, section: str):
    """``cls`` built from a config object; any other value is ExperimentConfig's to judge."""
    return cls(**_fields(cls, value, section)) if isinstance(value, dict) else value


def build_experiment_config(file_cfg: dict, args: argparse.Namespace) -> ExperimentConfig:
    """Merge a JSON config file with command-line overrides.

    The accepted keys are the fields of :class:`ExperimentConfig`, with
    ``instance`` for ``instance_path``, and those of :class:`OptimizerConfig`
    and :class:`NoiseModel` under ``optimizer`` and ``noise``.  Any other key
    is a ValueError naming it; the types judge the values, as in Python.
    """
    if not isinstance(file_cfg, dict):
        raise ValueError(f"the config must be a JSON object, got {file_cfg!r}")
    merged = {"optimizer": {}, **file_cfg}
    for dest, key in RUN_FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is not None:
            section, _, leaf = key.rpartition(".")
            if not section:
                merged[leaf] = value
            elif isinstance(merged[section], dict):  # ExperimentConfig rejects any other value
                merged[section] = {**merged[section], leaf: value}

    instance = merged.pop("instance", None)
    if instance is None:
        raise ValueError("no instance file given (config 'instance' or --instance)")
    if type(merged.get("seeds")) is int:  # a seed count
        check_whole("seed count", merged["seeds"], 1)
        merged["seeds"] = tuple(range(merged["seeds"]))
    noise = merged.get("noise")
    if isinstance(noise, str):
        if noise not in NOISE_PRESETS:
            raise ValueError(f"unknown noise preset {noise!r}")
        noise = NOISE_PRESETS[noise]
    merged["noise"] = _built(NoiseModel, noise, "noise")
    merged["optimizer"] = _built(OptimizerConfig, merged["optimizer"], "optimizer")
    return ExperimentConfig(
        instance_path=instance, **_fields(ExperimentConfig, merged, exclude=("instance_path",))
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrpqaoa",
        description="Constraint-aware QAOA experiments on small VRP instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="brute-force report for an instance")
    p_solve.add_argument("instance", help="instance JSON file")

    p_encode = sub.add_parser("encode", help="dump QUBO and Ising coefficients")
    p_encode.add_argument("instance", help="instance JSON file")
    p_encode.add_argument("--json", dest="json_out", help="also write the report as JSON")
    p_encode.add_argument("--penalty", type=float, default=None)

    p_run = sub.add_parser("run", help="regime/lambda sweep over seeded runs")
    p_run.add_argument("--config", help="experiment config JSON")
    p_run.add_argument("--instance", help="instance JSON file (overrides config)")
    p_run.add_argument("--regime", choices=REGIMES)
    p_run.add_argument(
        "--lambda", dest="lambdas", type=lambda_list, help="comma-separated lambda values"
    )
    p_run.add_argument("--p", type=int, help="circuit depth")
    p_run.add_argument("--seeds", type=seed_list, help="seed count or comma-separated seed list")
    p_run.add_argument("--ansatz", choices=(STANDARD, CONSTRAINT_AWARE, "both"))
    p_run.add_argument("--shots-final", type=int, dest="shots_final")
    p_run.add_argument("--noise-preset", choices=sorted(NOISE_PRESETS), dest="noise_preset")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--workers", type=int)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            report = solve_report(args.instance)
            print(f"feasible optima: {', '.join(report['feasible_optima']) or '(none)'}")
            print(f"optimal cost:    {report['feasible_cost']:g}")
            print(f"feasible count:  {report['feasible_count']}")
            print(f"qubo argmin:     {', '.join(report['qubo_argmin'])}")
            print(f"qubo minimum:    {report['qubo_min']:g}")
        elif args.command == "encode":
            report = encode_report(args.instance, args.penalty)
            _print_encode_report(report)
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=1, sort_keys=True)
                    fh.write("\n")
        else:
            file_cfg = _read_json(args.config) if args.config else {}
            cfg = build_experiment_config(file_cfg, args)
            records = run_experiment(cfg)
            print(f"wrote {len(records)} run records to {cfg.output_dir}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
