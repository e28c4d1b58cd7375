"""Derivative-free outer loop over the scaled energy of a QAOA distribution.

:func:`compile_evaluator` maps angle vectors to measurement distributions, on
the statevector engine in regimes I and II and the density-matrix engine under
gate noise; :func:`objective` scores one: its exact expectation in regime I, a
finite-shot estimate in II and III.  Scores are energies divided by the
configured scale, so optimizer behavior is comparable across regimes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ansatz import (
    AnsatzSpec,
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    ParameterPoint,
    compile_exact_layers,
    compile_noisy_layers,
    evolve,
)
from .encode import CompiledCost
from .instance import check_whole
from .simcore import NoiseModel, apply_readout_confusion, measure_distribution

#: Evaluation regimes: exact statevector (I), finite shots (II) and noisy
#: finite shots on the density-matrix engine (III).
REGIMES = ("I", "II", "III")

#: The measurement distributions at Nelder-Mead's raw vectors, (..., 2p) -> (..., 2^n),
#: as compile_evaluator builds it.
Evaluator = Callable[[Sequence[float]], np.ndarray]

#: Offset of each coordinate of the initial Nelder-Mead simplex.
NM_STEP = 0.25
#: The simplex stops once both its values and its vertices lie this close.
NM_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 5
    max_evals: int = 150
    shots_objective: int = 1024
    batches: int = 3
    shots_final: int = 4096

    def __post_init__(self) -> None:
        for name in ("restarts", "max_evals", "shots_objective", "batches", "shots_final"):
            check_whole(name, getattr(self, name), 1)


@dataclass(frozen=True)
class ObjectiveKind:
    """The evaluation regime, and the noise model of regime III."""

    regime: str
    noise: NoiseModel | None = None
    noisy_init: bool = True

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; regimes are {', '.join(REGIMES)}")
        if not isinstance(self.noise, (NoiseModel, type(None))):
            raise ValueError(f"noise must be a NoiseModel or None, got {self.noise!r}")
        if self.regime == "III" and self.noise is None:
            raise ValueError("regime III needs a noise model")
        if self.regime != "III" and self.noise not in (None, NoiseModel()):
            raise ValueError(f"regime {self.regime} is noiseless; noise applies to regime III only")

    @property
    def stochastic(self) -> bool:
        return self.regime != "I"


def compile_evaluator(spec: AnsatzSpec, cost: CompiledCost, kind: ObjectiveKind) -> Evaluator:
    """``probs(vecs)``: the measurement distributions at Nelder-Mead's raw vectors
    (the gammas, then the betas), (..., 2p) -> (..., 2^n), compiled once per run.

    ``probs`` is the one reader of an angle batch: it checks the width, rejects an
    empty batch and any non-finite angle before an engine runs, hands the engine
    (rows, p) gammas and betas, and shapes the result back.  Both engines evolve every
    row in one call: the exact engine's loop, then any readout confusion, or under gate
    noise the compiled noisy layers and read-out, whose reference is
    :func:`final_distribution`'s gate engine.
    ``probs`` returns fresh arrays; under gate noise it reuses its work arrays from
    call to call, so it takes one call at a time, and each :func:`minimize` call
    compiles its own."""
    spec.check_cost_size(cost.full_diagonal.n)
    noise, p = kind.noise, spec.depth  # None or all zero outside regime III
    noisy = noise is not None and noise.has_gate_noise
    if noisy:
        layers = compile_noisy_layers(spec, cost.ising, cost.scale, noise, kind.noisy_init)
    else:
        layers = compile_exact_layers(spec, cost.phase_diagonal, cost.scale)

    def probs(vecs: Sequence[float]) -> np.ndarray:
        angles = np.asarray(vecs, dtype=float)
        width = angles.shape[-1] if angles.ndim else f"the scalar {vecs!r}"
        if width != 2 * p:
            raise ValueError(f"expected {2 * p} angles, got {width}")
        batch = angles.shape[:-1]
        rows = math.prod(batch)  # not reshape(-1, 2p): 2p is 0 at depth 0
        if not rows:
            raise ValueError(f"angle batch of shape {angles.shape} has no rows")
        angles = angles.reshape(rows, 2 * p)
        if not np.isfinite(angles).all():
            raise ValueError(f"angles must be finite, got {angles[~np.isfinite(angles)][0]}")
        out = layers(angles[:, :p], angles[:, p:])
        if not noisy:  # the noisy layers include the read-out
            out = measure_distribution(out)
            if noise is not None and noise.has_readout_error:
                out = np.array([apply_readout_confusion(d, noise.p01, noise.p10) for d in out])
        return out.reshape(*batch, out.shape[-1])

    return probs


def final_distribution(
    spec: AnsatzSpec,
    cost: CompiledCost,
    params: ParameterPoint,
    kind: ObjectiveKind,
) -> np.ndarray:
    """Measurement distribution at the given angles.

    Under gate noise it runs the density-matrix gate engine, the reference of
    the compiled noisy layer, then the readout confusion; every other case is
    :func:`compile_evaluator`'s.
    """
    if kind.noise is None or not kind.noise.has_gate_noise:
        return compile_evaluator(spec, cost, kind)(params.as_vector())
    state = evolve(spec, cost.ising, params, engine="gate", scale=cost.scale, noise=kind.noise,
                   noisy_init=kind.noisy_init)
    return apply_readout_confusion(measure_distribution(state), kind.noise.p01, kind.noise.p10)


def objective(
    probs: np.ndarray,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """Scaled energy of the measurement distribution ``probs``: its expectation in
    regime I, a shot estimate drawn from ``rng`` in regimes II and III."""
    diag = cost.full_diagonal.diagonal
    if not kind.stochastic:
        return float(probs @ diag) / cost.scale
    if rng is None:
        raise ValueError("shot-based objectives need a random generator")
    # one draw of every batch, the same as one call per batch; the batch means
    # are summed left to right, as np.mean does for a few values
    total = 0.0
    for counts in rng.multinomial(cfg.shots_objective, probs, size=cfg.batches):
        total += float(counts @ diag) / cfg.shots_objective
    return total / cfg.batches / cost.scale


NelderMeadResult = tuple[np.ndarray, float, list[float]]

#: A row's step: a vertex (initial or shrunk), or a point on the line through its centroid.
_VERTEX, _REFLECT, _EXPAND, _CONTRACT = range(4)
#: A row's move in a round: keep its simplex, re-sort it, or replace its worst vertex and re-sort.
_STAY, _SORT, _REPLACE = range(3)


class _Row:
    """One simplex's scalar state between rounds; its vertices live in the round's arrays."""

    __slots__ = ("index", "history", "best_f", "best", "phase", "vertex", "coef", "top",
                 "reflected", "bar")

    def __init__(self, index: int, start: np.ndarray) -> None:
        self.index, self.history, self.best_f, self.best = index, [], math.inf, start
        self.phase, self.vertex, self.coef = _VERTEX, 0, 0.0


def simplex_rounds(
    score: Callable[[list[int], np.ndarray], Sequence[float]],
    starts: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_evals: int,
) -> list[NelderMeadResult]:
    """Box-clamped Nelder-Mead on one simplex per row of ``starts`` (rows, dim), all
    advanced in rounds: each round, ``score(ids, points)`` returns the values of every
    running row's next trial point (row ``ids[i]`` at ``points[i]``).  A row stops once
    its simplex converges or it has spent ``max_evals``.  Returns, per row, the best
    point evaluated, its value and the full evaluation history.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.  The initial
    simplex offsets each coordinate by ``NM_STEP`` (``-NM_STEP`` where that would leave
    the box).  The simplices are one (rows, dim + 1, dim) array, each sorted best vertex
    first, and their values one (rows, dim + 1) array.  A round makes each row's branch
    decision on Python floats, then does each kind of vector work once for all rows:
    the worst-vertex copy, the argsort, the centroids and clamped line points
    ``C + coef (C - worst)``, the vertex gather.  Each row keeps a lone simplex's bits.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)

    def clamp(x: np.ndarray) -> np.ndarray:  # np.clip's arithmetic without its wrapper
        return np.minimum(np.maximum(x, lower), upper)

    x0 = clamp(np.asarray(starts, dtype=float))
    count, dim = x0.shape
    simplex = np.repeat(x0[:, None], dim + 1, axis=1)
    axes, lead = np.arange(dim + 1), np.arange(count)[:, None]
    simplex[:, axes[1:], axes[:-1]] += np.where(x0 + NM_STEP <= upper, NM_STEP, -NM_STEP)
    simplex = clamp(simplex)
    values = np.full((count, dim + 1), math.inf)
    results: list[NelderMeadResult] = [(x, math.inf, []) for x in x0.copy()]
    rows = [_Row(i, x) for i, x in enumerate(x0)] if max_evals > 0 else []
    ids, points = list(range(count)), simplex[:, 0].copy()
    while rows:
        moves, sorts, shrinks, done = [], [], [], []  # moves: each row's _STAY, _SORT or _REPLACE
        due = False  # whether a row evaluates a vertex next
        for r, (row, fx) in enumerate(zip(rows, score(ids, points))):
            fx = float(fx)
            row.history.append(fx)
            if fx < row.best_f:
                row.best_f, row.best = fx, points[r]
            move = _STAY
            if len(row.history) >= max_evals:
                done.append(r)
            elif row.phase == _VERTEX:
                values[r, row.vertex] = fx
                if row.vertex < dim:
                    row.vertex += 1
                    due = True
                else:
                    move = _SORT
            elif row.phase == _REFLECT:
                best, second, worst = row.top
                if fx < best:
                    row.phase, row.coef, row.reflected = _EXPAND, 2.0, (fx, points[r])
                elif fx < second:
                    move = _REPLACE
                else:
                    outside = fx < worst
                    row.phase, row.coef = _CONTRACT, 0.5 if outside else -0.5
                    row.bar = fx if outside else worst
            elif row.phase == _EXPAND:
                move = _REPLACE
                fr, reflected = row.reflected
                if not fx < fr:  # the reflected point replaces the worst vertex; the
                    points[r], fx = reflected, fr  # expanded one it overwrites is no best
            elif fx < row.bar:
                move = _REPLACE
            else:  # shrink toward the best vertex
                shrinks.append(r)
                row.phase, row.vertex, row.coef = _VERTEX, 1, 0.0
                due = True
            if move != _STAY:
                sorts.append(r)
                if move == _REPLACE:
                    values[r, dim] = fx
            moves.append(move)

        if shrinks:
            shrunk = simplex[shrinks]
            simplex[shrinks, 1:] = clamp(shrunk[:, :1] + 0.5 * (shrunk[:, 1:] - shrunk[:, :1]))
        if sorts:
            moves = np.array(moves)
            np.copyto(simplex[:, dim], points, where=(moves == _REPLACE)[:, None])
            order = values.argsort(axis=1)
            if len(sorts) < len(rows):  # argsort may swap ties, so the rest keep their order
                np.copyto(order, axes, where=(moves == _STAY)[:, None])
            here = lead[:len(rows)]
            simplex, values = simplex[here, order], values[here, order]
            ordered = values.tolist()
            for r in sorts:
                vals = ordered[r]
                if vals[-1] - vals[0] < NM_SPREAD_TOL and np.abs(
                    simplex[r] - simplex[r, 0]
                ).max(initial=0.0) < NM_SPREAD_TOL:  # a 0-dimensional simplex is one point
                    done.append(r)
                else:
                    row = rows[r]
                    row.phase, row.coef, row.top = _REFLECT, 1.0, (vals[0], vals[-2], vals[-1])
        if done:
            for row in [rows[r] for r in done]:
                results[row.index] = (row.best.copy(), row.best_f, row.history)
            keep = [r for r in range(len(rows)) if r not in done]
            simplex, values = simplex[keep], values[keep]
            rows = [rows[r] for r in keep]
            ids = [row.index for row in rows]
            if not rows:
                break
        centroid = np.add.reduce(simplex[:, :-1], axis=1)
        centroid /= dim
        points = centroid - simplex[:, -1]
        points *= np.array([row.coef for row in rows])[:, None]
        points += centroid
        np.maximum(points, lower, out=points)
        np.minimum(points, upper, out=points)
        if due:  # rows evaluating a vertex take it in place of their line point
            vertex_rows = [r for r, row in enumerate(rows) if row.phase == _VERTEX]
            points[vertex_rows] = simplex[vertex_rows, [rows[r].vertex for r in vertex_rows]]
    return results


@dataclass
class OptimizeResult:
    params: ParameterPoint
    objective: float
    trace: list[tuple[int, int, float]]


def _parameter_bounds(depth: int) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([GAMMA_BOUNDS[0]] * depth + [BETA_BOUNDS[0]] * depth)
    upper = np.array([GAMMA_BOUNDS[1]] * depth + [BETA_BOUNDS[1]] * depth)
    return lower, upper


def minimize(
    spec: AnsatzSpec,
    cost: CompiledCost,
    kind: ObjectiveKind,
    cfg: OptimizerConfig,
    seed: int | Sequence[int],
) -> OptimizeResult | list[OptimizeResult]:
    """Multi-restart Nelder-Mead over the angle box, seeded by ``seed``; given a
    sequence of seeds, one such minimization per seed, returned as a list.

    Each restart draws its own start point and (for stochastic kinds) its
    own sampling stream.  The restarts of every seed are the rows of one
    :func:`simplex_rounds` call: each round evaluates every unfinished restart's
    pending point in one stacked evaluator call, then scores the rows in (seed,
    restart) order, each with its restart's own stream, so every restart draws and
    steps exactly as it would alone.  A restart whose simplex converges leaves the
    round.  The simplex bookkeeping per round grows far less than the row count from
    5 to 20 rows (measured in ``BENCH_26.json``).  Restart winners of stochastic
    objectives are compared by re-evaluating every candidate of a seed with that
    seed's one fixed evaluation stream (all seeds' candidates in one call), so the
    selection is reproducible and unbiased by per-restart sampling luck.  Every
    evaluator row has the bits of a one-row call, so a seed's result does not
    depend on the seeds run beside it.
    """
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if not seeds:
        raise ValueError("need at least one seed")
    restarts = cfg.restarts
    lower, upper = _parameter_bounds(spec.depth)
    evaluator = compile_evaluator(spec, cost, kind)

    children = [np.random.SeedSequence(s).spawn(restarts + 1) for s in seeds]
    eval_keys = [kids[-1] for kids in children]
    # one restart per row, in (seed, restart) order: run j is restart j % restarts
    rngs = [np.random.default_rng(child) for kids in children for child in kids[:-1]]
    starts = np.array([ParameterPoint.random(spec.depth, rng).as_vector() for rng in rngs])

    def score(ids: list[int], points: np.ndarray) -> list[float]:
        distributions = evaluator(points)
        return [objective(probs, cost, kind, cfg, rngs[j]) for j, probs in zip(ids, distributions)]

    candidates = simplex_rounds(score, starts, lower, upper, cfg.max_evals)
    if kind.stochastic:
        rows = evaluator(np.array([x for x, _, _ in candidates]))
        scores = [objective(probs, cost, kind, cfg, np.random.default_rng(eval_keys[j // restarts]))
                  for j, probs in enumerate(rows)]
    else:
        scores = [value for _, value, _ in candidates]
    out = []
    for i in range(len(seeds)):
        first = i * restarts
        winner = first + int(np.argmin(scores[first:first + restarts]))
        out.append(OptimizeResult(
            params=ParameterPoint.from_vector(candidates[winner][0]),
            objective=float(scores[winner]),
            trace=[(r, k, v) for r in range(restarts)
                   for k, v in enumerate(candidates[first + r][2])],
        ))
    return out[0] if np.ndim(seed) == 0 else out


def write_trace_csv(trace: Sequence[tuple[int, int, float]], path: str) -> None:
    """Persist a minimize() trace as (restart, evaluation, objective) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "evaluation", "objective"])
        for restart, index, value in trace:
            writer.writerow([restart, index, f"{value:.12g}"])
