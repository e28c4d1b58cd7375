"""The three run-level evaluation metrics and their 30-run aggregation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .encode import QuboProblem, qubo_value
from .simcore import ShotHistogram


@dataclass(frozen=True)
class RunMetrics:
    """The run metrics, listed once: each field is a run-JSON key, ``column`` its CSV stem."""

    optimal_probability: float = field(metadata={"column": "p_opt"})
    energy_gap: float = field(metadata={"column": "gap"})
    sampling_rank: int = field(metadata={"column": "rank"})


@dataclass(frozen=True)
class AggregateStats:
    """Sample mean, sample standard deviation, and normal 95% interval."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    runs: int


def optimal_state_probability(hist: ShotHistogram, optimal_set: Sequence[str]) -> float:
    """Empirical probability mass the histogram puts on the optimal strings."""
    if not hist.counts:
        raise ValueError("histogram is empty")
    return sum(hist.counts.get(bits, 0) for bits in optimal_set) / hist.shots


def expected_energy_gap(hist: ShotHistogram, qubo: QuboProblem, best_cost: float) -> float:
    """Mean penalized cost under the histogram, relative to the feasible optimum.

    Infeasible samples enter at their full penalty-QUBO value, so a
    distribution spread over constraint-violating strings shows a gap of
    hundreds of cost units even when its route costs are small.
    """
    expectation = sum(
        count * qubo_value(qubo, bits) for bits, count in hist.counts.items()
    ) / hist.shots
    return float(expectation - best_cost)


def sampling_rank(hist: ShotHistogram, optimal_set: Sequence[str]) -> int:
    """Competition rank of the best optimal string by observed frequency.

    Rank is 1 plus the number of strings sampled strictly more often; ties
    share the better rank.  If no optimal string was sampled at all, the
    rank is one worse than every observed string.
    """
    best_count = max((hist.counts.get(bits, 0) for bits in optimal_set), default=0)
    if best_count == 0:
        return 1 + len(hist.counts)
    return 1 + sum(1 for c in hist.counts.values() if c > best_count)


def run_metrics(
    hist: ShotHistogram, optimal_set: Sequence[str], qubo: QuboProblem, best_cost: float
) -> RunMetrics:
    """Every run metric of one seeded run's final histogram."""
    return RunMetrics(
        optimal_probability=optimal_state_probability(hist, optimal_set),
        energy_gap=expected_energy_gap(hist, qubo, best_cost),
        sampling_rank=sampling_rank(hist, optimal_set),
    )


def aggregate(values: Iterable[float]) -> AggregateStats:
    """Mean, (n-1)-normalized std, and mean +/- 1.96*std/sqrt(n)."""
    data = [float(v) for v in values]
    n = len(data)
    if n < 2:
        raise ValueError("aggregation needs at least two runs")
    mean = math.fsum(data) / n
    var = math.fsum((v - mean) ** 2 for v in data) / (n - 1)
    std = math.sqrt(var)
    half_width = 1.96 * std / math.sqrt(n)
    return AggregateStats(
        mean=mean, std=std, ci_low=mean - half_width, ci_high=mean + half_width, runs=n
    )
