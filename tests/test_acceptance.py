"""Acceptance suite: one test per criterion, one printed PASS line each.

Criteria 7-9 run the full 30-seed sweeps at package defaults and take a few
minutes; everything else is sub-second.  Run with ``pytest -s`` to watch the
per-criterion lines appear.
"""
import math
import os
import time

import numpy as np
import pytest

from conftest import (
    FEASIBLE,
    FEASIBLE_COST,
    all_bitstrings,
    penalty_sum_value,
    textbook_qaoa,
)
from vrpqaoa.ansatz import (
    AnsatzSpec,
    CONSTRAINT_AWARE,
    ParameterPoint,
    apply_mixer_layer,
    cost_circuit,
    evolve,
    prepare_initial_state,
)
from vrpqaoa.cli import (
    DEFAULT_DEPTH,
    NOISE_PRESETS,
    build_problem,
    load_instance,
    regime_objective_kind,
    run_cells,
    toy_instance_path,
)
from vrpqaoa.encode import (
    CONVENTION_A,
    CONVENTION_B,
    ising_value,
    penalize,
    qubo_value,
    to_cost_operator,
    to_ising,
)
from vrpqaoa.instance import build_constraints
from vrpqaoa.metrics import aggregate
from vrpqaoa.optimize import OptimizerConfig
from vrpqaoa.simcore import (
    DensityMatrix,
    StateVector,
    apply_diagonal_phase,
    apply_gate,
    apply_readout_confusion,
    average_infidelity,
    depolarize,
    measure_distribution,
    same_up_to_global_phase,
)
from test_simcore import random_circuit, random_density

SEEDS = tuple(range(30))
LAMBDA_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
BEST_LAMBDA_CANDIDATES = (0.6, 0.7, 0.8)
WORKERS = min(2, os.cpu_count() or 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def cell_metrics(records):
    """(model, lam) -> {'p_opt': [...], 'gap': [...], 'rank': [...]}."""
    out: dict = {}
    for r in records:
        bucket = out.setdefault((r.model, r.lam), {"p_opt": [], "gap": [], "rank": []})
        bucket["p_opt"].append(r.metrics.optimal_probability)
        bucket["gap"].append(r.metrics.energy_gap)
        bucket["rank"].append(float(r.metrics.sampling_rank))
    return out


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided paired sign test p-value; ties are excluded beforehand."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def ordering_holds(proposed: list, standard: list, smaller_is_better: bool):
    """The criterion's disjunction: CI separation or paired sign test at 5%."""
    agg_p, agg_s = aggregate(proposed), aggregate(standard)
    if smaller_is_better:
        mean_ok = agg_p.mean < agg_s.mean
        ci_separated = agg_p.ci_high < agg_s.ci_low
        wins = sum(1 for a, b in zip(proposed, standard) if a < b)
        losses = sum(1 for a, b in zip(proposed, standard) if a > b)
    else:
        mean_ok = agg_p.mean > agg_s.mean
        ci_separated = agg_p.ci_low > agg_s.ci_high
        wins = sum(1 for a, b in zip(proposed, standard) if a > b)
        losses = sum(1 for a, b in zip(proposed, standard) if a < b)
    p_value = sign_test_p(wins, losses)
    ok = mean_ok and (ci_separated or p_value < 0.05)
    detail = (
        f"proposed {agg_p.mean:.4f} [{agg_p.ci_low:.4f},{agg_p.ci_high:.4f}] vs "
        f"standard {agg_s.mean:.4f} [{agg_s.ci_low:.4f},{agg_s.ci_high:.4f}]; "
        f"CI separated={ci_separated}, sign test p={p_value:.2e} ({wins}W/{losses}L)"
    )
    return ok, detail


@pytest.fixture(scope="session")
def problem():
    return build_problem(load_instance(toy_instance_path()))


def _sweep(problem, regime: str, lambdas) -> list:
    noise = NOISE_PRESETS["paper"] if regime == "III" else None
    cells = [("standard", None)] + [(CONSTRAINT_AWARE, lam) for lam in lambdas]
    start = time.perf_counter()
    print(
        f"\n[acceptance] regime {regime}: {len(cells)} cells x {len(SEEDS)} seeds "
        f"at depth {DEFAULT_DEPTH} on {WORKERS} workers...",
        flush=True,
    )
    records = run_cells(
        problem,
        cells,
        SEEDS,
        regime_objective_kind(regime, noise),
        DEFAULT_DEPTH,
        OptimizerConfig(),
        master_seed=0,
        workers=WORKERS,
    )
    print(f"[acceptance] regime {regime} done in {time.perf_counter() - start:.1f} s", flush=True)
    return records


@pytest.fixture(scope="session")
def regime1(problem):
    return _sweep(problem, "I", LAMBDA_GRID), None


@pytest.fixture(scope="session")
def regime2(problem):
    return _sweep(problem, "II", BEST_LAMBDA_CANDIDATES)


@pytest.fixture(scope="session")
def regime3(problem):
    return _sweep(problem, "III", BEST_LAMBDA_CANDIDATES)


class TestCriterion1EncodingRegression:
    def test_printed_coefficients(self, toy_instance):
        start = time.perf_counter()
        cs = build_constraints(toy_instance)
        qubo = penalize(toy_instance, cs)
        ising = to_ising(qubo, CONVENTION_A)
        elapsed = time.perf_counter() - start

        x01, x02, x10, x12, x20, x21 = range(6)
        checks = {
            "P": (qubo.penalty, 435.6),
            "Q[x10,x20]": (qubo.quadratic[(x10, x20)], 1306.8),
            "Q[x01,x02]": (qubo.quadratic[(x01, x02)], 871.2),
            "Q[x10,x12]": (qubo.quadratic[(x10, x12)], 871.2),
            "Q[x01,x21]": (qubo.quadratic[(x01, x21)], 871.2),
            "Q[x20,x21]": (qubo.quadratic[(x20, x21)], 871.2),
            "Q[x02,x12]": (qubo.quadratic[(x02, x12)], 871.2),
            "q[x10]": (qubo.linear[x10], -2116.7),
            "q[x20]": (qubo.linear[x20], -2173.3),
            "q[x01]": (qubo.linear[x01], -1681.1),
            "q[x02]": (qubo.linear[x02], -1737.7),
            "q[x12]": (qubo.linear[x12], -828.3),
            "q[x21]": (qubo.linear[x21], -828.3),
            "constant": (qubo.constant, 5662.8),
            "J[x10,x20]": (ising.couplings[(x10, x20)], 326.7),
            "J[x01,x02]": (ising.couplings[(x01, x02)], 217.8),
            "h[x01]": (ising.fields[x01], -404.95),
            "h[x02]": (ising.fields[x02], -433.25),
            "h[x10]": (ising.fields[x10], -513.85),
            "h[x12]": (ising.fields[x12], 21.45),
            "h[x20]": (ising.fields[x20], -542.15),
            "h[x21]": (ising.fields[x21], 21.45),
            "ising constant": (ising.constant, 2395.8),
        }
        worst = max(abs(got - want) for got, want in checks.values())
        ok = worst <= 1e-6 and elapsed < 1.0
        report(
            "criterion 1 (encoding regression)",
            ok,
            f"{len(checks)} coefficients, worst |error| {worst:.2e}, {elapsed * 1000:.0f} ms",
        )


class TestCriterion2OracleEquivalence:
    def test_four_way_agreement(self, toy):
        start = time.perf_counter()
        ising_a = to_ising(toy.qubo, CONVENTION_A)
        ising_b = to_ising(toy.qubo, CONVENTION_B)
        operator = to_cost_operator(toy.qubo)
        worst = 0.0
        for bits in all_bitstrings(6):
            reference = penalty_sum_value(bits, toy.instance, toy.constraints, toy.qubo.penalty)
            for value in (
                qubo_value(toy.qubo, bits),
                ising_value(ising_a, bits),
                ising_value(ising_b, bits),
                operator.value(bits),
            ):
                worst = max(worst, abs(value - reference))
        oracle = toy.oracle
        elapsed = time.perf_counter() - start
        ok = (
            worst <= 1e-9
            and oracle.feasible_optima == (FEASIBLE,)
            and abs(oracle.feasible_cost - FEASIBLE_COST) <= 1e-9
            and oracle.qubo_argmin == (FEASIBLE,)
            and abs(oracle.qubo_min - FEASIBLE_COST) <= 1e-6
            and elapsed < 1.0
        )
        report(
            "criterion 2 (oracle equivalence)",
            ok,
            f"64 strings x 4 forms, worst dev {worst:.2e}; feasible set "
            f"{oracle.feasible_optima} at {oracle.feasible_cost}; {elapsed * 1000:.0f} ms",
        )


class TestCriterion3Initialization:
    def test_constraint_aware_init(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        loaded = prepare_initial_state(spec)
        synthesized = prepare_initial_state(spec, via_gates=True)
        probs = measure_distribution(loaded)
        support = {format(i, "06b") for i in np.flatnonzero(probs > 1e-12)}
        expected = {"000101", "100110", "011001", "111010"}
        support_ok = support == expected
        quarter_ok = all(abs(probs[int(b, 2)] - 0.25) <= 1e-12 for b in expected)
        norm_ok = abs(loaded.norm() - 1.0) <= 1e-12
        recipe_dev = float(np.abs(loaded.amplitudes - synthesized.amplitudes).max())
        uniform_p = measure_distribution(StateVector.uniform(6))[int(FEASIBLE, 2)]
        ratio_ok = (
            abs(probs[int(FEASIBLE, 2)] - 0.25) <= 1e-12
            and abs(uniform_p - 1 / 64) <= 1e-12
        )
        ok = support_ok and quarter_ok and norm_ok and recipe_dev <= 1e-12 and ratio_ok
        report(
            "criterion 3 (initialization)",
            ok,
            f"support {sorted(support)}, recipe deviation {recipe_dev:.2e}, "
            f"init optimum probability 0.25 vs uniform {uniform_p:.6f}",
        )


class TestCriterion4MixerPreservation:
    def test_subspace_and_reduction(self, toy):
        rng = np.random.default_rng(123)
        worst_leak = 0.0
        draws = 0
        for _ in range(100):
            lam = float(rng.uniform(0.0, 1.5))
            depth = int(rng.integers(1, 4))
            spec = AnsatzSpec.constraint_aware(toy.constraints, depth=depth, lam=lam)
            state = prepare_initial_state(spec)
            for _ in range(depth):
                # gamma is drawn alongside beta but mixers ignore it by design
                rng.uniform(-math.pi, math.pi)
                apply_mixer_layer(state, spec, float(rng.uniform(0.0, math.pi / 2)))
            probs = state.probabilities()
            leak = 0.0
            for index, p in enumerate(probs):
                bits = format(index, "06b")
                if any(bits[a] == bits[b] for a, b in spec.xy_pairs):
                    leak += float(p)
            worst_leak = max(worst_leak, leak)
            draws += 1

        reduced = AnsatzSpec(n=6, depth=3, lam=1.0)  # no pairs, uniform init, full-weight X
        params = ParameterPoint.random(3, rng)
        state_a = evolve(reduced, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
        state_b = textbook_qaoa(toy.cost, params)
        reduction_dev = float(np.abs(state_a.amplitudes - state_b.amplitudes).max())

        ok = worst_leak <= 1e-10 and reduction_dev <= 1e-12
        report(
            "criterion 4 (mixer subspace preservation)",
            ok,
            f"{draws} random draws, worst protected-pattern leak {worst_leak:.2e}; "
            f"lambda=1 reduction deviation {reduction_dev:.2e}",
        )


class TestCriterion5EngineEquivalence:
    def test_density_vs_statevector_and_cost_paths(self, toy):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 5))
            circuit = random_circuit(n, 14, rng)
            sv, dm = StateVector(n), DensityMatrix(n)
            for op in circuit:
                apply_gate(sv, op)
                apply_gate(dm, op)
            dev = float(np.abs(measure_distribution(sv) - measure_distribution(dm)).max())
            worst = max(worst, dev)

        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        state_phase = StateVector(6, amps / np.linalg.norm(amps))
        state_gates = state_phase.copy()
        gamma = 0.63
        apply_diagonal_phase(state_phase, toy.cost.phase_diagonal, gamma, toy.cost.scale)
        for op in cost_circuit(toy.cost.ising, gamma, toy.cost.scale):
            apply_gate(state_gates, op)
        phase_equal = same_up_to_global_phase(
            state_phase.amplitudes, state_gates.amplitudes, tol=1e-9
        )
        ok = worst <= 1e-9 and phase_equal
        report(
            "criterion 5 (engine equivalence)",
            ok,
            f"50 random circuits, worst probability deviation {worst:.2e}; "
            f"gate cost == diagonal phase up to global phase: {phase_equal}",
        )


class TestCriterion6NoiseSanity:
    def test_channel_numbers(self):
        noise = NOISE_PRESETS["paper"]
        r1 = average_infidelity(noise.p1, 1)
        r2 = average_infidelity(noise.p2, 2)
        infidelity_ok = abs(r1 - 7.5e-5) <= 1e-12 and abs(r2 - 9.375e-4) <= 1e-12
        props_ok = abs(noise.r1_bar - 7.5e-5) <= 1e-12 and abs(noise.r2_bar - 9.375e-4) <= 1e-12

        rng = np.random.default_rng(55)
        purity_ok = True
        for _ in range(25):
            rho = random_density(3, rng)
            before = rho.purity()
            targets = (int(rng.integers(3)),) if rng.random() < 0.5 else (0, 2)
            depolarize(rho, targets, float(rng.uniform(0.0, 1.0)))
            purity_ok &= rho.purity() <= before + 1e-12

        readout = apply_readout_confusion(np.array([1.0, 0.0]), 0.001, 0.001)
        readout_ok = np.allclose(readout, [0.999, 0.001], atol=1e-12)
        ok = infidelity_ok and props_ok and purity_ok and readout_ok
        report(
            "criterion 6 (noise sanity)",
            ok,
            f"r1_bar={r1:.3e}, r2_bar={r2:.3e}, purity contraction={purity_ok}, "
            f"readout(1,0)->({readout[0]:.3f},{readout[1]:.3f})",
        )


class TestCriterion7RegimeITrends:
    def test_orderings(self, regime1):
        records, _ = regime1
        stats = cell_metrics(records)
        standard = stats[("standard", None)]
        best_po_lam = max(
            BEST_LAMBDA_CANDIDATES,
            key=lambda lam: aggregate(stats[(CONSTRAINT_AWARE, lam)]["p_opt"]).mean,
        )
        best_gap_lam = min(
            BEST_LAMBDA_CANDIDATES,
            key=lambda lam: aggregate(stats[(CONSTRAINT_AWARE, lam)]["gap"]).mean,
        )
        po_ok, po_detail = ordering_holds(
            stats[(CONSTRAINT_AWARE, best_po_lam)]["p_opt"],
            standard["p_opt"],
            smaller_is_better=False,
        )
        gap_ok, gap_detail = ordering_holds(
            stats[(CONSTRAINT_AWARE, best_gap_lam)]["gap"],
            standard["gap"],
            smaller_is_better=True,
        )
        report(
            "criterion 7 (regime I trends)",
            po_ok and gap_ok,
            f"p_opt at lambda={best_po_lam}: {po_detail} | "
            f"gap at lambda={best_gap_lam}: {gap_detail}",
        )


class TestCriterion8RegimeIIandIIITrends:
    def _assert_regime(self, records, name):
        stats = cell_metrics(records)
        standard = stats[("standard", None)]
        best_po_lam = max(
            BEST_LAMBDA_CANDIDATES,
            key=lambda lam: aggregate(stats[(CONSTRAINT_AWARE, lam)]["p_opt"]).mean,
        )
        best_gap_lam = min(
            BEST_LAMBDA_CANDIDATES,
            key=lambda lam: aggregate(stats[(CONSTRAINT_AWARE, lam)]["gap"]).mean,
        )
        po_ok, po_detail = ordering_holds(
            stats[(CONSTRAINT_AWARE, best_po_lam)]["p_opt"],
            standard["p_opt"],
            smaller_is_better=False,
        )
        gap_ok, gap_detail = ordering_holds(
            stats[(CONSTRAINT_AWARE, best_gap_lam)]["gap"],
            standard["gap"],
            smaller_is_better=True,
        )
        report(
            f"criterion 8 ({name} trends)",
            po_ok and gap_ok,
            f"p_opt at lambda={best_po_lam}: {po_detail} | "
            f"gap at lambda={best_gap_lam}: {gap_detail}",
        )

    def test_regime_two(self, regime2):
        self._assert_regime(regime2, "regime II")

    def test_regime_three(self, regime3):
        self._assert_regime(regime3, "regime III")

    def test_noise_does_not_help(self, regime1, regime3):
        records1, _ = regime1
        stats1, stats3 = cell_metrics(records1), cell_metrics(regime3)
        offenders = []
        for key in stats3:
            mean3 = aggregate(stats3[key]["p_opt"]).mean
            mean1 = aggregate(stats1[key]["p_opt"]).mean
            if mean3 > mean1 + 0.05:
                offenders.append((key, mean1, mean3))
        report(
            "criterion 8 (regime III bounded by regime I)",
            not offenders,
            "all regime III p_opt means within +0.05 of regime I"
            if not offenders
            else f"exceeded for {offenders}",
        )


class TestCriterion9LambdaShape:
    def test_interior_peak(self, regime1):
        records, _ = regime1
        stats = cell_metrics(records)
        means = {
            lam: aggregate(stats[(CONSTRAINT_AWARE, lam)]["p_opt"]).mean
            for lam in LAMBDA_GRID
        }
        interior_best = max(means[lam] for lam in (0.5, 0.6, 0.7, 0.8, 0.9))
        ok = interior_best > means[0.4] and interior_best > means[1.0]
        report(
            "criterion 9 (lambda non-monotonicity)",
            ok,
            "p_opt means "
            + ", ".join(f"{lam:g}:{means[lam]:.4f}" for lam in LAMBDA_GRID)
            + f"; interior best {interior_best:.4f} vs endpoints "
            f"{means[0.4]:.4f} / {means[1.0]:.4f}",
        )


class TestCriterion10Statistics:
    def test_aggregate_fixtures(self, toy):
        from vrpqaoa.metrics import (
            expected_energy_gap,
            optimal_state_probability,
            sampling_rank,
        )
        from vrpqaoa.simcore import ShotHistogram

        stats = aggregate([0.0, 1.0])
        half = 1.96 * math.sqrt(0.5) / math.sqrt(2.0)
        agg_ok = (
            abs(stats.mean - 0.5) <= 1e-12
            and abs(stats.std - math.sqrt(0.5)) <= 1e-12
            and abs(stats.ci_low - (0.5 - half)) <= 1e-12
            and abs(stats.ci_high - (0.5 + half)) <= 1e-12
        )
        thirty = aggregate([0.37] * 30)
        collapse_ok = (
            abs(thirty.ci_high - thirty.ci_low) <= 1e-12
            and abs(thirty.mean - 0.37) <= 1e-12
        )

        h = ShotHistogram(counts={FEASIBLE: 250, "000000": 750}, shots=1000)
        metric_ok = (
            abs(optimal_state_probability(h, (FEASIBLE,)) - 0.25) <= 1e-12
            and sampling_rank(h, (FEASIBLE,)) == 2
            and abs(
                expected_energy_gap(
                    ShotHistogram(counts={"000000": 10}, shots=10),
                    toy.qubo,
                    FEASIBLE_COST,
                )
                - 5530.8
            )
            <= 1e-6
        )
        ok = agg_ok and collapse_ok and metric_ok
        report(
            "criterion 10 (statistics)",
            ok,
            f"CI fixtures exact to 1e-12: {agg_ok}; constant-series collapse: "
            f"{collapse_ok}; metric examples: {metric_ok}",
        )
