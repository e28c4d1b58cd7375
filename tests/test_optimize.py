import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (FEASIBLE, GEN1, ONE_VEHICLE, all_bitstrings, penalty_sum_value,
                      reference_nelder_mead)
from vrpqaoa.ansatz import (
    CONSTRAINT_AWARE,
    AnsatzSpec,
    ConstraintComponent,
    ParameterPoint,
    _axis_terms,
    compile_noisy_layers,
    evolve,
    init_circuit,
)
from vrpqaoa.cli import build_problem, run_single
from vrpqaoa.encode import CostOperator, QuboProblem, penalize, to_cost_operator
from vrpqaoa.instance import (BRUTE_FORCE_LIMIT, EQUAL, ConstraintSet, LinearConstraint,
                              VrpInstance)
from vrpqaoa.optimize import (
    ObjectiveKind,
    OptimizerConfig,
    _parameter_bounds,
    compile_evaluator,
    final_distribution,
    minimize,
    objective,
    simplex_rounds,
    write_trace_csv,
)
from vrpqaoa.simcore import (
    DensityMatrix,
    NoiseModel,
    StateVector,
    _depolarizing_mask,
    _ptm_terms,
    apply_diagonal_phase,
    apply_readout_confusion,
    depolarize,
    measure_distribution,
    sample,
)

PAPER_NOISE = NoiseModel(p1=0.00015, p2=0.00125, p01=0.001, p10=0.001)


def pair_component(qubits):
    """A one-hot component on two qubits: the pattern 01 (its complement 10 admitted too)."""
    return ConstraintComponent(qubits, "01")


def one_simplex(f, x0, lower, upper, max_evals):
    """``simplex_rounds`` on one row scored by ``f``: best point, its value, history."""
    return simplex_rounds(lambda ids, points: [f(x) for x in points], np.array([x0]),
                          lower, upper, max_evals)[0]


def assert_same_run(a, b):
    """Two Nelder-Mead results with the same bits: best point, best value, history."""
    assert (a[0].tolist(), a[1], a[2]) == (b[0].tolist(), b[1], b[2])


class TestNelderMead:
    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -0.6])

        def f(x):
            return float(np.sum((x - target) ** 2))

        args = (f, np.array([1.5, 1.5]), np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 200)
        best_x, best_f, history = one_simplex(*args)
        assert_same_run((best_x, best_f, history), reference_nelder_mead(*args))
        assert np.abs(best_x - target).max() < 1e-3
        assert best_f < 1e-6
        assert len(history) <= 200

    def test_history_is_pinned(self):
        # every step is elementwise float arithmetic (clamp, centroid, moves) on a
        # sum of three terms, so the history is the same on every platform
        target, weights = np.array([0.3, -0.6, 1.1]), np.array([1.0, 2.0, 0.5])

        def f(x):
            return float(np.sum(weights * (x - target) ** 2))

        args = (f, np.array([1.5, 1.5, -1.0]), np.full(3, -2.0), np.array([2.0, 1.0, 2.0]), 40)
        best_x, best_f, history = one_simplex(*args)
        assert_same_run((best_x, best_f, history), reference_nelder_mead(*args))
        assert history == [
            8.765, 9.427500000000002, 7.290000000000001, 8.27125, 6.880277777777776,
            5.8462499999999995, 5.520555555555555, 4.19, 3.7379166666666666, 2.47125,
            1.978888888888889, 1.4899999999999998, 1.101805555555556, 2.89625, 3.399876543209875,
            1.7455555555555549, 3.6934722222222214, 1.4851388888888888, 1.4307407407407415,
            1.3278600823045275, 0.7791946730681311, 0.5189866255144044, 0.9685550983081851,
            1.1179327338312257, 0.8246593507087343, 0.5036574074074073, 0.5934722222222197,
            0.2517842808514976, 0.19205761316872674, 0.34619570187471566, 0.043672903012751826,
            0.13896833561956734, 0.7755073399493125, 0.18143335055067292, 0.14409756994034514,
            0.26739426424604745, 0.08260259901677672, 0.043683348446370854, 0.14515836087251213,
            0.0465267566652997,
        ]
        assert best_x.tolist() == [0.4670781893004092, -0.576131687242796, 0.9290123456790109]
        assert best_f == 0.043672903012751826 == min(history)

    def test_respects_budget(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x**2))

        one_simplex(f, np.zeros(3), -np.ones(3), np.ones(3), 17)
        assert len(calls) <= 17

    def test_spends_exactly_its_budget(self):
        noise = np.random.default_rng(0)
        for max_evals in range(1, 41):
            calls = []

            def f(x):  # a fresh draw per call never lets the simplex converge
                calls.append(1)
                return float(np.sum(x**2) + noise.normal())

            _, _, history = one_simplex(f, np.zeros(3), -np.ones(3), np.ones(3), max_evals)
            assert len(calls) == len(history) == max_evals

    def test_single_evaluation_returns_start(self):
        start = np.array([0.4, 0.1])
        best_x, best_f, history = one_simplex(
            f=lambda x: float(np.sum(x**2)),
            x0=start,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
            max_evals=1,
        )
        assert np.allclose(best_x, start)
        assert len(history) == 1

    def test_clamps_to_box(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return float(-np.sum(x))  # pushes toward the upper corner

        one_simplex(f, np.array([0.9, 0.9]), np.zeros(2), np.ones(2), 60)
        stacked = np.array(seen)
        assert (stacked >= -1e-12).all() and (stacked <= 1 + 1e-12).all()

    def test_rows_cut_or_converged_at_any_round_keep_a_lone_simplex(self):
        # 12 rows on a 4-d box, most starting outside it: smooth bowls, and waves
        # rounded to whole numbers, so vertices tie and shrunk vertices can score worse
        # than unshrunk ones.  Budgets of 1-4 end rows inside their initial simplex
        # and many of 6-30 inside a shrink; at 400 some rows converge while the others
        # spend the budget (on x86-64, 7 rows after 242 to 396 evaluations).
        rng = np.random.default_rng(7)
        lower, upper = np.full(4, -1.0), np.full(4, 1.0)
        starts, targets = rng.uniform(-2, 2, (12, 4)), rng.uniform(-1.5, 1.5, (12, 4))
        objectives = [
            (lambda x, t=t: float(np.sum((x - t) ** 2))) if i % 2 == 0
            else (lambda x, t=t: round(float(np.sum(np.sin(17 * x - t))), 0))
            for i, t in enumerate(targets)
        ]

        def score(ids, points):
            return [objectives[j](x) for j, x in zip(ids, points)]

        for budget in [*range(1, 31), 400]:
            results = simplex_rounds(score, starts, lower, upper, budget)
            for f, start, result in zip(objectives, starts, results):
                assert_same_run(result, reference_nelder_mead(f, start, lower, upper, budget))
        spent = sorted(len(history) for _, _, history in results)
        assert spent[0] < spent[-1] == 400

    def test_best_point_at_box_corner(self):
        best_x, best_f, _ = one_simplex(
            f=lambda x: float(np.sum(x)),
            x0=np.array([0.5, 0.5]),
            lower=np.zeros(2),
            upper=np.ones(2),
            max_evals=120,
        )
        assert np.abs(best_x).max() < 1e-3


class TestObjective:
    def test_zero_depth_standard_closed_form(self, toy):
        spec = AnsatzSpec.standard(6, 0)
        kind = ObjectiveKind("I")
        probs = final_distribution(spec, toy.cost, ParameterPoint((), ()), kind)
        value = objective(probs, toy.cost, kind, OptimizerConfig())
        mean_cost = np.mean(
            [penalty_sum_value(b, toy.instance, toy.constraints, toy.qubo.penalty)
             for b in all_bitstrings(6)]
        )
        assert value == pytest.approx(mean_cost / toy.cost.scale, abs=1e-9)

    def test_zero_depth_constraint_aware_closed_form(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        kind = ObjectiveKind("I")
        probs = final_distribution(spec, toy.cost, ParameterPoint((), ()), kind)
        value = objective(probs, toy.cost, kind, OptimizerConfig())
        support_costs = [
            penalty_sum_value(format(i, "06b"), toy.instance, toy.constraints, toy.qubo.penalty)
            for i in np.flatnonzero(spec.support)
        ]
        assert 132.0 in [round(c, 6) for c in support_costs]
        assert value == pytest.approx(np.mean(support_costs) / toy.cost.scale, abs=1e-9)

    def test_shot_estimate_approaches_exact(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        cfg = OptimizerConfig(shots_objective=100_000, batches=1)
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind("I"))
        exact = objective(probs, toy.cost, ObjectiveKind("I"), cfg)
        diag = toy.cost.full_diagonal.diagonal
        variance = float(probs @ diag**2 - (probs @ diag) ** 2)
        se = math.sqrt(variance / cfg.shots_objective) / toy.cost.scale
        estimate = objective(
            probs, toy.cost, ObjectiveKind("II"), cfg, rng=np.random.default_rng(4)
        )
        assert abs(estimate - exact) < 3 * se

    @pytest.mark.parametrize("batches", [1, 3, 4])
    def test_shot_objective_is_one_draw_per_batch(self, toy, batches):
        # one multinomial call over every batch gives the draws and leaves the
        # generator as one call per batch does; the means sum as np.mean sums them
        spec = AnsatzSpec.constraint_aware(toy.constraints, 2, 0.7)
        kind, cfg = ObjectiveKind("II"), OptimizerConfig(batches=batches)
        evaluator = compile_evaluator(spec, toy.cost, kind)
        diag, shots = toy.cost.full_diagonal.diagonal, cfg.shots_objective
        for seed in range(10):
            point = ParameterPoint.random(2, np.random.default_rng(seed))
            probs = evaluator(point.as_vector())
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            value = objective(probs, toy.cost, kind, cfg, rng)
            means = [float(reference.multinomial(shots, probs) @ diag) / shots
                     for _ in range(batches)]
            assert value == float(np.mean(means)) / toy.cost.scale
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_shot_kind_requires_rng(self, toy):
        spec, kind = AnsatzSpec.standard(6, 1), ObjectiveKind("II")
        probs = final_distribution(spec, toy.cost, ParameterPoint((0.1,), (0.2,)), kind)
        with pytest.raises(ValueError, match="shot-based objectives need a random generator"):
            objective(probs, toy.cost, kind, OptimizerConfig())

    def test_noisy_kind_runs_and_shifts_distribution(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        clean = final_distribution(spec, toy.cost, params, ObjectiveKind("I"))
        noisy = final_distribution(spec, toy.cost, params, ObjectiveKind("III", PAPER_NOISE))
        assert noisy.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(noisy - clean).max() > 1e-6  # noise visibly acts
        assert np.abs(noisy - clean).max() < 0.05  # but stays perturbative

    def test_noisy_kind_needs_noise_model(self):
        with pytest.raises(ValueError, match="regime III needs a noise model"):
            ObjectiveKind(regime="III")

    def test_unknown_regime_is_rejected(self):
        with pytest.raises(ValueError, match="unknown regime 'IV'"):
            ObjectiveKind("IV")

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda toy: ObjectiveKind("I", NoiseModel(p1=0.5)), "regime I is noiseless"),
            (lambda toy: ObjectiveKind("II", NoiseModel(p01=0.1)), "regime II is noiseless"),
            (
                lambda toy: compile_evaluator(
                    AnsatzSpec.standard(5, 1), toy.cost, ObjectiveKind("III", PAPER_NOISE)
                ),
                "the ansatz has 5 qubits but the cost has 6",
            ),
            (lambda toy: AnsatzSpec(6, 1, 0.5, ((0, 9),)), r"xy_pairs \(\(0, 9\),\) name a qubit"),
            (lambda toy: AnsatzSpec(6, 1, math.nan), "lam must be a finite real number, got nan"),
            (lambda toy: AnsatzSpec(6, 1, -0.5), "lam must be >= 0, got -0.5"),
            (lambda toy: AnsatzSpec(6, 1, True), "lam must be a finite real number, got True"),
            (lambda toy: AnsatzSpec(6, 1, "0.5"), "lam must be a finite real number, got '0.5'"),
            (lambda toy: AnsatzSpec(6.0, 1), "n must be a whole number, got 6.0"),
            (lambda toy: AnsatzSpec(True, 1), "n must be a whole number, got True"),
            (lambda toy: AnsatzSpec(0, 1), "n must be >= 1, got 0"),
            (
                lambda toy: VrpInstance(toy.instance.distances, 1.5),
                "vehicles must be a whole number, got 1.5",
            ),
            (
                lambda toy: VrpInstance(toy.instance.distances, True),
                "vehicles must be a whole number, got True",
            ),
            (
                lambda toy: VrpInstance(5, 1),
                "distances must be a list of rows of numbers, got 5",
            ),
            (
                lambda toy: VrpInstance(((0, 1), 5), 1),
                r"distances must be a list of rows of numbers, got \(\(0, 1\), 5\)",
            ),
            (
                lambda toy: VrpInstance(((0.0, "4.7"), (4.7, 0.0)), 1),
                r"distance \[0\]\[1\] must be a finite real number, got '4.7'",
            ),
            (
                lambda toy: evolve(
                    AnsatzSpec.standard(6, 1), toy.cost.phase_diagonal,
                    ParameterPoint((0.1,), (0.2,)), engine="exact", scale=math.nan,
                ),
                "scale must be finite and > 0, got nan",
            ),
            (
                lambda toy: evolve(
                    AnsatzSpec.standard(6, 1), toy.cost.ising, ParameterPoint((0.1,), (0.2,)),
                    engine="gate", scale=math.nan,
                ),
                "scale must be finite and > 0, got nan",
            ),
            (
                lambda toy: depolarize(DensityMatrix(1), (0,), True),
                "channel parameter must be a finite real number, got True",
            ),
            (
                lambda toy: ObjectiveKind("III", "paper"),
                "noise must be a NoiseModel or None, got 'paper'",
            ),
            (
                lambda toy: evolve(
                    AnsatzSpec.standard(6, 1), toy.cost.phase_diagonal,
                    ParameterPoint((0.1,), (0.2,)), engine="exact", scale=True,
                ),
                "scale must be a finite real number, got True",
            ),
            (
                lambda toy: evolve(
                    AnsatzSpec.standard(6, 1), toy.cost.ising, ParameterPoint((0.1,), (0.2,)),
                    engine="gate", scale="1",
                ),
                "scale must be a finite real number, got '1'",
            ),
            (lambda toy: OptimizerConfig(max_evals=True), "max_evals must be a whole number"),
            (lambda toy: OptimizerConfig(restarts=2.5), "restarts must be a whole number"),
            (
                lambda toy: evolve(
                    AnsatzSpec.standard(5, 1), toy.cost.ising, ParameterPoint((0.1,), (0.2,)),
                    engine="gate", scale=toy.cost.scale, noise=PAPER_NOISE,
                ),
                "cost diagonal does not match the state size: the ansatz has 5 qubits but the cost has 6",
            ),
            (
                lambda toy: final_distribution(
                    AnsatzSpec.standard(5, 1), toy.cost, ParameterPoint((0.1,), (0.2,)),
                    ObjectiveKind("III", PAPER_NOISE),
                ),
                "the state size: the ansatz has 5 qubits but the cost has 6",
            ),
            (lambda toy: ParameterPoint((math.nan,), (0.2,)), "gamma must be a finite real number, got nan"),
            (lambda toy: ParameterPoint((math.inf,), (0.2,)), "gamma must be a finite real number, got inf"),
            (lambda toy: ParameterPoint(("a",), (0.1,)), "gamma must be a finite real number, got 'a'"),
            (lambda toy: ParameterPoint((0.1,), (-math.inf,)), "beta must be a finite real number, got -inf"),
            (lambda toy: ParameterPoint(0.5, 0.2), "gamma must be a sequence of angles, got 0.5"),
            (lambda toy: ParameterPoint((0.1,), 0.2), "beta must be a sequence of angles, got 0.2"),
            (
                lambda toy: AnsatzSpec(6, 1, components=(pair_component((0, 6)),)),
                r"components \(\(0, 6\),\) name a qubit outside 0..5 or twice",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, components=(pair_component((-1, 0)),)),
                r"components \(\(-1, 0\),\) name a qubit outside 0..5 or twice",
            ),
            (
                lambda toy: AnsatzSpec(
                    6, 1, components=(pair_component((0, 1)), pair_component((1, 2)))
                ),
                r"components \(\(0, 1\), \(1, 2\)\) name a qubit outside 0..5 or twice",
            ),
            (
                lambda toy: ConstraintComponent((0, 1), "011"),
                "pattern '011' must be 2 binary digits, one per qubit",
            ),
            (
                lambda toy: ConstraintComponent((0, 1), "0a"),
                "pattern '0a' must be 2 binary digits, one per qubit",
            ),
            (
                lambda toy: ConstraintComponent(None, "01"),
                "component qubits None must be a list or tuple",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, 0.7, ((True, 3),)),
                r"xy_pairs \(\(True, 3\),\) qubit must be a whole number, got True",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, 0.7, ((0.0, 1.0),)),
                r"xy_pairs \(\(0.0, 1.0\),\) qubit must be a whole number, got 0.0",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, 0.7, (("a", "b"),)),
                r"xy_pairs \(\('a', 'b'\),\) qubit must be a whole number, got 'a'",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, components=(ConstraintComponent((True, 3), "01"),)),
                r"components \(\(True, 3\),\) qubit must be a whole number, got True",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, 0.5, ((0, 1, 2),)),
                r"xy_pairs \(\(0, 1, 2\),\) must be pairs of qubits",
            ),
            (
                lambda toy: AnsatzSpec(6, 1, components=((0, 1),)),
                r"components \(\(0, 1\),\) must be ConstraintComponents",
            ),
            (lambda toy: AnsatzSpec(6, 1, components=None), "components None must be"),
            (lambda toy: AnsatzSpec(6, 1, xy_pairs=None), "xy_pairs None must be pairs of qubits"),
            (lambda toy: AnsatzSpec(6, 1, xy_pairs=5), "xy_pairs 5 must be pairs of qubits"),
            (
                lambda toy: sample(np.ones(3) / 3, 10, 0),
                "probability vector length must be a power of two",
            ),
            (
                lambda toy: apply_readout_confusion(np.array([]), 0.1, 0.0),
                "probability vector length must be a power of two",
            ),
            (lambda toy: NoiseModel(p1=True), "p1 must be a finite real number, got True"),
            (lambda toy: NoiseModel(p1="0.1"), "p1 must be a finite real number, got '0.1'"),
            (lambda toy: NoiseModel(p01=0.6), r"p01 must lie in \[0, 0.5\], got 0.6"),
            (lambda toy: AnsatzSpec(6, 1.5), "depth must be a whole number, got 1.5"),
            (lambda toy: AnsatzSpec(6, True), "depth must be a whole number, got True"),
            (
                lambda toy: measure_distribution(StateVector(1, np.array([math.nan, 0.0]))),
                "state has no probability mass",
            ),
            (
                lambda toy: compile_evaluator(
                    AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7), toy.cost,
                    ObjectiveKind("III", PAPER_NOISE))([math.nan, 0.2]),
                "angles must be finite, got nan",
            ),
            (  # one NaN row of a stacked call
                lambda toy: compile_evaluator(
                    AnsatzSpec.standard(6, 1), toy.cost,
                    ObjectiveKind("III", PAPER_NOISE))([[0.4, 0.2], [0.1, math.nan], [0.3, 0.5]]),
                "angles must be finite, got nan",
            ),
            (
                lambda toy: compile_evaluator(
                    AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7), toy.cost,
                    ObjectiveKind("III", PAPER_NOISE))([math.inf, 0.2]),
                "angles must be finite, got inf",
            ),
            (
                lambda toy: compile_evaluator(AnsatzSpec.standard(6, 1), toy.cost,
                                              ObjectiveKind("I"))([0.4, -math.inf]),
                "angles must be finite, got -inf",
            ),
            *(
                (
                    lambda toy, kind=kind: compile_evaluator(
                        AnsatzSpec.standard(6, 0), toy.cost, kind)(0.5),
                    "expected 0 angles, got the scalar 0.5",
                )
                for kind in (ObjectiveKind("I"), ObjectiveKind("III", PAPER_NOISE))
            ),
            *(
                (
                    lambda toy, kind=kind: compile_evaluator(
                        AnsatzSpec.standard(6, 2), toy.cost, kind)(np.zeros((0, 4))),
                    r"angle batch of shape \(0, 4\) has no rows",
                )
                for kind in (ObjectiveKind("I"),
                             ObjectiveKind("III", NoiseModel(p01=0.02, p10=0.01)),
                             ObjectiveKind("III", PAPER_NOISE))
            ),
            (
                lambda toy: apply_readout_confusion(np.array([1.0, 0.0]), 0.7, 0.0),
                r"p01 must lie in \[0, 0.5\], got 0.7",
            ),
            (
                lambda toy: apply_readout_confusion(np.array([1.0, 0.0]), math.nan, 0.0),
                "p01 must be a finite real number, got nan",
            ),
            *(
                (
                    lambda toy, probs=probs, rates=rates: apply_readout_confusion(
                        np.array(probs), *rates),
                    message,
                )
                for probs, message in (
                    ([math.nan, 1.0], "probabilities must be finite and >= 0, got nan"),
                    ([0.5, math.inf], "probabilities must be finite and >= 0, got inf"),
                    ([-0.1, 0.6, 0.5, 0.0], "probabilities must be finite and >= 0, got -0.1"),
                    ([0.0, 0.0], "probabilities sum to 0"),
                )
                for rates in ((0.1, 0.05), (0.0, 0.0))
            ),
            (lambda toy: sample([0.5, 0.5], 10.5, 0), "shots must be a whole number, got 10.5"),
            (lambda toy: sample([0.5, 0.5], True, 0), "shots must be a whole number, got True"),
            (
                lambda toy: penalize(toy.instance, toy.constraints, True),
                "penalty must be a finite real number, got True",
            ),
            (
                lambda toy: penalize(toy.instance, toy.constraints, "400"),
                "penalty must be a finite real number, got '400'",
            ),
            (
                lambda toy: penalize(toy.instance, ConstraintSet(2, ())),
                "constraint set does not match the instance's variable count",
            ),
            (
                lambda toy: ParameterPoint.from_vector([0.1, 0.2, 0.3]),
                "parameter vector length must be even",
            ),
            (lambda toy: StateVector(2, np.zeros(3)), "amplitude array has wrong length"),
            (
                lambda toy: depolarize(DensityMatrix(3), (0, 1, 2), 0.1),
                "depolarize expects 1 or 2 target qubits",
            ),
            (
                lambda toy: apply_diagonal_phase(
                    StateVector(2), CostOperator(3, np.zeros(8)), 0.1, 1.0),
                "cost diagonal does not match the state size",
            ),
            (lambda toy: LinearConstraint((0, 1), 1, "less"), "unknown relation 'less'"),
            (lambda toy: LinearConstraint((0, 0), 1, EQUAL), "repeated variable in constraint"),
            (
                lambda toy: ConstraintSet(2, (LinearConstraint((0, 2), 1, EQUAL, "edge"),)),
                "constraint 'edge' references variable out of range",
            ),
            (
                lambda toy: QuboProblem(2, 0.0, (1.0,), {}, 1.0),
                "linear coefficient count must equal n",
            ),
            (
                lambda toy: QuboProblem(2, 0.0, (1.0, 1.0), {(1, 0): 1.0}, 1.0),
                r"quadratic keys must be upper-triangular \(i < j\)",
            ),
            (
                lambda toy: QuboProblem(2, 0.0, (1.0, 1.0), {(1, 1): 1.0}, 1.0),
                r"quadratic keys must be upper-triangular \(i < j\)",
            ),
            (
                lambda toy: to_cost_operator(QuboProblem(
                    BRUTE_FORCE_LIMIT + 1, 0.0, (0.0,) * (BRUTE_FORCE_LIMIT + 1), {}, 1.0)),
                f"{BRUTE_FORCE_LIMIT + 1} variables exceeds the enumeration limit",
            ),
            (
                lambda toy: minimize(AnsatzSpec.standard(6, 1), toy.cost, ObjectiveKind("II"),
                                     OptimizerConfig(), []),
                "need at least one seed",
            ),
            (
                lambda toy: run_single(toy, CONSTRAINT_AWARE, None, 1, 0, ObjectiveKind("I"),
                                       OptimizerConfig(), 0),
                "constraint-aware runs need a lambda value",
            ),
        ],
    )
    def test_bad_input_is_rejected_naming_the_field(self, toy, build, message):
        with pytest.raises(ValueError, match=message):
            build(toy)

    def test_all_zero_noise_model_is_allowed_in_every_regime(self):
        for regime in ("I", "II", "III"):
            assert ObjectiveKind(regime, NoiseModel()).noise == NoiseModel()

    def test_evaluator_rejects_a_vector_of_the_wrong_length(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, 2, 0.7)
        evaluator = compile_evaluator(spec, toy.cost, ObjectiveKind("III", PAPER_NOISE))
        with pytest.raises(ValueError, match="expected 4 angles, got 2"):
            evaluator(np.zeros(2))

    def test_zero_readout_error_leaves_distribution_unchanged(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        noise = NoiseModel(p1=0.00015, p2=0.00125)
        state = evolve(spec, toy.cost.ising, params, engine="gate", scale=toy.cost.scale,
                       noise=noise)
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind("III", noise))
        assert np.array_equal(probs, measure_distribution(state))

    # without gate noise the distribution is compile_evaluator's, which calls no evolve
    @pytest.mark.parametrize(
        "noise,engines_called",
        [(NoiseModel(), []), (NoiseModel(p01=0.02, p10=0.01), []), (PAPER_NOISE, ["gate"])],
    )
    def test_regime_three_takes_the_gate_engine_only_for_gate_noise(
        self, toy, monkeypatch, noise, engines_called
    ):
        from vrpqaoa import optimize

        engines = []

        def spy(*args, **kwargs):
            engines.append(kwargs["engine"])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(optimize, "evolve", spy)
        spec = AnsatzSpec.constraint_aware(toy.constraints, 2, 0.7)
        params = ParameterPoint((0.4, 0.9), (0.3, 0.6))
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind("III", noise))
        assert engines == engines_called
        state = evolve(spec, toy.cost.ising, params, engine="gate", scale=toy.cost.scale,
                       noise=noise)
        gate = apply_readout_confusion(measure_distribution(state), noise.p01, noise.p10)
        assert np.abs(probs - gate).max() <= 1e-12

    def test_scale_change_is_a_reparameterization(self, toy):
        # evolving at scale c*s with angles gamma equals evolving at scale s
        # with gamma/c, and the reported energy differs exactly by 1/c, so
        # rescaling never moves the (compensated) argmin
        spec = AnsatzSpec.standard(6, 1)
        rng = np.random.default_rng(10)
        factor = 2.5
        cost_scaled = replace(toy.cost, scale=toy.cost.scale * factor)
        cfg, kind = OptimizerConfig(), ObjectiveKind("I")
        for _ in range(10):
            pt = ParameterPoint.random(1, rng)
            compensated = ParameterPoint(
                gamma=tuple(g / factor for g in pt.gamma), beta=pt.beta
            )
            scaled_value = objective(
                final_distribution(spec, cost_scaled, pt, kind), cost_scaled, kind, cfg
            )
            base_value = objective(
                final_distribution(spec, toy.cost, compensated, kind), toy.cost, kind, cfg
            )
            assert scaled_value == pytest.approx(base_value / factor, abs=1e-12)


def _without_couplings(problem, pairs):
    """The problem with the given Ising couplings set to zero (no gate, no channel)."""
    ising = problem.cost.ising
    couplings = {**ising.couplings, **dict.fromkeys(pairs, 0.0)}
    cost = replace(problem.cost, ising=replace(ising, couplings=couplings))
    return replace(problem, cost=cost)


class TestNoisyFold:
    """The compiled noisy evaluator works on axes, an XY pair's 6 charge-0 Pauli
    coordinates or another qubit's 4, with one step per nonzero RZZ between two axes;
    each axis's mixer block folds into the last RZZ on the axis.  An XY pair's own
    RZZ commutes with the pair's coordinates, so it is no step: its channel joins
    the next RZZ step on the axis, or else the pair's mixer block.  Before its first
    step an axis carries only the start's nonzero coordinates (I and X per qubit
    for standard QAOA), and after its last one only its Z-type ones.  Per layer on
    toy3 (RZZ ring 01, 05, 13, 23, 24, 45): standard folds every X block (6 steps);
    constraint-aware's pairs (2, 3) and (4, 5) own RZZ 23 and 45 (4 steps), whose
    channels join RZZ 24 and the mixer block of (4, 5), which is last touched by
    RZZ 24.  On the 1-vehicle instance every axis is touched too (6 and 4 steps);
    with RZZ 05 and 45 zeroed, qubit 5 has no RZZ, so its X block is a step of its
    own (5 and 3 steps).  With toy3's RZZ 05 and 24 zeroed, pair (4, 5) has only
    its own RZZ, so its mixer block is a step of its own and takes that channel
    (4 and 3 steps)."""

    def problems(self, toy):
        one_vehicle = build_problem(VrpInstance.from_dict(ONE_VEHICLE))
        return {
            "toy3": toy,
            "toy3_lone_pair": _without_couplings(toy, [(0, 5), (2, 4)]),
            "one_vehicle": one_vehicle,
            "one_vehicle_bare_q5": _without_couplings(one_vehicle, [(0, 5), (4, 5)]),
        }

    @pytest.mark.parametrize(
        "instance,steps",
        [("toy3", (6, 4)), ("toy3_lone_pair", (4, 3)), ("one_vehicle", (6, 4)),
         ("one_vehicle_bare_q5", (5, 3))],
    )
    @pytest.mark.parametrize(
        "noise",
        [PAPER_NOISE, NoiseModel(p1=0.05, p2=0.05, p01=0.02, p10=0.03)],
        ids=["paper", "high"],
    )
    def test_compiled_evaluator_equals_gate_engine(self, toy, instance, steps, noise):
        problem = self.problems(toy)[instance]
        rng = np.random.default_rng(13)
        specs = (
            AnsatzSpec.standard(6, 4),
            AnsatzSpec.constraint_aware(problem.constraints, 4, 0.7),
        )
        for spec, per_layer in zip(specs, steps):
            layers = compile_noisy_layers(spec, problem.cost.ising, problem.cost.scale, noise, True)
            assert len(layers.plan) == 4 * per_layer
            evaluator = compile_evaluator(spec, problem.cost, ObjectiveKind("III", noise))
            for _ in range(5):
                point = ParameterPoint.random(4, rng)
                state = evolve(spec, problem.cost.ising, point, engine="gate",
                               scale=problem.cost.scale, noise=noise)
                gate = apply_readout_confusion(measure_distribution(state), noise.p01, noise.p10)
                assert np.abs(evaluator(point.as_vector()) - gate).max() <= 1e-12

    @pytest.mark.parametrize("instance", ["toy3", "generate_instance_1"])
    @pytest.mark.parametrize(
        "noise",
        [PAPER_NOISE, NoiseModel(p1=0.05, p2=0.05, p01=0.02, p10=0.03)],
        ids=["paper", "high"],
    )
    def test_a_pairs_own_rzz_is_its_channel_alone(self, toy, instance, noise):
        # the fact the fold relies on: on a pair's 6 coordinates, its own RZZ with its
        # channel has no cos and no sin term, and its constant term is the channel's mask
        problem = toy if instance == "toy3" else build_problem(GEN1)
        rzz = _depolarizing_mask(2, (0, 1), noise.p2)[:, None] * np.array(_ptm_terms("rzz"))
        pairs = AnsatzSpec.constraint_aware(problem.constraints, 1, 0.7).xy_pairs
        assert len(pairs) == 2
        for pair in pairs:
            u, v = sorted(pair)
            assert problem.cost.ising.couplings[u, v] != 0
            constant, cos, sin = _axis_terms(rzz, [pair], u, v)
            assert not cos.any() and not sin.any()
            assert np.array_equal(constant, np.diag([1.0] + [1.0 - noise.p2] * 5))

    def test_toy3_contraction_count_at_depth_four(self, toy):
        # 60 (standard) and 52 (constraint-aware) contractions before the fold and the
        # dense read-out, 24 and 28 before the pair axes, and 24 for constraint-aware
        # before its pairs' own RZZ left the steps.  Each contraction counts the larger
        # of the state's sizes before and after it: 4096 each for standard and 1024 for
        # constraint-aware before the trims and the charge-0 pairs (6 of 16); with the
        # pairs' own RZZ as steps, constraint-aware's sum was 12192
        for spec, total, per_layer, middle in (
            (AnsatzSpec.standard(6, 4), 73216, 6, 4096),
            (AnsatzSpec.constraint_aware(toy.constraints, 4, 0.7), 8496, 4, 576),
        ):
            layers = compile_noisy_layers(spec, toy.cost.ising, toy.cost.scale, PAPER_NOISE, True)
            assert len(layers.plan) == 4 * per_layer
            coordinates = []
            for shape, perm, after in layers.plan:
                rest = math.prod(shape) // math.prod(shape[i] for i in perm[:len(after)])
                coordinates.append(max(math.prod(shape), rest * math.prod(after)))
            assert sum(coordinates) == total
            # layers 2 and 3: no trim
            assert coordinates[per_layer:3 * per_layer] == [middle] * (2 * per_layer)


class TestStackedEvaluation:
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("instance", ["toy3", "one_vehicle"])
    @pytest.mark.parametrize(
        "kind",
        [ObjectiveKind("I"), ObjectiveKind("III", NoiseModel(p01=0.02, p10=0.01)),
         ObjectiveKind("III", PAPER_NOISE)],
        ids=["exact", "readout", "paper"],
    )
    def test_each_row_equals_the_single_vector_call(self, toy, instance, depth, kind):
        problem = toy if instance == "toy3" else build_problem(VrpInstance.from_dict(ONE_VEHICLE))
        rng = np.random.default_rng(depth)
        for spec in (
            AnsatzSpec.standard(6, depth),
            AnsatzSpec.constraint_aware(problem.constraints, depth, 0.7),
        ):
            evaluator = compile_evaluator(spec, problem.cost, kind)
            for k in range(1, 6):
                vecs = np.array([ParameterPoint.random(depth, rng).as_vector() for _ in range(k)])
                rows = evaluator(vecs)
                assert rows.shape == (k, 64)
                for vec, row in zip(vecs, rows):
                    assert np.array_equal(row, evaluator(vec))


class TestNoisyWorkArrays:
    """The compiled noisy evaluator keeps its step blocks and state buffers from one call
    to the next, and returns fresh arrays."""

    def specs(self, problem, depth):
        return (AnsatzSpec.standard(6, depth),
                AnsatzSpec.constraint_aware(problem.constraints, depth, 0.7))

    def test_a_warm_call_allocates_less_than_one_state(self, toy):
        # one 5-row standard state is 5 x 4096 coordinates (160 KB), and the largest
        # constraint-aware step block (5, 4, 36, 36) 207 KB; with fresh arrays per call a
        # warm call peaks at about 760 and 670 KB
        rng = np.random.default_rng(3)
        for spec in self.specs(toy, 4):
            evaluator = compile_evaluator(spec, toy.cost, ObjectiveKind("III", PAPER_NOISE))
            evaluator(rng.uniform(-1, 1, (5, 8)))
            tracemalloc.start()
            try:
                for rows in (5, 2, 5):
                    vecs = rng.uniform(-1, 1, (rows, 8))
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    evaluator(vecs)
                    assert tracemalloc.get_traced_memory()[1] - base < 128 * 1024
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("instance", ["toy3", "generate_instance_1"])
    def test_no_result_aliases_the_work_arrays(self, toy, instance, depth):
        problem = toy if instance == "toy3" else build_problem(GEN1)
        kind = ObjectiveKind("III", PAPER_NOISE)
        rng = np.random.default_rng(depth)
        for spec in self.specs(problem, depth):
            evaluator = compile_evaluator(spec, problem.cost, kind)
            results, copies = [], []
            for rows in (5, 1, 3, 5, 2):
                vecs = rng.uniform(-2, 2, (rows, 2 * depth))
                out = evaluator(vecs)
                assert np.array_equal(out, compile_evaluator(spec, problem.cost, kind)(vecs))
                results.append(out)
                copies.append(out.copy())
            for out, copy in zip(results, copies):
                assert np.array_equal(out, copy)


def sequential_minimize(spec, cost, kind, cfg, seed):
    """The restarts one after another, each Nelder-Mead run driven point by point:
    the reference of minimize's lockstep rounds."""
    children = np.random.SeedSequence(seed).spawn(cfg.restarts + 1)
    lower, upper = _parameter_bounds(spec.depth)
    evaluator = compile_evaluator(spec, cost, kind)
    trace, candidates = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(children[r])
        start = ParameterPoint.random(spec.depth, rng).as_vector()
        best_x, best_f, history = reference_nelder_mead(
            lambda vec: objective(evaluator(vec), cost, kind, cfg, rng),
            start, lower, upper, cfg.max_evals,
        )
        trace.extend((r, i, v) for i, v in enumerate(history))
        candidates.append((ParameterPoint.from_vector(best_x), best_f))
    if kind.stochastic:
        scores = [objective(evaluator(point.as_vector()), cost, kind, cfg,
                            np.random.default_rng(children[-1])) for point, _ in candidates]
    else:
        scores = [value for _, value in candidates]
    winner = int(np.argmin(scores))
    return candidates[winner][0], scores[winner], trace


class TestLockstepRestarts:
    @pytest.mark.parametrize(
        "kind,cfg",
        [
            (ObjectiveKind("I"), OptimizerConfig(max_evals=60)),
            (ObjectiveKind("II"), OptimizerConfig(max_evals=60)),
            (ObjectiveKind("III", PAPER_NOISE), OptimizerConfig(restarts=3, max_evals=30)),
        ],
        ids=["I", "II", "III"],
    )
    def test_minimize_equals_the_sequential_restarts(self, toy, kind, cfg):
        specs = (AnsatzSpec.standard(6, 2), AnsatzSpec.constraint_aware(toy.constraints, 2, 0.7))
        for spec in specs:
            for seed in range(2):
                result = minimize(spec, toy.cost, kind, cfg, seed)
                params, value, trace = sequential_minimize(spec, toy.cost, kind, cfg, seed)
                assert result.params == params
                assert result.objective == value
                assert result.trace == trace

    def test_a_converged_restart_leaves_the_round(self, toy, monkeypatch):
        # at seed 4, restart 1's simplex converges after 117 evaluations while
        # restarts 0 and 2 spend the whole budget
        from vrpqaoa import optimize

        rounds = []

        def counting(*args):
            evaluator = compile_evaluator(*args)

            def probs(vecs):
                rounds.append(len(vecs))
                return evaluator(vecs)

            return probs

        monkeypatch.setattr(optimize, "compile_evaluator", counting)
        spec = AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7)
        cfg = OptimizerConfig(restarts=3, max_evals=150)
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=4)
        assert rounds == [3] * 117 + [2] * 33
        assert [r for r, _, _ in result.trace] == [0] * 150 + [1] * 117 + [2] * 150
        assert [i for _, i, _ in result.trace] == [*range(150), *range(117), *range(150)]
        monkeypatch.undo()
        assert sequential_minimize(spec, toy.cost, ObjectiveKind("I"), cfg, 4)[2] == result.trace

    @pytest.mark.parametrize(
        "kind", [ObjectiveKind("I"), ObjectiveKind("II"), ObjectiveKind("III", PAPER_NOISE)],
        ids=["I", "II", "III"],
    )
    def test_seeds_in_lockstep_equal_one_seed_at_a_time(self, toy, kind):
        # in regime I restart 1 of seed 4 converges after 117 evaluations (see
        # above), so the shared rounds shrink from 9 rows to 8 while the others go on
        spec = AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7)
        cfg = OptimizerConfig(restarts=3, max_evals=150, shots_objective=64, batches=2)
        seeds = [4, 0, 7]
        together = minimize(spec, toy.cost, kind, cfg, seeds)
        alone = [minimize(spec, toy.cost, kind, cfg, seed) for seed in seeds]
        assert [(r.params, r.objective, r.trace) for r in together] == [
            (r.params, r.objective, r.trace) for r in alone
        ]

    @pytest.mark.parametrize("kind", [ObjectiveKind("I"), ObjectiveKind("II")], ids=["I", "II"])
    def test_a_twenty_row_round_equals_one_seed_at_a_time(self, toy, kind, monkeypatch):
        # a sweep chunk at the default 5 restarts: 4 seeds, so every round starts with 20 rows
        from vrpqaoa import optimize

        rounds = []

        def counting(*args):
            evaluator = compile_evaluator(*args)

            def probs(vecs):
                rounds.append(len(vecs))
                return evaluator(vecs)

            return probs

        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(max_evals=40, shots_objective=64, batches=2)
        seeds = [3, 1, 4, 5]
        monkeypatch.setattr(optimize, "compile_evaluator", counting)
        together = minimize(spec, toy.cost, kind, cfg, seeds)
        monkeypatch.undo()
        assert rounds[0] == 20
        alone = [minimize(spec, toy.cost, kind, cfg, seed) for seed in seeds]
        assert [(r.params, r.objective, r.trace) for r in together] == [
            (r.params, r.objective, r.trace) for r in alone
        ]


class TestMinimize:
    def test_single_restart_single_eval_returns_start(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=1, max_evals=1)
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=123)
        children = np.random.SeedSequence(123).spawn(2)
        expected = ParameterPoint.random(2, np.random.default_rng(children[0]))
        assert np.allclose(result.params.as_vector(), expected.as_vector(), atol=1e-12)
        assert len(result.trace) == 1

    @pytest.mark.parametrize("kind", [ObjectiveKind("I"), ObjectiveKind("III", PAPER_NOISE)],
                             ids=["I", "III"])
    def test_zero_depth_spends_one_evaluation_per_restart(self, toy, kind):
        # a 0-dimensional simplex is one point, converged once it is evaluated
        spec = AnsatzSpec.constraint_aware(toy.constraints, 0, 0.7)
        result = minimize(spec, toy.cost, kind, OptimizerConfig(restarts=2), seed=0)
        assert [(r, i) for r, i, _ in result.trace] == [(0, 0), (1, 0)]
        assert result.params == ParameterPoint((), ())

    def test_reported_objective_is_best_evaluated(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=2, max_evals=40)
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=5)
        assert result.objective == pytest.approx(min(v for _, _, v in result.trace), abs=1e-12)

    def test_improves_on_zero_depth_baseline(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=3, lam=0.7)
        cfg = OptimizerConfig()
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=0)
        baseline_spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        baseline = objective(
            final_distribution(baseline_spec, toy.cost, ParameterPoint((), ()), ObjectiveKind("I")),
            toy.cost, ObjectiveKind("I"), cfg,
        )
        assert result.objective < baseline

    def test_exact_pipeline_is_reproducible(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=2, max_evals=30)
        a = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=9)
        b = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=9)
        assert a.objective == b.objective
        assert a.params == b.params
        assert a.trace == b.trace

    def test_stochastic_pipeline_is_reproducible(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        cfg = OptimizerConfig(restarts=2, max_evals=15, shots_objective=64, batches=2)
        a = minimize(spec, toy.cost, ObjectiveKind("II"), cfg, seed=9)
        b = minimize(spec, toy.cost, ObjectiveKind("II"), cfg, seed=9)
        assert a.objective == b.objective
        assert a.params == b.params

    def test_restarts_use_distinct_streams(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=3, max_evals=5)
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=2)
        first_evals = [v for r, i, v in result.trace if i == 0]
        assert len(first_evals) == 3
        assert len(set(first_evals)) == 3

    def test_noisy_evaluations_apply_no_gate_or_channel(self, toy, monkeypatch):
        from vrpqaoa import ansatz, simcore

        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(ansatz, "apply_gate", spy(ansatz.apply_gate))
        monkeypatch.setattr(simcore, "depolarize", spy(simcore.depolarize))
        spec = AnsatzSpec.constraint_aware(toy.constraints, 2, 0.45)
        cfg = OptimizerConfig(restarts=2, max_evals=20, shots_objective=64, batches=1)
        result = minimize(spec, toy.cost, ObjectiveKind("III", PAPER_NOISE), cfg, seed=3)
        assert len(result.trace) == 40
        # at most the once-per-spec initial-state recipe runs gate by gate
        assert calls.count("apply_gate") <= len(init_circuit(spec))
        assert calls.count("depolarize") <= len(init_circuit(spec))

    def test_trace_spans_all_restarts(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        cfg = OptimizerConfig(restarts=3, max_evals=12)
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=1)
        assert {r for r, _, _ in result.trace} == {0, 1, 2}
        assert all(i < 12 for _, i, _ in result.trace)


class TestFinalSampling:
    def test_one_hot_distribution_concentrates(self, toy):
        # one 6-qubit component: its pattern and the complement, |111010> + |000101>
        pair_mass = ConstraintComponent(qubits=tuple(range(6)), pattern=FEASIBLE)
        spec = AnsatzSpec(n=6, depth=0, components=(pair_mass,))
        hist = sample(
            final_distribution(spec, toy.cost, ParameterPoint((), ()), ObjectiveKind("I")),
            256, rng=0,
        )
        assert sum(hist.counts.get(bits, 0) for bits in (FEASIBLE, "000101")) == 256

    def test_deterministic_given_seed(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.5,), (0.4,))
        shots = OptimizerConfig().shots_final
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind("I"))
        a = sample(probs, shots, rng=3)
        b = sample(probs, shots, rng=3)
        assert a.counts == b.counts

    def test_standard_run_finds_optimum_as_mode(self, toy):
        # one full standard-QAOA pipeline at defaults: the optimum should be
        # the most frequent sampled string for this seed
        spec = AnsatzSpec.standard(6, 3)
        cfg = OptimizerConfig()
        result = minimize(spec, toy.cost, ObjectiveKind("I"), cfg, seed=0)
        hist = sample(
            final_distribution(spec, toy.cost, result.params, ObjectiveKind("I")),
            cfg.shots_final, rng=np.random.default_rng(0),
        )
        mode = max(hist.counts, key=hist.counts.get)
        assert mode == FEASIBLE


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = [(0, 0, 1.5), (0, 1, 1.25), (1, 0, 2.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["restart", "evaluation", "objective"]
        assert len(rows) == 4
        assert rows[1] == ["0", "0", "1.5"]
