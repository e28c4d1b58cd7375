import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import FEASIBLE, all_bitstrings, penalty_sum_value
from vrpqaoa.ansatz import (
    AnsatzSpec,
    ConstraintComponent,
    ParameterPoint,
    compile_noisy_layers,
    evolve,
    init_circuit,
)
from vrpqaoa.cli import build_problem
from vrpqaoa.instance import VrpInstance
from vrpqaoa.optimize import (
    ObjectiveKind,
    OptimizerConfig,
    compile_evaluator,
    final_distribution,
    minimize,
    nelder_mead,
    objective,
    write_trace_csv,
)
from vrpqaoa.simcore import (
    DensityMatrix,
    NoiseModel,
    StateVector,
    apply_readout_confusion,
    depolarize,
    measure_distribution,
    sample,
)

PAPER_NOISE = NoiseModel(p1=0.00015, p2=0.00125, p01=0.001, p10=0.001)


class TestNelderMead:
    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -0.6])

        def f(x):
            return float(np.sum((x - target) ** 2))

        best_x, best_f, history = nelder_mead(
            f, np.array([1.5, 1.5]), np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 200
        )
        assert np.abs(best_x - target).max() < 1e-3
        assert best_f < 1e-6
        assert len(history) <= 200

    def test_respects_budget(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x**2))

        nelder_mead(f, np.zeros(3), -np.ones(3), np.ones(3), 17)
        assert len(calls) <= 17

    def test_spends_exactly_its_budget(self):
        noise = np.random.default_rng(0)
        for max_evals in range(1, 41):
            calls = []

            def f(x):  # a fresh draw per call never lets the simplex converge
                calls.append(1)
                return float(np.sum(x**2) + noise.normal())

            _, _, history = nelder_mead(f, np.zeros(3), -np.ones(3), np.ones(3), max_evals)
            assert len(calls) == len(history) == max_evals

    def test_single_evaluation_returns_start(self):
        start = np.array([0.4, 0.1])
        best_x, best_f, history = nelder_mead(
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

        nelder_mead(f, np.array([0.9, 0.9]), np.zeros(2), np.ones(2), 60)
        stacked = np.array(seen)
        assert (stacked >= -1e-12).all() and (stacked <= 1 + 1e-12).all()

    def test_best_point_at_box_corner(self):
        best_x, best_f, _ = nelder_mead(
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
        params = ParameterPoint((), ())
        value = objective(params, spec, toy.cost, ObjectiveKind.exact(), OptimizerConfig())
        mean_cost = np.mean(
            [penalty_sum_value(b, toy.instance, toy.constraints, toy.qubo.penalty)
             for b in all_bitstrings(6)]
        )
        assert value == pytest.approx(mean_cost / toy.cost.scale, abs=1e-9)

    def test_zero_depth_constraint_aware_closed_form(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        params = ParameterPoint((), ())
        value = objective(params, spec, toy.cost, ObjectiveKind.exact(), OptimizerConfig())
        support_costs = [
            penalty_sum_value(b, toy.instance, toy.constraints, toy.qubo.penalty)
            for b in spec.support_bitstrings()
        ]
        assert 132.0 in [round(c, 6) for c in support_costs]
        assert value == pytest.approx(np.mean(support_costs) / toy.cost.scale, abs=1e-9)

    def test_shot_estimate_approaches_exact(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        cfg = OptimizerConfig(shots_objective=100_000, batches=1)
        exact = objective(params, spec, toy.cost, ObjectiveKind.exact(), cfg)
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind.exact())
        diag = toy.cost.full_diagonal.diagonal
        variance = float(probs @ diag**2 - (probs @ diag) ** 2)
        se = math.sqrt(variance / cfg.shots_objective) / toy.cost.scale
        estimate = objective(
            params, spec, toy.cost, ObjectiveKind.shots(), cfg, rng=np.random.default_rng(4)
        )
        assert abs(estimate - exact) < 3 * se

    def test_shot_kind_requires_rng(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        with pytest.raises(ValueError):
            objective(
                ParameterPoint((0.1,), (0.2,)), spec, toy.cost,
                ObjectiveKind.shots(), OptimizerConfig(),
            )

    def test_noisy_kind_runs_and_shifts_distribution(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        clean = final_distribution(spec, toy.cost, params, ObjectiveKind.exact())
        noisy = final_distribution(spec, toy.cost, params, ObjectiveKind.noisy(PAPER_NOISE))
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
                    AnsatzSpec.standard(5, 1), toy.cost, ObjectiveKind.noisy(PAPER_NOISE)
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
                    ObjectiveKind.noisy(PAPER_NOISE),
                ),
                "the state size: the ansatz has 5 qubits but the cost has 6",
            ),
            (lambda toy: ParameterPoint((math.nan,), (0.2,)), "gamma must be a finite real number, got nan"),
            (lambda toy: ParameterPoint((math.inf,), (0.2,)), "gamma must be a finite real number, got inf"),
            (lambda toy: ParameterPoint(("a",), (0.1,)), "gamma must be a finite real number, got 'a'"),
            (lambda toy: ParameterPoint((0.1,), (-math.inf,)), "beta must be a finite real number, got -inf"),
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
                lambda toy: apply_readout_confusion(np.array([1.0, 0.0]), 0.7, 0.0),
                r"p01 must lie in \[0, 0.5\], got 0.7",
            ),
            (
                lambda toy: apply_readout_confusion(np.array([1.0, 0.0]), math.nan, 0.0),
                "p01 must be a finite real number, got nan",
            ),
            (lambda toy: StateVector.from_support(2, ["01", "01"]), "bitstring '01' is repeated"),
            (lambda toy: StateVector.from_support(2, ["011"]), "'011' is not 2 binary digits"),
            (lambda toy: StateVector.from_support(2, ["1"]), "'1' is not 2 binary digits"),
            (lambda toy: sample([0.5, 0.5], 10.5, 0), "shots must be a whole number, got 10.5"),
            (lambda toy: sample([0.5, 0.5], True, 0), "shots must be a whole number, got True"),
        ],
    )
    def test_bad_input_is_rejected_naming_the_field(self, toy, build, message):
        with pytest.raises(ValueError, match=message):
            build(toy)

    def test_all_zero_noise_model_is_allowed_in_every_regime(self):
        for regime in ("I", "II", "III"):
            assert ObjectiveKind(regime, NoiseModel()).noise == NoiseModel()

    def test_raw_vector_gives_the_point_value(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, 2, 0.7)
        point = ParameterPoint((0.4, 0.9), (0.3, 0.6))
        kind, cfg = ObjectiveKind.noisy(PAPER_NOISE), OptimizerConfig()
        evaluator = compile_evaluator(spec, toy.cost, kind)
        by_point = objective(point, spec, toy.cost, kind, cfg, np.random.default_rng(1))
        by_vector = objective(
            point.as_vector(), spec, toy.cost, kind, cfg, np.random.default_rng(1), evaluator
        )
        assert by_point == by_vector
        with pytest.raises(ValueError, match="expected 4 angles, got 2"):
            evaluator(np.zeros(2))

    def test_zero_readout_error_leaves_distribution_unchanged(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.4,), (0.3,))
        noise = NoiseModel(p1=0.00015, p2=0.00125)
        state = evolve(spec, toy.cost.ising, params, engine="gate", scale=toy.cost.scale,
                       noise=noise)
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind.noisy(noise))
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
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind.noisy(noise))
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
        cfg = OptimizerConfig()
        for _ in range(10):
            pt = ParameterPoint.random(1, rng)
            compensated = ParameterPoint(
                gamma=tuple(g / factor for g in pt.gamma), beta=pt.beta
            )
            scaled_value = objective(pt, spec, cost_scaled, ObjectiveKind.exact(), cfg)
            base_value = objective(compensated, spec, toy.cost, ObjectiveKind.exact(), cfg)
            assert scaled_value == pytest.approx(base_value / factor, abs=1e-12)


def _without_couplings(problem, pairs):
    """The problem with the given Ising couplings set to zero (no gate, no channel)."""
    ising = problem.cost.ising
    couplings = {**ising.couplings, **dict.fromkeys(pairs, 0.0)}
    cost = replace(problem.cost, ising=replace(ising, couplings=couplings))
    return replace(problem, cost=cost)


class TestNoisyFold:
    """The compiled noisy evaluator folds each mixer block into the last RZZ on
    its support.  Per layer on toy3 (RZZ ring 01, 05, 13, 23, 24, 45): standard
    folds every X block (6 steps); constraint-aware folds X 0 and 1 and the XY
    pair (4, 5), and keeps the pair (2, 3), last touched by RZZ 24 and 23, apart
    (7 steps).  On the 1-vehicle instance the pairs (2, 4) and (0, 1) stay apart
    and X 3 and 5 fold (8 steps); with RZZ 05 and 45 zeroed, qubit 5 has no RZZ,
    so its X block stays apart while the pair (2, 4) folds into RZZ 24."""

    ONE_VEHICLE = {"distances": [[0, 40, 60], [55, 0, 45], [50, 70, 0]], "vehicles": 1}

    def problems(self, toy):
        one_vehicle = build_problem(VrpInstance.from_dict(self.ONE_VEHICLE))
        return {
            "toy3": toy,
            "one_vehicle": one_vehicle,
            "one_vehicle_bare_q5": _without_couplings(one_vehicle, [(0, 5), (4, 5)]),
        }

    @pytest.mark.parametrize(
        "instance,steps",
        [("toy3", (6, 7)), ("one_vehicle", (6, 8)), ("one_vehicle_bare_q5", (5, 6))],
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
            evaluator = compile_evaluator(spec, problem.cost, ObjectiveKind.noisy(noise))
            for _ in range(5):
                point = ParameterPoint.random(4, rng)
                state = evolve(spec, problem.cost.ising, point, engine="gate",
                               scale=problem.cost.scale, noise=noise)
                gate = apply_readout_confusion(measure_distribution(state), noise.p01, noise.p10)
                assert np.abs(evaluator(point.as_vector()) - gate).max() <= 1e-12

    def test_toy3_contraction_count_at_depth_four(self, toy):
        # 60 (standard) and 52 (constraint-aware) before the fold and the dense read-out
        for spec, count in (
            (AnsatzSpec.standard(6, 4), 24),
            (AnsatzSpec.constraint_aware(toy.constraints, 4, 0.7), 28),
        ):
            layers = compile_noisy_layers(spec, toy.cost.ising, toy.cost.scale, PAPER_NOISE, True)
            assert len(layers.plan) == count


class TestMinimize:
    def test_single_restart_single_eval_returns_start(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=1, max_evals=1)
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=123)
        children = np.random.SeedSequence(123).spawn(2)
        expected = ParameterPoint.random(2, np.random.default_rng(children[0]))
        assert np.allclose(result.params.as_vector(), expected.as_vector(), atol=1e-12)
        assert len(result.trace) == 1

    def test_reported_objective_is_best_evaluated(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=2, max_evals=40)
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=5)
        assert result.objective == pytest.approx(min(v for _, _, v in result.trace), abs=1e-12)

    def test_improves_on_zero_depth_baseline(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=3, lam=0.7)
        cfg = OptimizerConfig()
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=0)
        baseline_spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        baseline = objective(
            ParameterPoint((), ()), baseline_spec, toy.cost, ObjectiveKind.exact(), cfg
        )
        assert result.objective < baseline

    def test_exact_pipeline_is_reproducible(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=2, max_evals=30)
        a = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=9)
        b = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=9)
        assert a.objective == b.objective
        assert a.params == b.params
        assert a.trace == b.trace

    def test_stochastic_pipeline_is_reproducible(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        cfg = OptimizerConfig(restarts=2, max_evals=15, shots_objective=64, batches=2)
        a = minimize(spec, toy.cost, ObjectiveKind.shots(), cfg, seed=9)
        b = minimize(spec, toy.cost, ObjectiveKind.shots(), cfg, seed=9)
        assert a.objective == b.objective
        assert a.params == b.params

    def test_restarts_use_distinct_streams(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        cfg = OptimizerConfig(restarts=3, max_evals=5)
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=2)
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
        result = minimize(spec, toy.cost, ObjectiveKind.noisy(PAPER_NOISE), cfg, seed=3)
        assert len(result.trace) == 40
        # at most the once-per-spec initial-state recipe runs gate by gate
        assert calls.count("apply_gate") <= len(init_circuit(spec))
        assert calls.count("depolarize") <= len(init_circuit(spec))

    def test_trace_spans_all_restarts(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        cfg = OptimizerConfig(restarts=3, max_evals=12)
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=1)
        assert {r for r, _, _ in result.trace} == {0, 1, 2}
        assert all(i < 12 for _, i, _ in result.trace)


class TestFinalSampling:
    def test_one_hot_distribution_concentrates(self, toy):
        point_mass = ConstraintComponent(qubits=tuple(range(6)), patterns=(FEASIBLE,))
        spec = AnsatzSpec(n=6, depth=0, components=(point_mass,))
        hist = sample(
            final_distribution(spec, toy.cost, ParameterPoint((), ()), ObjectiveKind.exact()),
            256, rng=0,
        )
        assert hist.counts == {FEASIBLE: 256}

    def test_deterministic_given_seed(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.5,), (0.4,))
        shots = OptimizerConfig().shots_final
        probs = final_distribution(spec, toy.cost, params, ObjectiveKind.exact())
        a = sample(probs, shots, rng=3)
        b = sample(probs, shots, rng=3)
        assert a.counts == b.counts

    def test_standard_run_finds_optimum_as_mode(self, toy):
        # one full standard-QAOA pipeline at defaults: the optimum should be
        # the most frequent sampled string for this seed
        spec = AnsatzSpec.standard(6, 3)
        cfg = OptimizerConfig()
        result = minimize(spec, toy.cost, ObjectiveKind.exact(), cfg, seed=0)
        hist = sample(
            final_distribution(spec, toy.cost, result.params, ObjectiveKind.exact()),
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
