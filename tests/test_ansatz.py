import math
import re

import numpy as np
import pytest

from conftest import (FEASIBLE, GEN1, GEN3, ONE_VEHICLE, X01, X02, X10, X12, X20, X21,
                      analytic_depth1_energy, textbook_qaoa, textbook_support)
from vrpqaoa.ansatz import (
    AnsatzSpec,
    ConstraintComponent,
    InfeasibleStructureError,
    ParameterPoint,
    apply_mixer_layer,
    circuit_gates,
    compile_exact_layers,
    derive_constraint_groups,
    evolve,
    init_circuit,
    mixer_circuit,
    prepare_initial_state,
)
from vrpqaoa.cli import NOISE_PRESETS, build_problem
from vrpqaoa.encode import CostOperator
from vrpqaoa.instance import EQUAL, ConstraintSet, LinearConstraint, VrpInstance, build_constraints
from vrpqaoa.optimize import ObjectiveKind, compile_evaluator, final_distribution
from vrpqaoa.simcore import (
    GateOp,
    NoiseModel,
    StateVector,
    apply_gate,
    measure_distribution,
)

TOY_SUPPORT = ("000101", "011001", "100110", "111010")


@pytest.fixture(scope="module")
def gen1():
    """Constraints of the 1-vehicle instance ``perfbench.sweep.generate_instance(1)``,
    whose XY pairs are not adjacent qubits."""
    cs = build_constraints(GEN1)
    assert derive_constraint_groups(cs).xy_pairs == ((2, 4), (0, 1))
    return cs


@pytest.fixture(scope="module")
def gen1_problem():
    return build_problem(GEN1)


@pytest.fixture(scope="module")
def gen3_problem():
    return build_problem(GEN3)


def pattern_violation_probability(probs: np.ndarray, pairs) -> float:
    """Mass on basis states with 00 or 11 on any protected pair."""
    n = int(round(math.log2(len(probs))))
    total = 0.0
    for index, p in enumerate(probs):
        bits = format(index, f"0{n}b")
        if any(bits[a] == bits[b] for a, b in pairs):
            total += float(p)
    return total


class TestDeriveConstraintGroups:
    def test_toy_components(self, toy):
        groups = derive_constraint_groups(toy.constraints)
        by_qubits = {c.qubits: c.pattern for c in groups.components}
        assert by_qubits == {(X01, X20, X21): "001", (X02, X10, X12): "001"}

    def test_toy_matching(self, toy):
        groups = derive_constraint_groups(toy.constraints)
        assert groups.xy_pairs == ((X10, X12), (X20, X21))

    def test_empty_constraint_set(self):
        groups = derive_constraint_groups(ConstraintSet(n=4, constraints=()))
        assert groups.components == ()
        assert groups.xy_pairs == ()

    def test_infeasible_component_detected(self):
        # odd one-hot cycle: x0+x1=1, x1+x2=1, x0+x2=1 has no solution
        cs = ConstraintSet(
            n=3,
            constraints=(
                LinearConstraint((0, 1), 1, EQUAL, "first"),
                LinearConstraint((1, 2), 1, EQUAL, "second"),
                LinearConstraint((0, 2), 1, EQUAL, "third"),
            ),
        )
        with pytest.raises(InfeasibleStructureError, match="first, second, third admit no"):
            derive_constraint_groups(cs)


class TestAnsatzSpec:
    def test_standard_factory(self):
        spec = AnsatzSpec.standard(6, 2)
        assert spec == AnsatzSpec(n=6, depth=2)
        assert spec.xy_pairs == ()
        assert spec.components == ()
        assert spec.x_qubits == tuple(range(6))
        assert spec.lam == 1.0
        assert spec.support.shape == (64,) and spec.support.all()

    def test_constraint_aware_factory(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=2, lam=0.7)
        assert tuple(format(i, "06b") for i in np.flatnonzero(spec.support)) == TOY_SUPPORT
        assert spec.xy_pairs == ((X10, X12), (X20, X21))
        assert spec.x_qubits == (X01, X02)

    def test_constraint_aware_without_components_is_uniform(self):
        spec = AnsatzSpec.constraint_aware(ConstraintSet(n=3, constraints=()), 1, 0.5)
        assert spec.support.shape == (8,) and spec.support.all()
        assert spec.x_qubits == (0, 1, 2)

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            AnsatzSpec(n=4, depth=1, xy_pairs=((0, 1), (1, 2)))

    def test_lists_are_stored_as_tuples(self, toy):
        # a spec is a cache key of the regime III initial state, so lists must not reach it
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        as_lists = AnsatzSpec(
            6, 1, 0.7, [list(pair) for pair in spec.xy_pairs],
            [ConstraintComponent(list(c.qubits), c.pattern) for c in spec.components],
        )
        assert as_lists == spec and hash(as_lists) == hash(spec)
        noisy = ObjectiveKind("III", NOISE_PRESETS["paper"])
        point = ParameterPoint((0.4,), (0.3,))
        assert np.array_equal(final_distribution(as_lists, toy.cost, point, noisy),
                              final_distribution(spec, toy.cost, point, noisy))


class TestParameterPoint:
    def test_vector_round_trip(self):
        point = ParameterPoint(gamma=(0.1, 0.2), beta=(0.3, 0.4))
        assert ParameterPoint.from_vector(point.as_vector()) == point

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ParameterPoint(gamma=(0.1,), beta=())

    def test_stores_float_tuples_whatever_sequence_it_is_given(self):
        point = ParameterPoint(np.array([0.1]), np.array([0.2]))
        assert point == ParameterPoint([0.1], [0.2]) == ParameterPoint((0.1,), (0.2,))
        assert point.as_vector().tolist() == [0.1, 0.2]
        assert hash(point) == hash(ParameterPoint((0.1,), (0.2,)))
        assert ParameterPoint((1,), (0,)).gamma == (1.0,)

    def test_random_inside_boxes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            point = ParameterPoint.random(3, rng)
            assert all(-math.pi <= g <= math.pi for g in point.gamma)
            assert all(0.0 <= b <= math.pi / 2 for b in point.beta)


def assert_textbook_support(spec):
    """``spec.support`` marks exactly the textbook strings, and the exact engine's start
    holds 1/sqrt(count) on them, bit for bit."""
    indices = [int(bits, 2) for bits in textbook_support(spec)]
    assert np.array_equal(np.flatnonzero(spec.support), indices)
    expected = np.zeros(1 << spec.n, dtype=complex)
    expected[indices] = 1.0 / math.sqrt(len(indices))
    assert spec._loaded_state.amplitudes.tobytes() == expected.tobytes()


class TestInitialState:
    def test_standard_two_qubits(self):
        state = prepare_initial_state(AnsatzSpec.standard(2, 1))
        assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_toy_support_probabilities(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        probs = measure_distribution(prepare_initial_state(spec))
        nonzero = {format(i, "06b"): p for i, p in enumerate(probs) if p > 1e-12}
        assert set(nonzero) == set(TOY_SUPPORT)
        assert FEASIBLE in nonzero
        for p in nonzero.values():
            assert p == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("instance", [
        None,  # toy3
        VrpInstance.from_dict(ONE_VEHICLE),
        VrpInstance(distances=((0.0, 3.0), (4.0, 0.0)), vehicles=1),
    ], ids=["toy3", "one_vehicle", "two_node"])
    def test_support_is_the_textbook_support(self, toy, instance):
        problem = toy if instance is None else build_problem(instance)
        assert_textbook_support(AnsatzSpec.standard(problem.qubo.n, 1))
        assert_textbook_support(AnsatzSpec.constraint_aware(problem.constraints, 1, 0.7))

    def test_support_of_random_component_layouts(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            order, components, start = [int(q) for q in rng.permutation(n)], [], 0
            while start < n:
                size = int(rng.integers(1, n - start + 1))
                if rng.random() < 0.6:  # otherwise these qubits stay free
                    pattern = "".join(rng.choice(["0", "1"], size))
                    components.append(ConstraintComponent(order[start:start + size], pattern))
                start += size
            assert_textbook_support(AnsatzSpec(n, 1, 0.5, (), components))

    def test_support_is_a_shared_read_only_mask(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        assert spec.support is spec.support
        with pytest.raises(ValueError, match="read-only"):
            spec.support[0] = True
        start = spec.support / 2.0  # 1/sqrt(4) on toy3's four strings
        prepare_initial_state(spec).amplitudes[:] = 0.0
        assert np.array_equal(prepare_initial_state(spec).amplitudes, start)
        probs = compile_evaluator(spec, toy.cost, ObjectiveKind("I"))(np.zeros((1, 0)))
        assert np.array_equal(probs, [start**2])

    def test_norm_exact(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        assert prepare_initial_state(spec).norm() == pytest.approx(1.0, abs=1e-12)

    def test_gate_recipe_equals_direct_load(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        loaded = prepare_initial_state(spec)
        synthesized = prepare_initial_state(spec, via_gates=True)
        assert np.allclose(loaded.amplitudes, synthesized.amplitudes, atol=1e-12)

    def test_reference_recipe_for_three_qubit_block(self):
        # H(a); CNOT(a->b); X(c); CNOT(a->c) prepares (|001> + |110>)/sqrt(2)
        state = StateVector(3)
        for op in (
            GateOp("h", (0,)),
            GateOp("cnot", (0, 1)),
            GateOp("x", (2,)),
            GateOp("cnot", (0, 2)),
        ):
            apply_gate(state, op)
        expected = np.zeros(8, dtype=complex)
        expected[0b001] = expected[0b110] = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "qubits,pattern",
        [
            ((0, 1), ("00", "01")),  # a set of patterns, not one pattern
            ((0, 1), ("10", "11")),
            ((), ""),  # no qubits
            ((0, 1), ""),
            ((0, 1), "011"),
            ((0, 1), "0a"),
        ],
    )
    def test_component_rejects_all_but_one_pattern_at_construction(self, qubits, pattern):
        with pytest.raises(ValueError, match=re.escape(f"pattern {pattern!r} must be")):
            ConstraintComponent(qubits, pattern)


class TestMixer:
    def test_zero_angle_is_identity(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        state = prepare_initial_state(spec)
        before = state.amplitudes.copy()
        apply_mixer_layer(state, spec, 0.0)
        assert np.allclose(state.amplitudes, before, atol=1e-12)

    def test_subspace_preservation_under_random_mixing(self, toy):
        rng = np.random.default_rng(8)
        for _ in range(40):
            lam = float(rng.uniform(0.0, 1.5))
            spec = AnsatzSpec.constraint_aware(toy.constraints, depth=3, lam=lam)
            state = prepare_initial_state(spec)
            for _ in range(int(rng.integers(1, 4))):
                apply_mixer_layer(state, spec, float(rng.uniform(0, math.pi / 2)))
            leak = pattern_violation_probability(state.probabilities(), spec.xy_pairs)
            assert leak <= 1e-10

    def test_lambda_zero_freezes_x_qubit_marginals(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.0)
        state = prepare_initial_state(spec)

        def marginal(probs, q):
            tensor = probs.reshape([2] * 6)
            axes = tuple(i for i in range(6) if i != q)
            return tensor.sum(axis=axes)

        before = [marginal(state.probabilities(), q) for q in spec.x_qubits]
        apply_mixer_layer(state, spec, 0.81)
        after = [marginal(state.probabilities(), q) for q in spec.x_qubits]
        for b, a in zip(before, after):
            assert np.allclose(a, b, atol=1e-12)

    def test_pure_xy_conserves_hamming_weight_distribution(self):
        spec = AnsatzSpec(n=4, depth=1, lam=0.0, xy_pairs=((0, 1), (2, 3)))
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(4, amps / np.linalg.norm(amps))

        def weight_distribution(probs):
            out = np.zeros(5)
            for index, p in enumerate(probs):
                out[bin(index).count("1")] += p
            return out

        before = weight_distribution(state.probabilities())
        for beta in (0.3, 1.1, 0.7):
            apply_mixer_layer(state, spec, beta)
        assert np.allclose(weight_distribution(state.probabilities()), before, atol=1e-10)

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda toy, gen1: AnsatzSpec.standard(6, 1),
            lambda toy, gen1: AnsatzSpec.constraint_aware(toy.constraints, 1, 0.0),
            lambda toy, gen1: AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7),
            lambda toy, gen1: AnsatzSpec.constraint_aware(toy.constraints, 1, 1.5),
            lambda toy, gen1: AnsatzSpec.constraint_aware(gen1, 1, 0.7),
            lambda toy, gen1: AnsatzSpec.standard(2, 1),
            lambda toy, gen1: AnsatzSpec(n=2, depth=1, lam=0.4, xy_pairs=((0, 1),)),
        ],
        ids=["standard", "toy-lam0", "toy-lam0.7", "toy-lam1.5", "gen1", "two-qubit", "one-pair"],
    )
    def test_closed_form_layer_matches_gates(self, toy, gen1, make_spec):
        spec = make_spec(toy, gen1)
        eigen, basis = spec._mixer_basis
        # real, not complex: OpenBLAS threads zgemv, which stalls when processes share cores
        assert basis.dtype == np.float64 and basis.flags["C_CONTIGUOUS"]
        assert np.array_equal(basis, basis.T)
        assert np.allclose(basis.T @ basis, np.eye(1 << spec.n), rtol=0, atol=1e-14)
        rng = np.random.default_rng(17)
        for _ in range(10):
            amps = rng.normal(size=1 << spec.n) + 1j * rng.normal(size=1 << spec.n)
            amps /= np.linalg.norm(amps)
            beta = float(rng.uniform(0, math.pi))
            closed = basis @ (np.exp(-1j * beta * eigen) * (basis.T @ amps))
            gates = apply_mixer_layer(StateVector(spec.n, amps), spec, beta).amplitudes
            assert np.max(np.abs(closed - gates)) <= 1e-12

    def test_standard_mixer_gate_list(self):
        ops = mixer_circuit(AnsatzSpec.standard(3, 1), 0.4)
        assert [op.name for op in ops] == ["rx", "rx", "rx"]
        assert all(op.angle == pytest.approx(0.8) for op in ops)

    def test_hybrid_mixer_gate_list(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        ops = mixer_circuit(spec, 0.5)
        names = [(op.name, op.qubits) for op in ops]
        assert ("rxx", (X10, X12)) in names
        assert ("ryy", (X20, X21)) in names
        rx_ops = [op for op in ops if op.name == "rx"]
        assert {op.qubits[0] for op in rx_ops} == {X01, X02}
        assert all(op.angle == pytest.approx(2 * 0.7 * 0.5) for op in rx_ops)


class TestEvolve:
    def test_zero_depth_returns_initial_state(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=0, lam=0.7)
        params = ParameterPoint(gamma=(), beta=())
        state = evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
        assert np.allclose(
            state.amplitudes, prepare_initial_state(spec).amplitudes, atol=1e-12
        )

    def test_standard_generic_params_cover_all_strings(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        params = ParameterPoint(gamma=(0.83, -0.41), beta=(0.37, 0.52))
        probs = measure_distribution(
            evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
        )
        assert (probs > 0).all()

    def test_engines_agree_for_both_ansaetze(self, toy):
        rng = np.random.default_rng(31)
        for spec in (
            AnsatzSpec.standard(6, 2),
            AnsatzSpec.constraint_aware(toy.constraints, depth=2, lam=0.6),
        ):
            for _ in range(5):
                params = ParameterPoint.random(2, rng)
                exact = evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
                gates = evolve(
                    spec, toy.cost.ising, params, engine="gate", scale=toy.cost.scale
                )
                assert np.allclose(
                    measure_distribution(exact), measure_distribution(gates), atol=1e-9
                )

    def test_full_evolution_keeps_protected_subspace(self, toy):
        rng = np.random.default_rng(13)
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=3, lam=0.8)
        for _ in range(10):
            params = ParameterPoint.random(3, rng)
            probs = measure_distribution(
                evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
            )
            assert pattern_violation_probability(probs, spec.xy_pairs) <= 1e-10

    def test_lambda_one_reduces_to_standard(self, toy):
        # no xy pairs, uniform init, full-weight X terms: textbook QAOA
        reduced = AnsatzSpec(n=6, depth=2, lam=1.0)
        params = ParameterPoint(gamma=(0.9, -1.2), beta=(0.3, 1.0))
        a = evolve(reduced, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
        b = textbook_qaoa(toy.cost, params)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_depth_mismatch_rejected(self, toy):
        spec = AnsatzSpec.standard(6, 2)
        with pytest.raises(ValueError):
            evolve(spec, toy.cost.phase_diagonal, ParameterPoint((0.1,), (0.2,)), scale=toy.cost.scale)

    def test_engine_cost_type_mismatch(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.1,), (0.2,))
        with pytest.raises(TypeError):
            evolve(spec, toy.cost.ising, params, engine="exact", scale=toy.cost.scale)
        with pytest.raises(TypeError):
            evolve(spec, toy.cost.phase_diagonal, params, engine="gate", scale=toy.cost.scale)
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            evolve(spec, toy.cost.ising, params, engine="bogus", scale=toy.cost.scale)

    def test_exact_engine_rejects_gate_noise(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.1,), (0.2,))
        for noise in (NoiseModel(p1=1e-3), NoiseModel(p2=1e-3), NOISE_PRESETS["paper"]):
            with pytest.raises(ValueError, match="the exact engine runs no gate noise"):
                evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale, noise=noise)

    def test_exact_engine_takes_a_model_without_gate_noise(self, toy):
        # like the gate engine, it applies no readout: NoiseModel() and None give one state
        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=2, lam=0.7)
        params = ParameterPoint((0.4, -0.9), (0.3, 1.1))
        plain = evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale)
        for noise in (NoiseModel(), NoiseModel(p01=0.02, p10=0.01)):
            state = evolve(spec, toy.cost.phase_diagonal, params, scale=toy.cost.scale, noise=noise)
            assert np.array_equal(state.amplitudes, plain.amplitudes)

    def test_exact_engine_rejects_bad_scale_and_size(self, toy):
        spec = AnsatzSpec.standard(6, 1)
        params = ParameterPoint((0.1,), (0.2,))
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"scale must be finite and > 0, got {scale}"):
                evolve(spec, toy.cost.phase_diagonal, params, scale=scale)
        wrong = CostOperator(n=5, diagonal=np.zeros(32))
        with pytest.raises(ValueError, match="cost diagonal does not match the state size"):
            evolve(spec, wrong, params, scale=toy.cost.scale)


def layer_by_layer(spec, cost, scale, params):
    """The exact loop written layer by layer, as the reference of the compiled
    one: per layer, one complex exponential per basis state for the cost phase
    and one for the mixer phase."""
    eigen, basis = spec._mixer_basis
    amps = prepare_initial_state(spec).amplitudes
    for gamma, beta in zip(params.gamma, params.beta):
        amps = amps * np.exp(-1j * gamma * cost.diagonal / scale)
        amps = (basis @ amps.view(float).reshape(-1, 2)).view(complex).ravel()
        amps *= np.exp(-1j * beta * eigen)
        amps = (basis @ amps.view(float).reshape(-1, 2)).view(complex).ravel()
    return amps


class TestCompiledExactLayers:
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("instance", ["toy", "gen1_problem"])
    def test_bit_identical_to_the_layer_by_layer_loop(self, request, instance, depth):
        problem = request.getfixturevalue(instance)
        cost, scale = problem.cost.phase_diagonal, problem.cost.scale
        rng = np.random.default_rng(depth)
        for spec in (
            AnsatzSpec.standard(cost.n, depth),
            AnsatzSpec.constraint_aware(problem.constraints, depth, 0.7),
        ):
            layers = compile_exact_layers(spec, cost, scale)
            for _ in range(10):
                params = ParameterPoint.random(depth, rng)
                expected = layer_by_layer(spec, cost, scale, params)
                angles = np.array([params.gamma]), np.array([params.beta])  # one (1, p) row
                assert np.array_equal(layers(*angles)[0], expected)
                evolved = evolve(spec, cost, params, scale=scale)
                assert np.array_equal(evolved.amplitudes, expected)

    @pytest.mark.parametrize("rows", [5, 20])
    @pytest.mark.parametrize("instance", ["toy", "gen1_problem"])
    def test_stacked_rows_at_box_edge_angles_match_the_loop(self, request, instance, rows):
        # every row of a stacked call has the bits of the np.exp loop, at gamma = 0 too
        problem = request.getfixturevalue(instance)
        cost, scale = problem.cost.phase_diagonal, problem.cost.scale
        rng = np.random.default_rng(rows)
        for depth in (1, 2, 4):
            for spec in (
                AnsatzSpec.standard(cost.n, depth),
                AnsatzSpec.constraint_aware(problem.constraints, depth, 0.5),
            ):
                gammas = rng.choice([-math.pi, 0.0, math.pi], (rows, depth))
                betas = rng.choice([0.0, math.pi / 2], (rows, depth))
                out = compile_exact_layers(spec, cost, scale)(gammas, betas)
                for row, gamma, beta in zip(out, gammas, betas):
                    params = ParameterPoint(tuple(gamma), tuple(beta))
                    assert np.array_equal(row, layer_by_layer(spec, cost, scale, params))

    def test_cost_phases_come_from_the_distinct_levels(self, toy, gen1_problem):
        # toy3's 64 basis states share 51 cost levels, so the gather back to 2^n
        # meets ties; gen(1)'s levels are all distinct
        problems = (toy, gen1_problem)
        assert [len(np.unique(pb.cost.phase_diagonal.diagonal)) for pb in problems] == [51, 64]

    def test_mixer_phases_come_from_the_distinct_eigenvalues(self, toy):
        # 7 distinct values for standard QAOA on 6 qubits, 15 for the hybrid mixer
        standard = AnsatzSpec.standard(6, 1)
        aware = AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7)
        assert [len(np.unique(s._mixer_basis[0])) for s in (standard, aware)] == [7, 15]

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_standard_qaoa_reaches_every_basis_state(self, n):
        states, eigen_states = AnsatzSpec.standard(n, 2).reachable
        assert states.shape == eigen_states.shape == (1 << n,)
        assert states.all() and eigen_states.all()

    def test_toy3_constraint_aware_phases_run_over_16_states(self, toy):
        # 16 reachable states of 64 with 16 distinct cost levels, and 9 distinct
        # eigenvalues over the 16 reachable eigen-indices (+-2 per pair, +-lam per X qubit)
        spec = AnsatzSpec.constraint_aware(toy.constraints, 4, 0.7)
        states, eigen_states = spec.reachable
        assert [np.count_nonzero(states), np.count_nonzero(eigen_states)] == [16, 16]
        assert len(np.unique(toy.cost.phase_diagonal.diagonal[states])) == 16
        assert len(np.unique(spec._mixer_basis[0][eigen_states])) == 9
        assert not (states.flags.writeable or eigen_states.flags.writeable)

    def test_a_00_component_reaches_its_pairs_weight_0_and_2_class(self, toy):
        # XY on (a, b) conserves x_a + x_b: a "00" start reaches 00 and 11 on that pair,
        # never 01 or 10; the other pair starts uniform, so it reaches all four
        pairs = AnsatzSpec.constraint_aware(toy.constraints, 1, 0.7).xy_pairs
        a, b = pairs[0]
        spec = AnsatzSpec(6, 2, 0.6, pairs, (ConstraintComponent((a, b), "00"),))
        states = spec.reachable[0]
        bits = [format(i, "06b") for i in range(64)]
        assert [i for i in range(64) if states[i]] == [
            i for i, x in enumerate(bits) if x[a] == x[b]]

    def test_depth_zero_returns_a_copy_of_the_initial_state(self, toy):
        spec = AnsatzSpec.constraint_aware(toy.constraints, 0, 0.7)
        layers = compile_exact_layers(spec, toy.cost.phase_diagonal, toy.cost.scale)
        no_angles = np.zeros((2, 0))  # two rows of depth 0
        layers(no_angles, no_angles)[:] = 0.0
        for row in layers(no_angles, no_angles):
            assert np.array_equal(row, prepare_initial_state(spec).amplitudes)
        assert prepare_initial_state(spec).norm() == pytest.approx(1.0, abs=1e-15)


class TestCircuitDump:
    def test_records_serialize(self, toy):
        import dataclasses
        import json

        spec = AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7)
        params = ParameterPoint(gamma=(0.4,), beta=(0.2,))
        gates = circuit_gates(spec, toy.cost.ising, params, toy.cost.scale)
        payload = json.dumps([dataclasses.asdict(op) for op in gates])
        decoded = json.loads(payload)
        assert all({"name", "qubits"} <= set(rec) for rec in decoded)
        # init block: one H + two CNOT + one X per component
        assert [rec["name"] for rec in decoded[:8]] == [
            "h", "cnot", "cnot", "x", "h", "cnot", "cnot", "x",
        ]

    def test_standard_vs_proposed_structures_differ(self, toy):
        params = ParameterPoint(gamma=(0.4,), beta=(0.2,))
        std = circuit_gates(AnsatzSpec.standard(6, 1), toy.cost.ising, params, toy.cost.scale)
        hyb = circuit_gates(
            AnsatzSpec.constraint_aware(toy.constraints, depth=1, lam=0.7),
            toy.cost.ising,
            params,
            toy.cost.scale,
        )
        assert {op.name for op in std} == {"h", "rzz", "rz", "rx"}
        assert {"rxx", "ryy", "cnot"} <= {op.name for op in hyb}

    def test_init_circuit_for_uniform_ansatz(self):
        ops = init_circuit(AnsatzSpec.standard(4, 1))
        assert [op.name for op in ops] == ["h"] * 4


class TestAnalyticDepthOne:
    """Standard QAOA at depth 1 against the closed form of ``analytic_depth1_energy``, so
    an angle convention shared by the phase diagonal and the gate recipes cannot pass."""

    @pytest.mark.parametrize("instance", ["toy", "gen1_problem", "gen3_problem"])
    def test_regime_one_energy_matches_the_closed_form(self, request, instance):
        problem = request.getfixturevalue(instance)
        cost = problem.cost
        spec = AnsatzSpec.standard(cost.ising.n, 1)
        evaluator = compile_evaluator(spec, cost, ObjectiveKind("I"))
        rng = np.random.default_rng(15)
        edges = [(0.0, 0.0), (math.pi, math.pi / 2), (-math.pi, math.pi / 4)]
        for gamma, beta in edges + [(rng.uniform(-math.pi, math.pi), rng.uniform(0, math.pi / 2))
                                    for _ in range(40)]:
            expected = analytic_depth1_energy(cost.ising, cost.scale, gamma, beta)
            point = ParameterPoint((gamma,), (beta,))
            amplitudes = evolve(spec, cost.phase_diagonal, point, scale=cost.scale).amplitudes
            for probs in (evaluator([gamma, beta]), np.abs(amplitudes) ** 2):
                energy = probs @ cost.phase_diagonal.diagonal / cost.scale
                assert energy == pytest.approx(expected, abs=1e-12)
