import functools
import math

import numpy as np
import pytest

from conftest import PAULI_MATRICES, density_from_pauli, pauli_coefficients, pauli_strings_on
from vrpqaoa.encode import CostOperator
from vrpqaoa.simcore import (
    DensityMatrix,
    GateOp,
    NoiseModel,
    ShotHistogram,
    StateVector,
    apply_diagonal_phase,
    apply_gate,
    apply_readout_confusion,
    average_infidelity,
    depolarize,
    gate_matrix,
    measure_distribution,
    same_up_to_global_phase,
    sample,
)

RNG = np.random.default_rng(2024)


def random_circuit(n: int, depth: int, rng) -> list[GateOp]:
    gates = []
    for _ in range(depth):
        name = rng.choice(["h", "x", "rx", "rz", "cnot", "rzz", "rxx", "ryy"])
        if name in ("h", "x", "rx", "rz"):
            q = int(rng.integers(n))
            angle = float(rng.uniform(-np.pi, np.pi)) if name in ("rx", "rz") else None
            gates.append(GateOp(name, (q,), angle))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            angle = float(rng.uniform(-np.pi, np.pi)) if name != "cnot" else None
            gates.append(GateOp(name, (int(a), int(b)), angle))
    return gates


def hermitian_expm(h: np.ndarray) -> np.ndarray:
    """exp(-i h) via eigendecomposition; independent of the gate formulas."""
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T


#: Each gate written out independently of ``simcore.GATES``: the fixed unitaries
#: as literal matrices, each rotation exp(-i angle P / 2) by its Pauli string P.
FIXED_GATES = {
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "x": np.array([[0, 1], [1, 0]]),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}
ROTATION_GENERATORS = {"rx": "X", "rz": "Z", "rzz": "ZZ", "rxx": "XX", "ryy": "YY"}
RANDOM_ANGLES = np.random.default_rng(7).uniform(-7.0, 7.0, 5)


def reference_gate(name: str, angle: float) -> np.ndarray:
    if name in FIXED_GATES:
        return FIXED_GATES[name]
    factors = [PAULI_MATRICES["IXYZ".index(ch)] for ch in ROTATION_GENERATORS[name]]
    return hermitian_expm(angle / 2 * functools.reduce(np.kron, factors))


class TestGateMatrices:
    @pytest.mark.parametrize(
        "name,angle",
        [
            ("h", None),
            ("x", None),
            ("cnot", None),
            ("rx", 0.7),
            ("rz", -1.3),
            ("rzz", 2.1),
            ("rxx", 0.9),
            ("ryy", -2.4),
        ],
    )
    def test_unitarity(self, name, angle):
        angles = [angle]
        if angle is not None:  # a rotation: also the special angles and a few random ones
            angles += [0.0, math.pi / 2, math.pi, -math.pi, *RANDOM_ANGLES]
        for theta in angles:
            u = gate_matrix(name, theta)
            assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)
            assert np.abs(u - reference_gate(name, theta)).max() <= 1e-12

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            gate_matrix("rx")

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_matrix("swap")


class TestSingleQubitOps:
    def test_hadamard_makes_plus_state(self):
        state = apply_gate(StateVector(1), GateOp("h", (0,)))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_rx_pi_flips_with_global_phase(self):
        state = apply_gate(StateVector(1), GateOp("rx", (0,), math.pi))
        assert np.allclose(state.amplitudes, [0.0, -1j], atol=1e-12)

    def test_rz_preserves_probabilities(self):
        state = StateVector(3, RNG.normal(size=8) + 1j * RNG.normal(size=8))
        state.amplitudes /= state.norm()
        before = state.probabilities()
        apply_gate(state, GateOp("rz", (1,), 0.93))
        assert np.allclose(state.probabilities(), before, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(StateVector(2), GateOp("h", (2,)))

    def test_norm_preserved(self):
        state = StateVector(4)
        for q in range(4):
            apply_gate(state, GateOp("h", (q,)))
            apply_gate(state, GateOp("rx", (q,), 0.3 * (q + 1)))
        assert state.norm() == pytest.approx(1.0, abs=1e-9)


class TestTwoQubitOps:
    def test_rzz_even_parity_phase(self):
        state = apply_gate(StateVector(2), GateOp("rzz", (0, 1), 0.8))
        assert state.amplitudes[0] == pytest.approx(np.exp(-1j * 0.4), abs=1e-12)

    def test_xy_block_swaps_01_10(self):
        # one XY block: RXX(2b) RYY(2b) equals exp(-i b (XX + YY)),
        # checked against an eigendecomposition-based exponential
        for beta in (0.0, 0.37, 1.1, math.pi / 2):
            xx = np.kron(gate_matrix("x"), gate_matrix("x"))
            yy = np.kron(
                np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
            )
            expected = hermitian_expm(beta * (xx + yy))
            state = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
            apply_gate(state, GateOp("rxx", (0, 1), 2 * beta))
            apply_gate(state, GateOp("ryy", (0, 1), 2 * beta))
            assert np.allclose(state.amplitudes, expected[:, 1], atol=1e-12)
            # explicit form on |01>: cos(2b)|01> - i sin(2b)|10>
            assert state.amplitudes[1] == pytest.approx(math.cos(2 * beta), abs=1e-12)
            assert state.amplitudes[2] == pytest.approx(-1j * math.sin(2 * beta), abs=1e-12)

    def test_xy_block_fixes_00(self):
        state = StateVector(2)
        apply_gate(state, GateOp("rxx", (0, 1), 1.7))
        apply_gate(state, GateOp("ryy", (0, 1), 1.7))
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_cnot(self):
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        apply_gate(state, GateOp("cnot", (0, 1)))
        assert np.allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_identical_targets_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(StateVector(2), GateOp("rzz", (1, 1), 0.3))


class TestApplyGateErrors:
    @pytest.mark.parametrize(
        "op,message",
        [
            (GateOp("swap", (0, 1)), "unknown gate"),
            (GateOp("h", (0, 1)), "acts on 1 qubit"),
            (GateOp("cnot", (0,)), "acts on 2 qubit"),
            (GateOp("rz", (2,), 0.1), "out of range"),
            (GateOp("rx", (2,), 0.1), "out of range"),
            (GateOp("rxx", (1, 1), 0.1), "distinct"),
            (GateOp("rz", (0,)), "needs an angle"),
            (GateOp("rzz", (0, 1)), "needs an angle"),
            (GateOp("ryy", (0, 1)), "needs an angle"),
        ],
    )
    def test_rejected_on_both_engines(self, op, message):
        for state in (StateVector(2), DensityMatrix(2)):
            with pytest.raises(ValueError, match=message):
                apply_gate(state, op)


class TestDiagonalPhase:
    def _diag(self, n=3):
        return CostOperator(n=n, diagonal=RNG.normal(size=1 << n) * 10)

    def test_zero_angle_is_identity(self):
        diag = self._diag()
        state = StateVector(3, RNG.normal(size=8) + 1j * RNG.normal(size=8))
        state.amplitudes /= state.norm()
        before = state.amplitudes.copy()
        apply_diagonal_phase(state, diag, 0.0, scale=2.0)
        assert np.allclose(state.amplitudes, before, atol=1e-12)

    def test_probabilities_invariant(self):
        diag = self._diag()
        state = StateVector(3, RNG.normal(size=8) + 1j * RNG.normal(size=8))
        state.amplitudes /= state.norm()
        before = state.probabilities()
        apply_diagonal_phase(state, diag, 1.23, scale=5.0)
        assert np.allclose(state.probabilities(), before, atol=1e-12)

    def test_gate_decomposition_matches_phase(self, toy):
        # RZZ/RZ synthesis from the spin coefficients vs the direct diagonal
        from vrpqaoa.ansatz import cost_circuit

        gamma, scale = 0.77, toy.cost.scale
        state_a = StateVector(6, RNG.normal(size=64) + 1j * RNG.normal(size=64))
        state_a.amplitudes /= state_a.norm()
        state_b = state_a.copy()
        apply_diagonal_phase(state_a, toy.cost.phase_diagonal, gamma, scale)
        for op in cost_circuit(toy.cost.ising, gamma, scale):
            apply_gate(state_b, op)
        assert same_up_to_global_phase(state_a.amplitudes, state_b.amplitudes, tol=1e-9)
        assert np.allclose(state_a.amplitudes, state_b.amplitudes, atol=1e-9)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            apply_diagonal_phase(StateVector(3), self._diag(), 1.0, scale=0.0)

    def test_density_matrix_rejected(self):
        with pytest.raises(TypeError, match="statevector engine"):
            apply_diagonal_phase(DensityMatrix(3), self._diag(), 1.0, scale=2.0)


def random_rho(n: int, rng) -> np.ndarray:
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def density(rho: np.ndarray) -> DensityMatrix:
    """The state of a 2^n x 2^n density matrix, its coefficients the textbook Tr(P rho)."""
    state = DensityMatrix(len(rho).bit_length() - 1)
    state.pauli = pauli_coefficients(rho)
    return state


def random_density(n: int, rng) -> DensityMatrix:
    return density(random_rho(n, rng))


def all_zeros_projector(n: int) -> np.ndarray:
    expected = np.zeros((1 << n, 1 << n))
    expected[0, 0] = 1.0
    return expected


class TestDensityMatrix:
    def test_starts_at_textbook_all_zeros_coefficients(self):
        for n in range(1, 7):
            expected = pauli_coefficients(all_zeros_projector(n))
            assert np.array_equal(DensityMatrix(n).pauli, expected)

    def test_default_is_all_zeros_projector(self):
        for n in (1, 3):
            rho = density_from_pauli(DensityMatrix(n).pauli)
            assert np.abs(rho - all_zeros_projector(n)).max() <= 1e-15

    def test_trace_purity_and_probabilities_match_textbook(self):
        rho = random_rho(3, RNG)
        state = density(rho)
        assert state.pauli[0] == pytest.approx(np.trace(rho).real, abs=1e-14)  # c_I = Tr rho
        assert state.purity() == pytest.approx(np.trace(rho @ rho).real, abs=1e-14)
        assert np.abs(state.probabilities() - np.diag(rho).real).max() <= 1e-14

    def test_copy_is_independent(self):
        state = random_density(2, RNG)
        clone = state.copy()
        assert np.array_equal(clone.pauli, state.pauli)  # the state's, not a fresh start
        apply_gate(clone, GateOp("h", (0,)))
        assert np.abs(clone.pauli - state.pauli).max() > 1e-3


class TestDepolarize:
    def test_zero_parameter_is_identity(self):
        rho = random_density(3, RNG)
        before = density_from_pauli(rho.pauli)
        depolarize(rho, (1,), 0.0)
        assert np.allclose(density_from_pauli(rho.pauli), before, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_targets_checked_for_every_parameter(self, lam):
        with pytest.raises(ValueError, match="qubit index 7 out of range"):
            depolarize(DensityMatrix(2), (7,), lam)

    def test_full_mixing_single_qubit(self):
        rho = DensityMatrix(1)  # |0><0|
        depolarize(rho, (0,), 1.0)
        assert np.allclose(density_from_pauli(rho.pauli), np.eye(2) / 2, atol=1e-12)

    def test_full_mixing_leaves_other_qubits(self):
        a = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        rho = density(np.outer(a, a.conj()))
        depolarize(rho, (1,), 1.0)
        # qubit 0 marginal was maximally mixed already and must stay so;
        # correlations with the depolarized qubit disappear
        assert np.allclose(density_from_pauli(rho.pauli), np.eye(4) / 4, atol=1e-12)

    def test_trace_preserved(self):
        for lam in (0.0, 0.2, 1.0, 4.0 / 3.0):
            rho = random_density(3, RNG)
            depolarize(rho, (2,), lam)
            assert rho.pauli[0] == pytest.approx(1.0, abs=1e-9)
        for lam in (0.5, 16.0 / 15.0):
            rho = random_density(3, RNG)
            depolarize(rho, (0, 2), lam)
            assert rho.pauli[0] == pytest.approx(1.0, abs=1e-9)

    def test_purity_never_increases(self):
        for _ in range(10):
            rho = random_density(3, RNG)
            before = rho.purity()
            lam = float(RNG.uniform(0.0, 1.0))
            targets = (0,) if RNG.random() < 0.5 else (1, 2)
            depolarize(rho, targets, lam)
            assert rho.purity() <= before + 1e-12

    def test_parameter_range(self):
        rho = random_density(2, RNG)
        with pytest.raises(ValueError):
            depolarize(rho, (0,), -0.1)
        with pytest.raises(ValueError):
            depolarize(rho, (0,), 1.4)  # above 4/3
        with pytest.raises(ValueError):
            depolarize(rho, (0, 1), 1.1)  # above 16/15

    def test_statevector_rejected(self):
        with pytest.raises(TypeError):
            depolarize(StateVector(2), (0,), 0.1)

    @pytest.mark.parametrize("targets", [(1,), (2, 0)])
    def test_largest_parameter_is_fully_depolarizing_kraus_form(self, targets):
        # at lam = 4^k / (4^k - 1) the channel is sum_{P != I} P rho P / (4^k - 1)
        rho = random_rho(3, RNG)
        strings = pauli_strings_on(3, targets)[1]
        expected = sum(p @ rho @ p for p in strings[1:]) / (len(strings) - 1)
        state = density(rho)
        depolarize(state, targets, len(strings) / (len(strings) - 1))
        assert np.abs(density_from_pauli(state.pauli) - expected).max() <= 1e-14

    def test_density_stays_physical(self):
        rho = random_density(3, RNG)
        depolarize(rho, (0, 1), 0.37)
        matrix = density_from_pauli(rho.pauli)
        assert np.allclose(matrix, matrix.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(matrix).min() >= -1e-9


class TestNoiseModel:
    def test_reference_infidelities(self):
        noise = NoiseModel(p1=0.00015, p2=0.00125, p01=0.001, p10=0.001)
        assert noise.r1_bar == pytest.approx(7.5e-5, abs=1e-12)
        assert noise.r2_bar == pytest.approx(9.375e-4, abs=1e-12)
        assert average_infidelity(noise.p1, 1) == pytest.approx(noise.r1_bar, abs=1e-15)
        assert average_infidelity(noise.p2, 2) == pytest.approx(noise.r2_bar, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(p01=0.6)

    def test_zero_flag(self):
        assert not NoiseModel().has_gate_noise
        assert not NoiseModel(p01=0.1, p10=0.1).has_gate_noise
        assert NoiseModel(p1=1e-4).has_gate_noise
        assert NoiseModel(p2=1e-4).has_gate_noise


class TestMeasureDistribution:
    def test_uniform_state(self):
        probs = measure_distribution(StateVector.uniform(6))
        assert np.allclose(probs, 1.0 / 64.0, atol=1e-12)

    def test_basis_state_is_one_hot(self):
        sv = StateVector.from_support(3, ["101"])
        probs = measure_distribution(sv)
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert np.allclose(probs, expected, atol=1e-12)

    def test_sums_to_one_for_density(self):
        rho = random_density(3, RNG)
        assert measure_distribution(rho).sum() == pytest.approx(1.0, abs=1e-12)


class TestReadoutConfusion:
    def test_zero_rates_identity(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(apply_readout_confusion(probs, 0.0, 0.0), probs, atol=1e-15)

    def test_single_qubit_reference_values(self):
        out = apply_readout_confusion(np.array([1.0, 0.0]), 0.001, 0.001)
        assert np.allclose(out, [0.999, 0.001], atol=1e-12)

    def test_output_normalized(self):
        probs = RNG.random(16)
        probs /= probs.sum()
        out = apply_readout_confusion(probs, 0.02, 0.007)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out >= 0).all()


class TestSample:
    def test_deterministic_per_seed(self):
        probs = np.full(64, 1 / 64)
        assert sample(probs, 500, 7).counts == sample(probs, 500, 7).counts

    def test_one_hot_distribution(self):
        probs = np.zeros(8)
        probs[3] = 1.0
        hist = sample(probs, 100, 1)
        assert hist.counts == {"011": 100}

    def test_uniform_concentration(self):
        # 6-sigma binomial bound per cell at 1e5 shots
        hist = sample(np.full(64, 1 / 64), 100_000, 42)
        for bits, count in hist.counts.items():
            assert abs(count / 100_000 - 1 / 64) < 0.004

    def test_total_variation_against_exact(self):
        rng = np.random.default_rng(3)
        probs = rng.random(64)
        probs /= probs.sum()
        hist = sample(probs, 100_000, 5)
        emp = np.zeros(64)
        for bits, count in hist.counts.items():
            emp[int(bits, 2)] = count / 100_000
        assert 0.5 * np.abs(emp - probs).sum() < 0.02

    def test_counts_must_match_shots(self):
        with pytest.raises(ValueError):
            ShotHistogram(counts={"00": 3}, shots=4)

    def test_needs_positive_shots(self):
        with pytest.raises(ValueError):
            sample(np.array([1.0]), 0, 0)


class TestEngineEquivalence:
    def test_statevector_vs_density_on_random_circuits(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            circuit = random_circuit(n, 12, rng)
            sv = StateVector(n)
            dm = DensityMatrix(n)
            for op in circuit:
                apply_gate(sv, op)
                apply_gate(dm, op)
            assert np.allclose(
                measure_distribution(sv), measure_distribution(dm), atol=1e-9
            )
            assert sv.norm() == pytest.approx(1.0, abs=1e-9)
            assert dm.pauli[0] == pytest.approx(1.0, abs=1e-9)

    def test_noisy_gates_keep_density_physical(self):
        rng = np.random.default_rng(17)
        noise = NoiseModel(p1=0.01, p2=0.05)
        dm = DensityMatrix(3)
        for op in random_circuit(3, 30, rng):
            apply_gate(dm, op, noise)
        assert dm.pauli[0] == pytest.approx(1.0, abs=1e-9)
        rho = density_from_pauli(dm.pauli)
        assert np.allclose(rho, rho.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_gate_noise_rejected_on_statevector(self):
        with pytest.raises(TypeError):
            apply_gate(StateVector(2), GateOp("h", (0,)), NoiseModel(p1=0.1))
