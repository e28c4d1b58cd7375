import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    FEASIBLE,
    FEASIBLE_COST,
    PENALTY,
    X01,
    X02,
    X10,
    X12,
    X20,
    X21,
    all_bitstrings,
    penalty_sum_value,
)
from vrpqaoa.encode import (
    CONVENTION_A,
    CONVENTION_B,
    default_energy_scale,
    default_penalty,
    ising_value,
    penalize,
    qubo_value,
    to_cost_operator,
    to_ising,
)
from vrpqaoa.instance import (
    AT_LEAST,
    EQUAL,
    ConstraintSet,
    LinearConstraint,
    VrpInstance,
    build_constraints,
    tied_minima,
)

# collected QUBO of the worked three-node instance
EXPECTED_LINEAR = {
    X10: -2116.7,
    X20: -2173.3,
    X01: -1681.1,
    X02: -1737.7,
    X12: -828.3,
    X21: -828.3,
}
EXPECTED_QUADRATIC = {
    (X10, X20): 1306.8,
    (X01, X02): 871.2,
    (X10, X12): 871.2,
    (X01, X21): 871.2,
    (X20, X21): 871.2,
    (X02, X12): 871.2,
}
EXPECTED_CONSTANT = 5662.8

# spin form under x = (z+1)/2
EXPECTED_FIELDS_A = {
    X01: -404.95,
    X02: -433.25,
    X10: -513.85,
    X12: 21.45,
    X20: -542.15,
    X21: 21.45,
}
EXPECTED_COUPLINGS = {
    (X10, X20): 326.7,
    (X01, X02): 217.8,
    (X10, X12): 217.8,
    (X01, X21): 217.8,
    (X20, X21): 217.8,
    (X02, X12): 217.8,
}
EXPECTED_ISING_CONSTANT = 2395.8
EXPECTED_SCALE = 542.15


class TestPenalize:
    def test_default_penalty_weight(self, toy_instance):
        assert default_penalty(toy_instance) == pytest.approx(PENALTY, abs=1e-6)

    def test_collected_coefficients(self, toy):
        qubo = toy.qubo
        assert qubo.constant == pytest.approx(EXPECTED_CONSTANT, abs=1e-6)
        for q, coeff in EXPECTED_LINEAR.items():
            assert qubo.linear[q] == pytest.approx(coeff, abs=1e-6)
        assert set(qubo.quadratic) == {tuple(sorted(k)) for k in EXPECTED_QUADRATIC}
        for key, coeff in EXPECTED_QUADRATIC.items():
            assert qubo.quadratic[tuple(sorted(key))] == pytest.approx(coeff, abs=1e-6)

    def test_single_equality_expansion(self):
        # x + y = 2 with unit penalty on a zero-cost instance: 4 - 3x - 3y + 2xy
        inst = VrpInstance(distances=((0.0, 0.0), (0.0, 0.0)), vehicles=1)
        cs = ConstraintSet(n=2, constraints=(LinearConstraint((0, 1), 2, EQUAL),))
        qubo = penalize(inst, cs, penalty=1.0)
        assert qubo.constant == pytest.approx(4.0)
        assert qubo.linear == pytest.approx((-3.0, -3.0))
        assert qubo.quadratic == {(0, 1): pytest.approx(2.0)}

    def test_at_least_expansion(self):
        inst = VrpInstance(distances=((0.0, 0.0), (0.0, 0.0)), vehicles=1)
        cs = ConstraintSet(n=2, constraints=(LinearConstraint((0, 1), 1, AT_LEAST),))
        qubo = penalize(inst, cs, penalty=2.0)
        # 2*(1-x)(1-y): zero on (0,1), (1,0), (1,1); 2 on (0,0)
        assert qubo_value(qubo, "00") == pytest.approx(2.0)
        for bits in ("01", "10", "11"):
            assert qubo_value(qubo, bits) == pytest.approx(0.0)

    def test_wide_at_least_rejected(self, toy_instance):
        cs = ConstraintSet(n=6, constraints=(LinearConstraint((0, 1, 2), 1, AT_LEAST),))
        with pytest.raises(ValueError):
            penalize(toy_instance, cs)

    def test_nonpositive_penalty_rejected(self, toy_instance, toy):
        cs = build_constraints(toy_instance)
        for bad in (0.0, -1.0, math.nan, math.inf):
            message = f"penalty must be finite and > 0, got {bad}"
            with pytest.raises(ValueError, match=message):
                penalize(toy_instance, cs, penalty=bad)
            with pytest.raises(ValueError, match=message):
                replace(toy.qubo, penalty=bad)


class TestQuboValue:
    def test_feasible_point_has_pure_route_cost(self, toy):
        assert qubo_value(toy.qubo, FEASIBLE) == pytest.approx(FEASIBLE_COST, abs=1e-6)

    def test_zero_assignment_pays_full_constant(self, toy):
        assert qubo_value(toy.qubo, "000000") == pytest.approx(EXPECTED_CONSTANT, abs=1e-6)

    def test_two_formula_agreement_on_all_strings(self, toy):
        # collected polynomial vs direct constraint-by-constraint penalty sum
        for bits in all_bitstrings(6):
            direct = penalty_sum_value(bits, toy.instance, toy.constraints, toy.qubo.penalty)
            assert qubo_value(toy.qubo, bits) == pytest.approx(direct, abs=1e-9)

    def test_length_mismatch(self, toy):
        with pytest.raises(ValueError):
            qubo_value(toy.qubo, "101")


class TestToIsing:
    def test_convention_a_matches_hand_derivation(self, toy):
        ising = to_ising(toy.qubo, CONVENTION_A)
        assert ising.constant == pytest.approx(EXPECTED_ISING_CONSTANT, abs=1e-6)
        for q, coeff in EXPECTED_FIELDS_A.items():
            assert ising.fields[q] == pytest.approx(coeff, abs=1e-6)
        for key, coeff in EXPECTED_COUPLINGS.items():
            assert ising.couplings[tuple(sorted(key))] == pytest.approx(coeff, abs=1e-6)

    def test_convention_b_negates_fields_only(self, toy):
        a = to_ising(toy.qubo, CONVENTION_A)
        b = to_ising(toy.qubo, CONVENTION_B)
        assert b.constant == pytest.approx(a.constant, abs=1e-12)
        assert b.couplings == a.couplings
        assert np.allclose(b.fields, [-v for v in a.fields], atol=1e-12)

    def test_round_trip_both_conventions(self, toy):
        for convention in (CONVENTION_A, CONVENTION_B):
            ising = to_ising(toy.qubo, convention)
            for bits in all_bitstrings(6):
                assert ising_value(ising, bits) == pytest.approx(
                    qubo_value(toy.qubo, bits), abs=1e-9
                )

    def test_unknown_convention(self, toy):
        with pytest.raises(ValueError):
            to_ising(toy.qubo, "C")

    def test_default_scale(self, toy):
        assert default_energy_scale(to_ising(toy.qubo, CONVENTION_B)) == pytest.approx(
            EXPECTED_SCALE, abs=1e-6
        )


class TestCostOperator:
    def test_minimum_at_feasible_string(self, toy):
        op = to_cost_operator(toy.qubo)
        assert tied_minima(op.diagonal).tolist() == [int(FEASIBLE, 2)]
        assert op.value(FEASIBLE) == pytest.approx(FEASIBLE_COST, abs=1e-6)

    def test_drop_constant_shifts_uniformly(self, toy):
        op = toy.cost.phase_diagonal
        shift = toy.cost.full_diagonal.diagonal - op.diagonal
        assert np.allclose(shift, EXPECTED_ISING_CONSTANT, atol=1e-6)
        assert op.value(FEASIBLE) == pytest.approx(FEASIBLE_COST - EXPECTED_ISING_CONSTANT, abs=1e-6)
        assert tied_minima(op.diagonal).tolist() == [int(FEASIBLE, 2)]

    def test_diagonal_matches_qubo_value(self, toy):
        op = to_cost_operator(toy.qubo)
        for bits in all_bitstrings(6):
            assert op.value(bits) == pytest.approx(qubo_value(toy.qubo, bits), abs=1e-9)

    def test_positive_scaling_preserves_argmin(self, toy):
        op = to_cost_operator(toy.qubo)
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = float(rng.uniform(0.01, 1000.0))
            assert int(np.argmin(op.diagonal / s)) == int(np.argmin(op.diagonal))


class TestCompiledCost:
    def test_bundle_consistency(self, toy):
        cc = toy.cost
        assert cc.scale == pytest.approx(EXPECTED_SCALE, abs=1e-6)
        assert cc.ising.convention == CONVENTION_B
        assert np.allclose(
            cc.full_diagonal.diagonal - cc.phase_diagonal.diagonal,
            cc.ising.constant,
            atol=1e-9,
        )
