import math
import re

import pytest

from conftest import FEASIBLE, FEASIBLE_COST, X01, X02, X10, X12, X20, X21, all_bitstrings
from vrpqaoa.instance import (
    AT_LEAST,
    EQUAL,
    InstanceTooLargeError,
    LinkVariableIndex,
    VrpInstance,
    brute_force_optimum,
    build_constraints,
    is_feasible,
    route_cost,
)
from vrpqaoa.encode import penalize, qubo_value, to_cost_operator


#: Instance payloads that are not a valid instance, with the error they raise.
MALFORMED_INSTANCES = [
    ({"vehicles": 1}, "instance key 'distances' is missing"),
    ({"distances": [[0, 1], [1, 0]]}, "instance key 'vehicles' is missing"),
    ([1, 2], "an instance must be a JSON object, got [1, 2]"),
    ({"distances": 5, "vehicles": 1}, "distances must be a list of rows of numbers, got 5"),
    ({"distances": [5, 5], "vehicles": 1}, "distances must be a list of rows of numbers"),
    ({"distances": [[0, "1"], [1, 0]], "vehicles": 1},
     "distances must be a list of rows of numbers"),
    ({"distances": [[0, 1], [1, 0]], "vehicles": 1, "extra": 3}, "unknown instance key 'extra'"),
    ({"distances": [[0, 1], [1, 0]], "vehicles": True}, "vehicles must be a whole number, got True"),
]


def constraint_key(c):
    return (frozenset(c.variables), c.rhs, c.relation)


class TestInstanceValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            VrpInstance(distances=((0.0, 1.0), (1.0, 0.0, 2.0)), vehicles=1)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match=r"distance \[0\]\[1\] must be >= 0, got -1.0"):
            VrpInstance(distances=((0.0, -1.0), (1.0, 0.0)), vehicles=1)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            VrpInstance(distances=((1.0, 1.0), (1.0, 0.0)), vehicles=1)

    def test_rejects_zero_vehicles(self):
        with pytest.raises(ValueError):
            VrpInstance(distances=((0.0, 1.0), (1.0, 0.0)), vehicles=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_distance(self, bad):
        distances = ((0.0, 4.7, 1.0), (1.0, 0.0, 1.0), (1.0, bad, 0.0))
        message = rf"distance \[2\]\[1\] must be a finite real number, got {bad}"
        with pytest.raises(ValueError, match=message):
            VrpInstance(distances=distances, vehicles=1)

    def test_rejects_more_vehicles_than_customers(self):
        with pytest.raises(ValueError, match="3 vehicles exceed the 2 customers"):
            VrpInstance(distances=((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)),
                        vehicles=3)

    @pytest.mark.parametrize("bad", [1.7, "2", None])
    def test_from_dict_rejects_non_integral_vehicles(self, bad):
        payload = {"distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "vehicles": bad}
        with pytest.raises(ValueError, match=f"vehicles must be a whole number, got {bad!r}"):
            VrpInstance.from_dict(payload)

    def test_from_dict_accepts_integral_float_vehicles(self):
        payload = {"distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "vehicles": 2.0}
        assert VrpInstance.from_dict(payload).vehicles == 2

    @pytest.mark.parametrize("payload,message", MALFORMED_INSTANCES)
    def test_from_dict_rejects_malformed_payload(self, payload, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            VrpInstance.from_dict(payload)


class TestLinkVariableIndex:
    def test_three_node_order(self):
        idx = LinkVariableIndex.for_nodes(3)
        assert idx.links == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
        assert idx.n == 6

    def test_length_is_m_times_m_minus_one(self):
        for m in range(2, 6):
            assert LinkVariableIndex.for_nodes(m).n == m * (m - 1)


class TestBuildConstraints:
    def test_toy_matches_worked_instance(self, toy_instance):
        cs = build_constraints(toy_instance)
        expected = {
            (frozenset({X10, X20}), 2, EQUAL),
            (frozenset({X01, X02}), 2, EQUAL),
            (frozenset({X10, X12}), 1, EQUAL),
            (frozenset({X01, X21}), 1, EQUAL),
            (frozenset({X20, X21}), 1, EQUAL),
            (frozenset({X02, X12}), 1, EQUAL),
            (frozenset({X10, X20}), 1, AT_LEAST),
        }
        assert {constraint_key(c) for c in cs} == expected
        assert len(cs) == 7

    def test_toy_constraint_mix(self, toy_instance):
        cs = build_constraints(toy_instance)
        equal_two = [c for c in cs if c.relation == EQUAL and c.rhs == 2]
        equal_one = [c for c in cs if c.relation == EQUAL and c.rhs == 1]
        at_least = [c for c in cs if c.relation == AT_LEAST]
        assert (len(equal_two), len(equal_one), len(at_least)) == (2, 4, 1)

    def test_toy_unique_subtour_subset(self, toy_instance):
        cs = build_constraints(toy_instance)
        subtours = [c for c in cs if c.relation == AT_LEAST]
        assert len(subtours) == 1
        # only customer subset of size >= 2 is {1, 2}: links leaving it are
        # x(1,0) and x(2,0)
        assert frozenset(subtours[0].variables) == frozenset({X10, X20})

    def test_two_node_instance(self):
        inst = VrpInstance(distances=((0.0, 3.0), (4.0, 0.0)), vehicles=1)
        cs = build_constraints(inst)
        assert {constraint_key(c) for c in cs} == {
            (frozenset({0}), 1, EQUAL),  # x(0,1) = 1
            (frozenset({1}), 1, EQUAL),  # x(1,0) = 1
        }

    def test_subtour_budget_guard(self):
        for m in (4, 7):
            dist = tuple(tuple(0.0 if i == j else 1.0 for j in range(m)) for i in range(m))
            with pytest.raises(
                InstanceTooLargeError, match=f"{m} nodes exceeds the supported limit of 3 nodes"
            ):
                build_constraints(VrpInstance(distances=dist, vehicles=1))

    def test_out_degree_constraints_precede_in_degree(self, toy_instance):
        # the greedy XY matching depends on this ordering
        cs = build_constraints(toy_instance)
        one_hots = [c for c in cs if c.relation == EQUAL and c.rhs == 1]
        assert tuple(one_hots[0].variables) == (X10, X12)
        assert tuple(one_hots[1].variables) == (X20, X21)


class TestFeasibility:
    def test_known_feasible_string(self, toy):
        assert is_feasible(FEASIBLE, toy.constraints)

    def test_all_zero_is_infeasible(self, toy):
        assert not is_feasible("000000", toy.constraints)

    def test_exhaustive_feasible_count_is_one(self, toy):
        feasible = [b for b in all_bitstrings(6) if is_feasible(b, toy.constraints)]
        assert feasible == [FEASIBLE]

    def test_length_mismatch(self, toy):
        with pytest.raises(ValueError):
            is_feasible("10101", toy.constraints)


class TestRouteCost:
    def test_feasible_route_cost(self, toy_instance):
        assert route_cost(FEASIBLE, toy_instance) == pytest.approx(FEASIBLE_COST, abs=1e-9)

    def test_zero_assignment(self, toy_instance):
        assert route_cost("000000", toy_instance) == 0.0

    def test_all_links(self, toy_instance):
        assert route_cost("111111", toy_instance) == pytest.approx(217.8, abs=1e-9)

    def test_length_mismatch(self, toy_instance):
        with pytest.raises(ValueError):
            route_cost("1110", toy_instance)


class TestBruteForce:
    def test_feasible_optimum(self, toy):
        oracle = toy.oracle
        assert oracle.feasible_optima == (FEASIBLE,)
        assert oracle.feasible_cost == pytest.approx(FEASIBLE_COST, abs=1e-9)
        assert oracle.feasible_count == 1

    def test_qubo_minimum_coincides_with_feasible_optimum(self, toy):
        assert toy.oracle.qubo_argmin == (FEASIBLE,)
        assert toy.oracle.qubo_min == pytest.approx(FEASIBLE_COST, abs=1e-6)

    def test_two_node_forced_solution(self):
        oracle = self._oracle(((0.0, 3.0), (4.0, 0.0)))
        assert oracle.feasible_optima == ("11",)
        assert oracle.feasible_cost == pytest.approx(7.0)

    @staticmethod
    def _oracle(distances):
        inst = VrpInstance(distances=distances, vehicles=1)
        cs = build_constraints(inst)
        return brute_force_optimum(inst, cs, to_cost_operator(penalize(inst, cs)).diagonal)

    def test_ties_are_relative_to_the_cost_scale(self):
        # tours of 3e-10 and 7e-10 differ by less than 1e-9 but are not tied
        oracle = self._oracle(((0, 1e-10, 3e-10), (2e-10, 0, 1e-10), (1e-10, 2e-10, 0)))
        assert oracle.feasible_optima == ("100110",)
        assert oracle.feasible_cost == pytest.approx(3e-10, rel=1e-9)
        assert oracle.qubo_argmin == ("100110",)

    def test_exact_tie_reports_both_tours(self):
        oracle = self._oracle(((0, 10, 10), (10, 0, 10), (10, 10, 0)))
        assert oracle.feasible_optima == ("011001", "100110")
        assert oracle.qubo_argmin == ("011001", "100110")

    def test_agrees_with_direct_enumeration(self, toy):
        best = math.inf
        winners = []
        for bits in all_bitstrings(6):
            if not is_feasible(bits, toy.constraints):
                continue
            cost = route_cost(bits, toy.instance)
            if cost < best - 1e-9:
                best, winners = cost, [bits]
            elif abs(cost - best) <= 1e-9:
                winners.append(bits)
        assert tuple(winners) == toy.oracle.feasible_optima
        assert best == pytest.approx(toy.oracle.feasible_cost, abs=1e-9)


class TestPenaltyInvariants:
    def test_feasible_strings_pay_no_penalty(self, toy):
        for bits in all_bitstrings(6):
            if is_feasible(bits, toy.constraints):
                assert qubo_value(toy.qubo, bits) == pytest.approx(
                    route_cost(bits, toy.instance), abs=1e-9
                )

    def test_infeasible_strings_pay_at_least_one_penalty(self, toy):
        p = toy.qubo.penalty
        for bits in all_bitstrings(6):
            if not is_feasible(bits, toy.constraints):
                assert qubo_value(toy.qubo, bits) >= route_cost(bits, toy.instance) + p - 1e-9
