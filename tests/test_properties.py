"""Property tests over random valid instances, angles and noise levels.

Most properties draw a 2- or 3-node instance with 1 to m - 1 vehicles, so
both the component-free (2-node) and the component-bearing (3-node) shapes
of the hybrid ansatz are exercised; one draws bare one-hot constraint sets
on up to 8 variables.  Example counts are capped to keep the suite to a few
seconds; ``derandomize`` makes every run draw the same cases.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reference_nelder_mead, textbook_noisy_distribution
from test_ansatz import pattern_violation_probability
from vrpqaoa.ansatz import (
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    AnsatzSpec,
    ConstraintComponent,
    InfeasibleStructureError,
    ParameterPoint,
    derive_constraint_groups,
    evolve,
    prepare_initial_state,
)
from vrpqaoa.cli import NOISE_PRESETS, build_problem
from vrpqaoa.instance import EQUAL, ConstraintSet, LinearConstraint, VrpInstance
from vrpqaoa.optimize import ObjectiveKind, compile_evaluator, final_distribution, simplex_rounds
from vrpqaoa.simcore import NoiseModel, apply_readout_confusion, measure_distribution

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

#: Link costs on the 0.1 grid of the bundled and generated instance files.
distance = st.integers(min_value=0, max_value=1000).map(lambda tenths: tenths / 10)


@st.composite
def problems(draw):
    m = draw(st.sampled_from([2, 3]))
    rows = tuple(
        tuple(0.0 if i == j else draw(distance) for j in range(m)) for i in range(m)
    )
    # all links free: the default penalty is 0, which default_penalty rejects
    assume(any(map(any, rows)))
    vehicles = draw(st.integers(min_value=1, max_value=m - 1))
    return build_problem(VrpInstance(distances=rows, vehicles=vehicles))


@st.composite
def params(draw, depth):
    gamma = st.floats(*GAMMA_BOUNDS, allow_nan=False)
    beta = st.floats(*BETA_BOUNDS, allow_nan=False)
    return ParameterPoint(
        gamma=tuple(draw(gamma) for _ in range(depth)),
        beta=tuple(draw(beta) for _ in range(depth)),
    )


@st.composite
def cases(draw, max_depth=3):
    """A problem, one of its two ansaetze, and angles for it."""
    problem = draw(problems())
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    lam = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5, allow_nan=False)))
    if draw(st.booleans()):
        spec = AnsatzSpec.constraint_aware(problem.constraints, depth, lam)
    else:
        spec = AnsatzSpec.standard(problem.qubo.n, depth)
    return problem, spec, draw(params(depth))


@st.composite
def pair_cases(draw):
    """A 3-node problem's XY pairs and lam with another start state: no
    components (H on every qubit, so each pair starts with charge-+-1 Pauli
    coordinates, which the evaluator drops), or a component of any 2-bit
    pattern on one pair (00 or 11 starts with charge +-2 instead, 01 or 10
    with charge 0)."""
    problem = draw(problems())
    depth = draw(st.integers(min_value=1, max_value=4))
    lam = draw(st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    pairs = AnsatzSpec.constraint_aware(problem.constraints, depth, lam).xy_pairs
    assume(pairs)
    components = ()
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(["00", "01", "10", "11"]))
        components = (ConstraintComponent(draw(st.sampled_from(pairs)), pattern),)
    spec = AnsatzSpec(problem.qubo.n, depth, lam, pairs, components)
    return problem, spec, draw(params(depth))


@st.composite
def component_cases(draw, max_depth=3):
    """A problem with a spec of random disjoint components on its qubits, and
    angles: each component of any size from 1, on any qubits in any order,
    with any pattern (so either first bit); no XY pairs."""
    problem = draw(problems())
    n, depth = problem.qubo.n, draw(st.integers(min_value=1, max_value=max_depth))
    lam = draw(st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    order, components, start = draw(st.permutations(range(n))), [], 0
    while start < n:
        size = draw(st.integers(min_value=1, max_value=n - start))
        if draw(st.booleans()):  # otherwise these qubits stay free
            pattern = draw(st.text("01", min_size=size, max_size=size))
            components.append(ConstraintComponent(order[start:start + size], pattern))
        start += size
    spec = AnsatzSpec(n, depth, lam, (), components)
    return problem, spec, draw(params(depth))


@st.composite
def one_hot_pairs(draw):
    """Exactly-one constraints x_a + x_b = 1 on up to 8 variables, odd cycles included."""
    n = draw(st.integers(min_value=2, max_value=8))
    var = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(var, var).filter(lambda p: p[0] != p[1]), max_size=10))
    return ConstraintSet(n=n, constraints=tuple(LinearConstraint(p, 1, EQUAL) for p in pairs))


@PROPERTY_SETTINGS
@given(one_hot_pairs())
def test_constraint_groups_match_brute_force(cs):
    constrained = sorted({q for c in cs for q in c.variables})
    satisfying = {
        tuple(values[q] for q in constrained)
        for values in itertools.product((0, 1), repeat=cs.n)
        if all(c.holds(values) for c in cs)
    }
    if not satisfying:
        with pytest.raises(InfeasibleStructureError):
            derive_constraint_groups(cs)
        return
    components = derive_constraint_groups(cs).components
    assert all(comp.pattern[0] == "0" for comp in components)
    assert sorted(q for comp in components for q in comp.qubits) == constrained
    admitted = [
        (comp.pattern, "".join("1" if b == "0" else "0" for b in comp.pattern))
        for comp in components
    ]
    derived = set()
    for choice in itertools.product(*admitted):
        value = {
            q: int(b) for comp, bits in zip(components, choice) for q, b in zip(comp.qubits, bits)
        }
        derived.add(tuple(value[q] for q in constrained))
    assert derived == satisfying


@PROPERTY_SETTINGS
@given(st.one_of(cases(), component_cases()))
def test_loaded_initial_state_equals_recipe(case):
    _, spec, _ = case
    loaded = prepare_initial_state(spec).amplitudes
    recipe = prepare_initial_state(spec, via_gates=True).amplitudes
    assert np.abs(loaded - recipe).max() <= 1e-12
    assert np.array_equal(np.abs(recipe) > 1e-12, spec.support)


@PROPERTY_SETTINGS
@given(cases())
def test_exact_and_gate_engines_agree(case):
    problem, spec, point = case
    cost = problem.cost
    exact = evolve(spec, cost.phase_diagonal, point, scale=cost.scale)
    gates = evolve(spec, cost.ising, point, engine="gate", scale=cost.scale)
    dev = np.abs(measure_distribution(exact) - measure_distribution(gates)).max()
    assert dev <= 1e-12


@PROPERTY_SETTINGS
@given(problems(), st.integers(min_value=1, max_value=3), st.data())
def test_constraint_aware_evolution_stays_one_hot(problem, depth, data):
    lam = data.draw(st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    spec = AnsatzSpec.constraint_aware(problem.constraints, depth, lam)
    point = data.draw(params(depth))
    state = evolve(spec, problem.cost.phase_diagonal, point, scale=problem.cost.scale)
    assert pattern_violation_probability(measure_distribution(state), spec.xy_pairs) <= 1e-10


noise_models = st.builds(
    NoiseModel,
    p1=st.floats(min_value=0.0, max_value=0.05),
    p2=st.floats(min_value=0.0, max_value=0.05),
    p01=st.floats(min_value=0.0, max_value=0.1),
    p10=st.floats(min_value=0.0, max_value=0.1),
)


@PROPERTY_SETTINGS
@given(st.one_of(cases(), component_cases()), st.one_of(st.none(), noise_models))
def test_distributions_are_probability_vectors(case, noise):
    problem, spec, point = case
    kind = ObjectiveKind("I") if noise is None else ObjectiveKind("III", noise)
    probs = final_distribution(spec, problem.cost, point, kind)
    assert probs.shape == (1 << spec.n,)
    assert (probs >= 0).all()
    assert math.isclose(probs.sum(), 1.0, rel_tol=0.0, abs_tol=1e-12)


paper = NOISE_PRESETS["paper"]
depolarizing = st.floats(min_value=0.0, max_value=0.05)
readout = st.floats(min_value=0.0, max_value=0.1)


@PROPERTY_SETTINGS
@given(
    cases(),
    st.one_of(st.just((paper.p1, paper.p2)), st.tuples(depolarizing, depolarizing)),
    readout,
    readout,
)
def test_noisy_distribution_matches_textbook_density_matrix(case, gate_noise, p01, p10):
    problem, spec, point = case
    noise = NoiseModel(*gate_noise, p01=p01, p10=p10)
    probs = final_distribution(spec, problem.cost, point, ObjectiveKind("III", noise))
    cost = problem.cost
    reference = textbook_noisy_distribution(spec, cost.ising, point, cost.scale, noise)
    assert np.abs(probs - reference).max() <= 1e-12


gate_noises = st.one_of(st.just((paper.p1, paper.p2)), st.tuples(depolarizing, depolarizing))


def without_terms(cost):
    """The cost with its first field and first coupling zero: no gate and no channel."""
    ising = cost.ising
    first = min(ising.couplings, default=None)
    couplings = {**ising.couplings, **({} if first is None else {first: 0.0})}
    fields = (0.0,) + ising.fields[1:]
    return dataclasses.replace(
        cost, ising=dataclasses.replace(ising, fields=fields, couplings=couplings)
    )


def check_compiled_noisy_evaluator(case, gate_noise, p01, p10, zero_terms):
    """The compiled noisy evaluator equals the gate engine and the textbook
    density matrix to 1e-12."""
    problem, spec, point = case
    cost = without_terms(problem.cost) if zero_terms else problem.cost
    noise = NoiseModel(*gate_noise, p01=p01, p10=p10)
    assume(noise.has_gate_noise)
    probs = compile_evaluator(spec, cost, ObjectiveKind("III", noise))(point.as_vector())
    state = evolve(spec, cost.ising, point, engine="gate", scale=cost.scale, noise=noise)
    gate = apply_readout_confusion(measure_distribution(state), p01, p10)
    assert np.abs(probs - gate).max() <= 1e-12
    reference = textbook_noisy_distribution(spec, cost.ising, point, cost.scale, noise)
    assert np.abs(probs - reference).max() <= 1e-12


@PROPERTY_SETTINGS
@given(cases(max_depth=4), gate_noises, readout, readout, st.booleans())
def test_compiled_noisy_evaluator_matches_gate_engine_and_textbook(
    case, gate_noise, p01, p10, zero_terms
):
    check_compiled_noisy_evaluator(case, gate_noise, p01, p10, zero_terms)


@PROPERTY_SETTINGS
@given(st.one_of(pair_cases(), component_cases(max_depth=4)), gate_noises, readout, readout,
       st.booleans())
def test_compiled_noisy_evaluator_is_exact_from_any_start(case, gate_noise, p01, p10, zero_terms):
    check_compiled_noisy_evaluator(case, gate_noise, p01, p10, zero_terms)


@pytest.mark.parametrize("family", [cases(), pair_cases(), component_cases()],
                         ids=["ansaetze", "pairs", "components"])
@settings(PROPERTY_SETTINGS, max_examples=15)
@given(gate_noises, readout, readout, st.booleans(), st.integers(min_value=1, max_value=5),
       st.data())
def test_every_row_of_a_stacked_noisy_call_matches_the_textbook(
    family, gate_noise, p01, p10, zero_terms, rows, data
):
    """k rows in one compiled noisy call, k = 1..5: each is the textbook density matrix's
    distribution to 1e-12.  A pair case's uniform start has a nonzero XX-YY part, which the
    evaluator drops."""
    problem, spec, _ = data.draw(family)
    cost = without_terms(problem.cost) if zero_terms else problem.cost
    noise = NoiseModel(*gate_noise, p01=p01, p10=p10)
    assume(noise.has_gate_noise)
    points = [data.draw(params(spec.depth)) for _ in range(rows)]
    probs = compile_evaluator(spec, cost, ObjectiveKind("III", noise))(
        np.array([point.as_vector() for point in points]))
    assert probs.shape == (rows, 1 << spec.n)
    for point, row in zip(points, probs):
        reference = textbook_noisy_distribution(spec, cost.ising, point, cost.scale, noise)
        assert np.abs(row - reference).max() <= 1e-12


@PROPERTY_SETTINGS
@given(st.one_of(cases(max_depth=4), component_cases(max_depth=4)),
       st.sampled_from(["I", "II", "III"]), readout, readout)
def test_noiseless_evaluator_is_the_exact_engine(case, regime, p01, p10):
    problem, spec, point = case
    kind = ObjectiveKind(regime, NoiseModel(p01=p01, p10=p10) if regime == "III" else None)
    probs = compile_evaluator(spec, problem.cost, kind)(point.as_vector())
    assert np.array_equal(probs, final_distribution(spec, problem.cost, point, kind))


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=60),
    st.data(),
)
def test_nelder_mead_stays_in_box_and_budget(dim, budget, data):
    coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    lower = np.array(data.draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    width = data.draw(st.lists(st.floats(0.0, 5.0), min_size=dim, max_size=dim))
    upper = lower + np.array(width)
    x0 = np.array(data.draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    target = np.array(data.draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    seen = []

    def score(ids, points):
        seen.extend(x.copy() for x in points)
        return [float(np.sum((x - target) ** 2)) for x in points]

    [(best_x, best_f, history)] = simplex_rounds(score, x0[None], lower, upper, budget)
    assert 1 <= len(seen) <= budget
    assert len(history) == len(seen)
    assert all(((lower <= x) & (x <= upper)).all() for x in seen)
    assert (lower <= best_x).all() and (best_x <= upper).all()
    assert best_f == min(history)


@st.composite
def simplex_rows(draw):
    """Up to 20 box-clamped Nelder-Mead problems sharing one box, each with its start
    and objective: a rounded bowl, slope or waves.  Starts and targets often lie
    outside the box, so points clamp; rounding makes vertices tie and contractions
    fail into shrinks; on the waves a shrunk vertex can score worse than the next
    unshrunk one, so a row whose simplex were re-sorted mid-shrink would go astray."""
    dim = draw(st.integers(min_value=0, max_value=4))
    vector = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim).map(np.array)
    lower = draw(vector)
    upper = lower + np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]),
                                           min_size=dim, max_size=dim)))
    count = draw(st.integers(min_value=1, max_value=20))
    starts = np.array([draw(vector) for _ in range(count)]).reshape(count, dim)
    shapes = {
        "bowl": lambda x, t: np.sum((x - t) ** 2),
        "slope": lambda x, t: x @ t,
        "waves": lambda x, t: np.sum(np.sin(17 * x - t)),
    }
    objectives = []
    for _ in range(count):
        shape = shapes[draw(st.sampled_from(sorted(shapes)))]
        target, digits = draw(vector), draw(st.integers(min_value=0, max_value=2))
        objectives.append(lambda x, s=shape, t=target, d=digits: round(float(s(x, t)), d))
    return lower, upper, starts, objectives


@PROPERTY_SETTINGS
@given(simplex_rows(), st.integers(1, 5) | st.integers(6, 60) | st.integers(100, 200))
def test_simplex_rounds_give_every_row_a_lone_simplex(case, budget):
    # budgets of 1-5 end rows inside their initial simplex, of 6-60 often inside a
    # shrink; at 100 or more some rows converge before others
    lower, upper, starts, objectives = case

    def score(ids, points):
        return [objectives[j](x) for j, x in zip(ids, points)]

    results = simplex_rounds(score, starts, lower, upper, budget)
    assert len(results) == len(starts)
    for f, start, (best_x, best_f, history) in zip(objectives, starts, results):
        ref_x, ref_f, ref_history = reference_nelder_mead(f, start, lower, upper, budget)
        assert (best_x.tolist(), best_f, history) == (ref_x.tolist(), ref_f, ref_history)
