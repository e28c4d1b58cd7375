"""Schema and output-check tests of the sweep benchmark.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from vrpqaoa import cli  # noqa: E402
from vrpqaoa.ansatz import CONSTRAINT_AWARE, STANDARD, AnsatzSpec, ParameterPoint  # noqa: E402
from vrpqaoa.instance import VrpInstance  # noqa: E402
from vrpqaoa.optimize import OptimizerConfig, final_distribution  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHOTS = 4096
QUICK = OptimizerConfig(restarts=1, max_evals=6, shots_final=SHOTS)


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def toy() -> cli.Problem:
    return cli.build_problem(cli.load_instance(cli.toy_instance_path()))


def quick_record(problem, regime, model, lam, seed=0) -> dict:
    kind = cli.regime_objective_kind(regime, cli.NOISE_PRESETS["paper"])
    return cli.run_single(problem, model, lam, 2, seed, kind, QUICK, 0).as_dict()


def test_benchmark_json_follows_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(sweep.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])


def test_generated_instance_is_seeded_and_in_scope():
    first = sweep.generate_instance(5)
    assert first == sweep.generate_instance(5)
    assert first != sweep.generate_instance(6)
    problem = cli.build_problem(VrpInstance.from_dict(first))
    assert problem.instance.node_count == 3 and problem.instance.vehicles == 1
    assert problem.oracle.feasible_count == 2
    assert len(problem.oracle.feasible_optima) == 1


def test_generated_instance_scope_check_rejects_a_tie():
    tie = {"distances": [[0, 10, 10], [10, 0, 10], [10, 10, 0]], "vehicles": 1}
    with pytest.raises(ValueError, match="two optimal tours"):
        sweep.check_generated_instance(tie)


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_real_records_pass(toy, regime):
    kind = cli.regime_objective_kind(regime, cli.NOISE_PRESETS["paper"])
    records = [quick_record(toy, regime, STANDARD, None),
               quick_record(toy, regime, CONSTRAINT_AWARE, 0.7)]
    assert check.failed_records(records, toy, kind, SHOTS) == []


def _corrupt_distribution(rec):
    rec["distribution"][0] += 1e-6


def _corrupt_p_opt(rec):
    rec["metrics"]["optimal_probability"] += 0.01


def _corrupt_rank(rec):
    rec["metrics"]["sampling_rank"] += 1


def _corrupt_angle(rec):
    rec["gamma"][0] += 0.05


def _drop_shot(rec):
    key = next(iter(rec["histogram"]))
    rec["histogram"][key] -= 1


def _drop_field(rec):
    del rec["beta"]


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_distribution, _corrupt_p_opt, _corrupt_rank, _corrupt_angle, _drop_shot, _drop_field],
)
def test_corrupted_record_is_counted_as_failed(toy, corrupt):
    kind = cli.regime_objective_kind("I", None)
    good = quick_record(toy, "I", CONSTRAINT_AWARE, 0.7)
    bad = copy.deepcopy(good)
    corrupt(bad)
    failures = check.failed_records([good, bad, good], toy, kind, SHOTS)
    assert [index for index, _ in failures] == [1]


def test_regime_three_reference_runs_the_density_matrix_engine(toy):
    # The regime-III reference makes the same calls as the production path,
    # so pin it to the noisy density-matrix gate engine: a later engine swap
    # must not turn it into a copy of the noiseless statevector engine.
    params = ParameterPoint((0.4, 0.9), (0.3, 0.6))
    noisy_kind = cli.regime_objective_kind("III", cli.NOISE_PRESETS["paper"])
    with tracing.Tracer() as tracer:
        noisy = check.reference_distribution(toy, noisy_kind, CONSTRAINT_AWARE, 0.7, params)
    names = {span[0] for span in tracer.spans}
    assert {"simcore.apply_gate.dm.cost", "simcore.apply_gate.dm.mixer"} <= names
    assert {"simcore.depolarize.1q", "simcore.depolarize.2q"} <= names
    assert not any(name.startswith("simcore.apply_gate.sv") for name in names)
    spec = AnsatzSpec.constraint_aware(toy.constraints, params.depth, 0.7)
    exact = final_distribution(spec, toy.cost, params, cli.regime_objective_kind("I", None))
    assert np.max(np.abs(noisy - exact)) > 1e-3


def test_wrong_oracle_fails_every_record(toy):
    kind = cli.regime_objective_kind("I", None)
    records = [quick_record(toy, "I", STANDARD, None)]
    wrong = dataclasses.replace(
        toy, oracle=dataclasses.replace(toy.oracle, feasible_cost=toy.oracle.feasible_cost + 1)
    )
    assert check.oracle_errors(toy) == []
    assert len(check.failed_records(records, wrong, kind, SHOTS)) == 1


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_cover_every_per_layer_name(bench):
    spans = [
        ("optimize.nelder_mead", 0.0, 3.0, -1),
        ("optimize.objective", 0.5, 1.0, 0),
        ("optimize.final_distribution", 0.6, 0.9, 1),
        ("optimize.objective", 1.5, 2.5, 0),
        ("optimize.final_distribution", 4.0, 5.0, -1),
    ]
    metrics = tracing.layer_metrics(spans, runs=1)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(metrics) | {"cli.output_bytes", "trace.runs_per_s"} == per_layer
    assert metrics["optimize.objective.calls"] == 2
    assert metrics["optimize.objective.ms_per_call"] == pytest.approx(750.0)
    assert metrics["optimize.nelder_mead.evals_per_restart"] == 2
    assert metrics["optimize.final_distribution.per_run"] == 1


def test_tracer_wraps_callers_lookup_and_restores_it(toy):
    from vrpqaoa import ansatz, optimize

    originals = (optimize.evolve, ansatz.apply_gate, cli.CompiledCost.__dict__["from_qubo"])
    with tracing.Tracer() as tracer:
        assert optimize.evolve is not originals[0]
        quick_record(toy, "III", CONSTRAINT_AWARE, 0.7)
    assert (optimize.evolve, ansatz.apply_gate, cli.CompiledCost.__dict__["from_qubo"]) == originals
    names = {span[0] for span in tracer.spans}
    assert {"simcore.apply_gate.dm.cost", "simcore.depolarize.2q", "optimize.objective"} <= names
    assert not any(name.startswith("simcore.apply_gate.sv") for name in names)


def test_closed_loop_runs_at_least_min_units():
    done = []
    loop = sweep.closed_loop(done.append, runs_per_unit=2, seconds=0.0, min_units=3)
    assert done == [0, 1, 2] and loop.attempted == 6
    loop = sweep.closed_loop(done.append, runs_per_unit=2, seconds=60.0, units=2, min_units=3)
    assert loop.units == 2


def test_host_speed_is_a_mean_of_speeds():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.speed([ref, ref]) == pytest.approx(1.0)
    # A sample ten times slower is one slow moment, not a tenfold drag.
    assert hostspeed.speed([ref, 10 * ref]) == pytest.approx(0.55)


def test_probe_samples_while_armed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        end = time.perf_counter() + 20 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.since(len(probe.samples))  # a fresh sample when none is left


def test_quality_records_come_from_the_first_units():
    run = sweep.Sweep.__new__(sweep.Sweep)
    run.unit_records = {1: [{"u": 1}], 0: [{"u": 0}, {"u": 0}], 2: [{"u": 2}]}
    assert [r["u"] for r in run.records()] == [0, 0, 1, 2]
    assert [r["u"] for r in run.records(first=2)] == [0, 0, 1]


def test_command_prints_every_end_to_end_metric(bench, monkeypatch, capsys):
    # One quality unit instead of the workload's, so the test runs one unit.
    one_unit = dataclasses.replace(sweep.WORKLOADS["exact-sweep"], quality_units=1)
    monkeypatch.setitem(sweep.WORKLOADS, "exact-sweep", one_unit)
    argv = ["--workload", "exact-sweep", "--seed", "0", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    expected = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
