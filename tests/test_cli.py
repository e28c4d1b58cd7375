import dataclasses
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import FEASIBLE, FEASIBLE_COST
from test_instance import MALFORMED_INSTANCES
from vrpqaoa import cli, encode, instance
from vrpqaoa.cli import (
    ExperimentConfig,
    NOISE_PRESETS,
    build_experiment_config,
    build_parser,
    build_problem,
    derive_run_seed,
    encode_report,
    load_instance,
    main,
    regime_objective_kind,
    run_cells,
    run_experiment,
    run_single,
    solve_report,
    toy_instance_path,
)
from vrpqaoa.optimize import OptimizerConfig
from vrpqaoa.simcore import NoiseModel, sample

FAST_OPT = {"restarts": 1, "max_evals": 12}


def tree_bytes(root) -> dict:
    """Every file under ``root``, by its relative path, with its bytes."""
    root = Path(root)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        instance_path=toy_instance_path(),
        regime="I",
        ansatz="both",
        lambdas=(0.7,),
        depth=1,
        seeds=(0, 1),
        optimizer=OptimizerConfig(restarts=1, max_evals=12, shots_final=512),
        output_dir=str(tmp_path / "out"),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestReports:
    def test_solve_report(self):
        report = solve_report(toy_instance_path())
        assert report["feasible_optima"] == [FEASIBLE]
        assert report["feasible_cost"] == pytest.approx(FEASIBLE_COST)
        assert report["feasible_count"] == 1
        assert report["qubo_argmin"] == [FEASIBLE]
        assert report["qubo_min"] == pytest.approx(FEASIBLE_COST, abs=1e-6)

    def test_encode_report_headline_numbers(self):
        report = encode_report(toy_instance_path())
        assert report["penalty"] == pytest.approx(435.6, abs=1e-6)
        assert report["ising_a"]["constant"] == pytest.approx(2395.8, abs=1e-6)
        assert report["scale"] == pytest.approx(542.15, abs=1e-6)
        assert len(report["penalty_terms"]) == 7

    def test_malformed_instance_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"distances": [[0, 1],\n [1, 0]], "vehicles": }')
        with pytest.raises(ValueError, match=r"line \d+"):
            load_instance(str(bad))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_instance("/nonexistent/nowhere.json")

    def test_problem_build_derives_constraints_and_cost_table_once(self, monkeypatch):
        calls = {"build_constraints": 0, "to_cost_operator": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((cli, "build_constraints"), (instance, "build_constraints"),
                             (encode, "to_cost_operator")):
            counted(module, name)
        build_problem(load_instance(toy_instance_path()))
        assert calls == {"build_constraints": 1, "to_cost_operator": 1}


class TestSeedDerivation:
    def test_distinct_cells_get_distinct_streams(self):
        seen = set()
        for model, lam in [("standard", None), ("constraint_aware", 0.7),
                           ("constraint_aware", 0.8)]:
            for seed in range(3):
                state = tuple(derive_run_seed(0, model, lam, seed).generate_state(2))
                assert state not in seen
                seen.add(state)

    def test_reproducible(self):
        a = derive_run_seed(1, "standard", None, 5).generate_state(4)
        b = derive_run_seed(1, "standard", None, 5).generate_state(4)
        assert (a == b).all()


class TestExperimentConfig:
    def test_regime_three_requires_noise(self, tmp_path):
        with pytest.raises(ValueError, match="regime III needs a noise model"):
            tiny_config(tmp_path, regime="III", noise=None)

    def test_unknown_regime(self, tmp_path):
        with pytest.raises(ValueError, match="unknown regime 'IV'"):
            tiny_config(tmp_path, regime="IV")

    def test_lambda_required_for_constraint_aware(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, ansatz="constraint_aware", lambdas=())

    def test_cells_enumeration(self, tmp_path):
        cfg = tiny_config(tmp_path, lambdas=(0.5, 0.7))
        assert cfg.cells() == [
            ("standard", None),
            ("constraint_aware", 0.5),
            ("constraint_aware", 0.7),
        ]

    def test_standard_only_ignores_lambdas(self, tmp_path):
        cfg = tiny_config(tmp_path, ansatz="standard")
        assert cfg.cells() == [("standard", None)]

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"depth": 2.5}, "depth (--p) must be a whole number, got 2.5"),
            ({"depth": True}, "depth (--p) must be a whole number, got True"),
            ({"seeds": (1.5,)}, "seed must be a whole number, got 1.5"),
            ({"workers": 2.5}, "workers must be a whole number, got 2.5"),
            ({"master_seed": 0.5}, "master_seed must be a whole number, got 0.5"),
            ({"regime": "III", "noise": "paper"}, "noise must be a NoiseModel or None, got 'paper'"),
            ({"optimizer": {"restarts": 1}},
             "optimizer must be an OptimizerConfig, got {'restarts': 1}"),
            ({"seeds": 5}, "seeds must be a tuple or list, got 5"),
            ({"lambdas": 0.7}, "lambdas must be a tuple or list, got 0.7"),
            ({"seeds": ()}, "need at least one seed"),
        ],
    )
    def test_direct_construction_is_checked_naming_the_field(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(instance_path=toy_instance_path(), **fields)


#: A wrongly typed value for every field of the three config types.
WRONG_TYPES = {
    ExperimentConfig: {
        "instance_path": 5, "regime": 3, "ansatz": 1, "lambdas": "0.5", "depth": 2.5,
        "seeds": "3", "optimizer": 5, "noise": 5, "master_seed": 0.5, "output_dir": 5,
        "workers": 2.5, "save_traces": "no",
    },
    OptimizerConfig: {
        "restarts": 2.5, "max_evals": True, "shots_objective": "1024", "batches": 1.5,
        "shots_final": None,
    },
    NoiseModel: {"p1": "0.1", "p2": True, "p01": None, "p10": [0.001]},
}


class TestWrongTypes:
    def test_table_covers_every_field(self):
        for cls, values in WRONG_TYPES.items():
            assert set(values) == {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize(
        "cls,name,value",
        [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}")
         for cls, values in WRONG_TYPES.items() for name, value in values.items()],
    )
    def test_python_and_config_file_give_one_message_naming_the_field(
        self, tmp_path, capsys, cls, name, value
    ):
        config = {"instance": toy_instance_path(), "output_dir": str(tmp_path / "out")}
        if cls is ExperimentConfig:
            with pytest.raises(ValueError) as raised:
                ExperimentConfig(**{"instance_path": toy_instance_path(), name: value})
            config["instance" if name == "instance_path" else name] = value
        else:
            with pytest.raises(ValueError) as raised:
                cls(**{name: value})
            config.update({"optimizer": {name: value}} if cls is OptimizerConfig
                          else {"regime": "III", "noise": {name: value}})
        message = str(raised.value)
        assert name in message
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestRunExperiment:
    def test_writes_all_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        records = run_experiment(cfg)
        assert len(records) == 4  # 2 cells x 2 seeds
        out = cfg.output_dir
        run_files = sorted(os.listdir(os.path.join(out, "runs")))
        assert run_files == [
            "constraint_aware_lam0.7_seed0.json",
            "constraint_aware_lam0.7_seed1.json",
            "standard_seed0.json",
            "standard_seed1.json",
        ]
        with open(os.path.join(out, "runs", run_files[0])) as fh:
            payload = json.load(fh)
        assert payload["model"] == "constraint_aware"
        assert payload["lambda"] == 0.7
        assert sum(payload["histogram"].values()) == payload["shots"] == 512
        assert set(payload["metrics"]) == {
            "optimal_probability", "energy_gap", "sampling_rank",
        }
        assert len(payload["distribution"]) == 64

        with open(os.path.join(out, "aggregate.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # header + standard + one lambda
        assert lines[0] == (
            "model,lambda,p_opt_mean,p_opt_std,p_opt_ci_low,p_opt_ci_high,"
            "gap_mean,gap_std,gap_ci_low,gap_ci_high,rank_mean,rank_std,rank_ci_low,rank_ci_high"
        )

        with open(os.path.join(out, "plot_data.csv")) as fh:
            plot_lines = fh.read().splitlines()
        assert len(plot_lines) == 1 + 2 * 3  # header + 2 cells x 3 metrics
        assert plot_lines[1].startswith("I,standard,")
        assert [line.split(",")[3] for line in plot_lines[1:]] == ["p_opt", "gap", "rank"] * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        trees = []
        for name in ("first", "second"):
            cfg = tiny_config(tmp_path / name, save_traces=True)
            run_experiment(cfg)
            trees.append(tree_bytes(cfg.output_dir))
        assert len(trees[0]) == 4 + 4 + 2  # run records, traces and the two CSVs
        assert trees[0] == trees[1]

    def test_a_used_output_directory_is_refused_and_left_unchanged(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        before = tree_bytes(cfg.output_dir)
        message = f"output directory {cfg.output_dir} already holds runs, aggregate.csv, plot_data.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(dataclasses.replace(cfg, lambdas=(0.9,)))
        argv = ["run", "--instance", toy_instance_path(), "--out", cfg.output_dir]
        assert main(argv) == 2
        assert cfg.output_dir in capsys.readouterr().err
        assert tree_bytes(cfg.output_dir) == before

    @pytest.mark.parametrize("name", ["runs", "traces", "aggregate.csv", "plot_data.csv"])
    def test_each_sweep_output_marks_a_directory_used(self, tmp_path, name):
        cfg = tiny_config(tmp_path)
        os.makedirs(cfg.output_dir)
        open(os.path.join(cfg.output_dir, name), "w").close()
        with pytest.raises(ValueError, match=f"already holds {name};"):
            run_experiment(cfg)
        assert os.listdir(cfg.output_dir) == [name]

    def test_pool_is_no_larger_than_the_task_count(self, monkeypatch):
        sizes = []

        def pool(max_workers):  # threads: the test starts no process
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        problem = build_problem(load_instance(toy_instance_path()))
        cfg = OptimizerConfig(restarts=1, max_evals=4, shots_final=64)
        records = run_cells(problem, [("standard", None)], (0, 1),
                            regime_objective_kind("I", None), 1, cfg, workers=4)
        assert sizes == [2]
        assert [r.seed for r in records] == [0, 1]

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_experiment(tiny_config(tmp_path / "a"))
        pooled = run_experiment(tiny_config(tmp_path / "b", workers=2))
        for a, b in zip(serial, pooled):
            assert a.histogram.counts == b.histogram.counts
            assert a.metrics == b.metrics

    def test_regime_two_and_three_smoke(self, tmp_path):
        cfg2 = tiny_config(
            tmp_path / "r2", regime="II", seeds=(0,), ansatz="constraint_aware",
            optimizer=OptimizerConfig(restarts=1, max_evals=8, shots_objective=128,
                                      batches=2, shots_final=256),
        )
        records = run_experiment(cfg2)
        assert len(records) == 1

        cfg3 = tiny_config(
            tmp_path / "r3", regime="III", seeds=(0,), ansatz="standard",
            noise=NOISE_PRESETS["paper"],
            optimizer=OptimizerConfig(restarts=1, max_evals=8, shots_objective=128,
                                      batches=2, shots_final=256),
        )
        records = run_experiment(cfg3)
        assert len(records) == 1
        assert records[0].metrics.optimal_probability >= 0.0

    @pytest.mark.parametrize("regime", ["I", "III"])
    def test_histogram_is_drawn_from_the_recorded_distribution(self, regime):
        problem = build_problem(load_instance(toy_instance_path()))
        kind = regime_objective_kind(regime, NOISE_PRESETS["paper"])
        cfg = OptimizerConfig(restarts=1, max_evals=8, shots_final=256)
        record = run_single(problem, "constraint_aware", 0.7, 1, 3, kind, cfg, 5)
        seed_seq = derive_run_seed(5, "constraint_aware", 0.7, 3)
        _, final_seed = (int(v) for v in seed_seq.generate_state(2, np.uint64))
        expected = sample(record.distribution, cfg.shots_final, np.random.default_rng(final_seed))
        assert record.histogram == expected

    def test_save_traces(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,), ansatz="standard", save_traces=True)
        run_experiment(cfg)
        trace_files = os.listdir(os.path.join(cfg.output_dir, "traces"))
        assert trace_files == ["standard_seed0.csv"]


class TestSeedChunks:
    SMALL = OptimizerConfig(restarts=2, max_evals=12, shots_objective=64, batches=2,
                            shots_final=256)

    def test_chunks_hold_at_most_the_cap_and_split_only_for_the_workers(self):
        seeds = tuple(range(30))
        chunks = cli.seed_chunks(seeds, 1, 5, None)  # 4 seeds x 5 restarts = 20 rows
        assert [len(c) for c in chunks] == [3, 4, 4, 4, 3, 4, 4, 4]
        assert sum(chunks, ()) == seeds
        assert cli.seed_chunks(seeds, 7, 5, 2) == chunks
        assert cli.seed_chunks((0, 1, 2, 3), 2, 5, None) == [(0, 1, 2, 3)]
        assert cli.seed_chunks((0, 1, 2, 3), 2, 5, 3) == [(0, 1), (2, 3)]
        assert cli.seed_chunks((0, 1), 1, 1, 4) == [(0,), (1,)]
        assert cli.seed_chunks((5, 2, 9), 1, 25, None) == [(5,), (2,), (9,)]
        assert cli.seed_chunks((), 2, 5, 2) == []
        assert cli.seed_chunks((0, 1), 0, 5, 2) == [(0, 1)]  # for no cell: no task

    @pytest.mark.parametrize("regime", ["I", "II", "III"])
    def test_records_do_not_depend_on_chunking_or_workers(self, monkeypatch, regime):
        problem = build_problem(load_instance(toy_instance_path()))
        kind = regime_objective_kind(regime, NOISE_PRESETS["paper"])
        cells = [("standard", None), ("constraint_aware", 0.7)]
        seeds = (0, 1, 2, 3)

        def records(workers):
            return [r.as_dict() for r in run_cells(problem, cells, seeds, kind, 2, self.SMALL,
                                                   master_seed=3, workers=workers)]

        assert cli.seed_chunks(seeds, 2, 2, 1) == [seeds]
        whole = records(1)  # one chunk per cell
        assert cli.seed_chunks(seeds, 2, 2, 3) == [(0, 1), (2, 3)]
        pooled = records(3)  # 4 tasks on 3 processes
        monkeypatch.setattr(cli, "CHUNK_ROWS", 1)
        assert cli.seed_chunks(seeds, 2, 2, 1) == [(0,), (1,), (2,), (3,)]
        single = records(1)  # one seed per task
        assert whole == pooled == single

    def test_a_chunk_fills_the_evaluator_call_up_to_the_cap(self, monkeypatch):
        from vrpqaoa import optimize

        compile_evaluator, rows = optimize.compile_evaluator, []

        def counting(*args):
            evaluator = compile_evaluator(*args)

            def probs(vecs):
                rows.append(int(np.prod(np.shape(vecs)[:-1])))
                return evaluator(vecs)

            return probs

        monkeypatch.setattr(optimize, "compile_evaluator", counting)
        problem = build_problem(load_instance(toy_instance_path()))
        cfg = OptimizerConfig(max_evals=10, shots_objective=64, batches=1, shots_final=64)
        run_cells(problem, [("standard", None)], tuple(range(8)),
                  regime_objective_kind("II", None), 1, cfg)
        # per 4-seed chunk: 10 lockstep rounds and the winners' re-evaluation of
        # 4 x 5 rows, then one final distribution per run
        assert rows == ([20] * 11 + [1] * 4) * 2


class TestCommandLine:
    def test_solve_command(self, capsys):
        assert main(["solve", toy_instance_path()]) == 0
        out = capsys.readouterr().out
        assert FEASIBLE in out
        assert "132" in out

    def test_encode_command_prints_key_values(self, capsys, tmp_path):
        json_out = tmp_path / "encoding.json"
        assert main(["encode", toy_instance_path(), "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "penalty P = 435.6" in out
        assert "2395.8" in out
        assert "542.15" in out
        payload = json.loads(json_out.read_text())
        assert payload["penalty"] == pytest.approx(435.6, abs=1e-6)

    def test_encode_table_lists_all_conventions(self, capsys):
        main(["encode", toy_instance_path()])
        out = capsys.readouterr().out
        assert "Ising (convention A)" in out
        assert "Ising (convention B)" in out

    def test_run_command_with_config_and_overrides(self, tmp_path, capsys):
        config = {
            "instance": toy_instance_path(),
            "ansatz": "standard",
            "depth": 1,
            "seeds": [0],
            "optimizer": FAST_OPT,
            "workers": 1,
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        code = main([
            "run", "--config", str(config_path),
            "--regime", "I", "--out", str(out_dir), "--shots-final", "128",
        ])
        assert code == 0
        assert "wrote 1 run records" in capsys.readouterr().out
        run_file = out_dir / "runs" / "standard_seed0.json"
        assert json.loads(run_file.read_text())["shots"] == 128

    def test_nearby_large_lambdas_write_separate_run_files(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"optimizer": FAST_OPT}))
        out_dir = tmp_path / "o"
        assert main([
            "run", "--config", str(config_path), "--instance", toy_instance_path(),
            "--regime", "I", "--lambda", "1234.567,1234.568", "--ansatz", "constraint_aware",
            "--seeds", "1", "--p", "1", "--out", str(out_dir),
        ]) == 0
        assert "wrote 2 run records" in capsys.readouterr().out
        assert sorted(os.listdir(out_dir / "runs")) == [
            "constraint_aware_lam1234.567_seed0.json",
            "constraint_aware_lam1234.568_seed0.json",
        ]

    def test_run_rejects_missing_instance(self, capsys):
        assert main(["run", "--regime", "I"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solve_rejects_four_nodes(self, tmp_path, capsys):
        four = tmp_path / "four.json"
        dist = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        four.write_text(json.dumps({"distances": dist, "vehicles": 1}))
        assert main(["solve", str(four)]) == 2
        assert "4 nodes exceeds the supported limit of 3 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--p", "0"], "depth (--p) must be >= 1, got 0"),
            (["--lambda", "-0.5"], "lambda must be >= 0, got -0.5"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--lambda", "0.7,0.7004"], "lambda 0.7004 is not a multiple of 0.001"),
            (["--lambda", "0.7,0.7"], "lambda 0.7 is repeated"),
            (["--lambda", "inf"], "lambda must be a finite real number, got inf"),
            (["--lambda", "nan"], "lambda must be a finite real number, got nan"),
            (["--seeds", "1,1"], "seed 1 is repeated"),
            (["--seeds=-1,2"], "seed must be >= 0, got -1"),
            # distinct seed keys, one run-file name
            (["--lambda", "1000000000.001,1000000000.002"], "lambda 1000000000.002 is repeated"),
            (["--noise-preset", "paper"], "regime I is noiseless; noise applies to regime III only"),
            (["--regime", "II", "--noise-preset", "paper"], "regime II is noiseless"),
            (["--seeds=-2"], "seed count must be >= 1, got -2"),
            (["--seeds", "0"], "seed count must be >= 1, got 0"),
        ],
    )
    def test_run_rejects_bad_sweep_config(self, tmp_path, capsys, flags, message):
        argv = ["run", "--instance", toy_instance_path(), "--out", str(tmp_path / "out")]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"lamdbas": [0.5]}, "unknown config key 'lamdbas'"),
            ({"noisy_init": False}, "unknown config key 'noisy_init'"),
            ({"penalty": 400.0}, "unknown config key 'penalty'"),
            ({"scale": 500.0}, "unknown config key 'scale'"),
            ({"optimizer": {"seed": 3}}, "unknown config key 'optimizer.seed'"),
            ({"regime": "III", "noise": {"p_1": 0.1}}, "unknown config key 'noise.p_1'"),
            ({"depth": 2.5}, "depth (--p) must be a whole number, got 2.5"),
            ([{"depth": 1}], "the config must be a JSON object"),
            ({"regime": "IV"}, "unknown regime 'IV'"),
            ({"seeds": [1, 1]}, "seed 1 is repeated"),
            ({"seeds": [-1, 2]}, "seed must be >= 0, got -1"),
            ({"master_seed": -5}, "master_seed must be >= 0, got -5"),
            ({"regime": "II", "noise": {"p01": 0.01}}, "regime II is noiseless"),
            ({"seeds": -2}, "seed count must be >= 1, got -2"),
            ({"regime": "III", "noise": "loud"}, "unknown noise preset 'loud'"),
        ],
    )
    def test_run_rejects_bad_config_file(self, tmp_path, capsys, config, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        argv = ["run", "--config", str(config_path), "--instance", toy_instance_path(),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_reports_config_parse_error(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"regime": "I",\n bad}')
        argv = ["run", "--config", str(config_path), "--instance", toy_instance_path(),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"error: {config_path}: invalid JSON at line 2 column 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_of_defaults_matches_empty_config(self, tmp_path):
        defaults = {
            "instance": toy_instance_path(),
            "regime": "I",
            "ansatz": "both",
            "lambdas": [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            "depth": 4,
            "seeds": list(range(30)),
            "optimizer": {"restarts": 5, "max_evals": 150, "shots_objective": 1024,
                          "batches": 3, "shots_final": 4096},
            "noise": None,
            "master_seed": 0,
            "output_dir": "results",
            "workers": None,
            "save_traces": False,
        }
        # the flags shrink both sweeps to one short run
        flags = ["--instance", toy_instance_path(), "--ansatz", "standard", "--p", "1",
                 "--seeds", "1"]
        outputs = {}
        for name, config in (("empty", {}), ("defaults", defaults)):
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(["run", "--config", str(config_path), "--out", str(out)] + flags) == 0
            outputs[name] = tree_bytes(out)
        assert len(outputs["empty"]) == 3
        assert outputs["defaults"] == outputs["empty"]

    def test_solve_rejects_non_finite_distance(self, tmp_path, capsys):
        payload = load_instance(toy_instance_path()).to_dict()
        payload["distances"][1][2] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", str(bad)]) == 2
        assert "distance [1][2] must be a finite real number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,message", MALFORMED_INSTANCES)
    def test_solve_rejects_malformed_instance(self, tmp_path, capsys, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", str(bad)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--penalty"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_encode_rejects_bad_penalty_or_scale(self, capsys, flag, value):
        assert main(["encode", toy_instance_path(), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be finite and > 0, got {float(value)}" in err

    @pytest.mark.parametrize(
        "distances,message",
        [
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], "every link costs 0, so the default penalty"),
            ([[0, 5e-324], [5e-324, 0]], "link costs are too small"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "encode", "run"])
    def test_degenerate_link_costs_rejected(self, tmp_path, capsys, distances, message, command):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"distances": distances, "vehicles": 1}))
        argv = [command, str(inst)]
        if command == "run":
            argv = ["run", "--instance", str(inst), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_encode_zero_cost_with_explicit_penalty(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"distances": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "vehicles": 1}))
        assert main(["encode", str(inst), "--penalty", "5"]) == 0
        assert "energy scale s = " in capsys.readouterr().out

    def test_solve_reports_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_integer_lambdas_are_written_as_floats(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "instance": toy_instance_path(), "ansatz": "constraint_aware", "lambdas": [1],
            "depth": 1, "seeds": [0], "optimizer": FAST_OPT,
        }))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        record = json.loads((out_dir / "runs" / "constraint_aware_lam1_seed0.json").read_text())
        assert record["lambda"] == 1.0 and isinstance(record["lambda"], float)

    def test_seed_and_lambda_parsing(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--instance", toy_instance_path(), "--seeds", "3",
            "--lambda", "0.5,0.7", "--ansatz", "constraint_aware", "--p", "1",
        ])
        cfg = build_experiment_config({}, args)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.lambdas == (0.5, 0.7)
        assert cfg.depth == 1

    def test_noise_preset_flag(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--instance", toy_instance_path(), "--regime", "III",
            "--noise-preset", "paper", "--seeds", "1", "--ansatz", "standard",
        ])
        cfg = build_experiment_config({"optimizer": FAST_OPT}, args)
        assert cfg.noise == NoiseModel(p1=0.00015, p2=0.00125, p01=0.001, p10=0.001)

    @pytest.mark.parametrize("regime", ["I", "II", "III"])
    def test_noise_none_is_accepted_in_every_regime(self, regime):
        args = build_parser().parse_args([
            "run", "--instance", toy_instance_path(), "--regime", regime,
            "--noise-preset", "none",
        ])
        assert build_experiment_config({}, args).noise == NoiseModel()


class TestRegimeKinds:
    def test_mapping(self):
        assert regime_objective_kind("I", None).regime == "I"
        assert regime_objective_kind("II", None).regime == "II"
        noisy = regime_objective_kind("III", NOISE_PRESETS["paper"])
        assert noisy.regime == "III"
        assert noisy.noise is not None

    @pytest.mark.parametrize("regime", ["I", "II"])
    def test_noise_is_dropped_outside_regime_three(self, regime):
        assert regime_objective_kind(regime, NOISE_PRESETS["paper"]).noise is None

    def test_regime_three_needs_noise(self):
        with pytest.raises(ValueError):
            regime_objective_kind("III", None)
