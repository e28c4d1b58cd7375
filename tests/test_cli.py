import json
import os

import numpy as np
import pytest

from conftest import FEASIBLE, FEASIBLE_COST
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
    run_experiment,
    run_single,
    solve_report,
    toy_instance_path,
)
from vrpqaoa.optimize import OptimizerConfig
from vrpqaoa.simcore import NoiseModel, sample

FAST_OPT = {"restarts": 1, "max_evals": 12}


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
        with pytest.raises(ValueError):
            tiny_config(tmp_path, regime="III", noise=None)

    def test_unknown_regime(self, tmp_path):
        with pytest.raises(ValueError):
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
        assert lines[0].startswith("model,lambda,p_opt_mean,p_opt_std")

        with open(os.path.join(out, "plot_data.csv")) as fh:
            plot_lines = fh.read().splitlines()
        assert len(plot_lines) == 1 + 2 * 3  # header + 2 cells x 3 metrics
        assert plot_lines[1].startswith("I,standard,")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "aggregate.csv"), "rb") as fh:
            first = fh.read()
        run_experiment(cfg)
        with open(os.path.join(cfg.output_dir, "aggregate.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

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
            (["--lambda", "-0.5"], "lambda -0.5 is negative"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--lambda", "0.7,0.7004"], "lambda 0.7004 is not a multiple of 0.001"),
        ],
    )
    def test_run_rejects_bad_sweep_config(self, tmp_path, capsys, flags, message):
        argv = ["run", "--instance", toy_instance_path(), "--out", str(tmp_path / "out")]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solve_reports_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

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


class TestRegimeKinds:
    def test_mapping(self):
        assert regime_objective_kind("I", None).kind == "exact_expectation"
        assert regime_objective_kind("II", None).kind == "shot_estimate"
        noisy = regime_objective_kind("III", NOISE_PRESETS["paper"])
        assert noisy.kind == "noisy_shot_estimate"
        assert noisy.noise is not None

    def test_regime_three_needs_noise(self):
        with pytest.raises(ValueError):
            regime_objective_kind("III", None)
