#!/usr/bin/env python3
"""Sweep benchmark for vrpqaoa.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed number of units with every module traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller result, with the environment stamp, goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads: shots-cli runs
# nproc pool workers, and workers x BLAS threads must not exceed nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A fresh interpreter's set-up: import, load the instance, build the problem.
SETUP_PROBE = (
    "import sys\n"
    "from vrpqaoa.cli import build_problem, load_instance\n"
    "build_problem(load_instance(sys.argv[1]))\n"
)
SETUP_REPEATS = 9


def measure_setup_s(instance_path: str) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh interpreters.

    Returns them in reference seconds and in wall seconds.  The host-speed
    probe runs in this process while each child runs, and scales that
    child's wall time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ref, wall = [], []
    with hostspeed.Probe() as probe:
        for _ in range(SETUP_REPEATS):
            first = len(probe.samples)
            start = time.perf_counter()
            # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
            subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, instance_path],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            wall.append(time.perf_counter() - start)
            ref.append(wall[-1] * hostspeed.speed(probe.since(first)))
    return ref, wall


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus pool_workers times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vrpqaoa" / "__init__.py").is_file():
        print(f"perfbench: no vrpqaoa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Metric names, units and order come from the benchmark definition.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    import check
    import envstamp
    import sweep
    import tracing
    from vrpqaoa import cli

    if args.workload not in sweep.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(sweep.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = sweep.WORKLOADS[args.workload]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    instance = None
    if workload.via_experiment:
        instance = sweep.generate_instance(args.seed)
        instance_path = str(OUT / f"{workload.name}-seed{args.seed}-instance.json")
        with open(instance_path, "w", encoding="utf-8") as fh:
            json.dump(instance, fh)
            fh.write("\n")
        # The sweep's run streams come from the workload seed too.
        master_seed = args.seed
    else:
        instance_path = cli.toy_instance_path()
        # The CLI's default sweep seeds, whatever --seed says: quality then
        # compares the same seeded runs on every commit (see README.md).
        master_seed = 0
    workers = 1 if traced or not workload.via_experiment else envstamp.nproc()

    with tempfile.TemporaryDirectory(prefix=stem + "-", dir=OUT) as tmp:
        with tracing.Tracer() if traced else contextlib.nullcontext() as tracer:
            run = sweep.Sweep(workload, instance_path, master_seed, workers, Path(tmp))
            # Untraced runs measure the host's speed meanwhile (hostspeed.py).
            with contextlib.nullcontext() if traced else hostspeed.Probe() as probe:
                loop = sweep.closed_loop(
                    run.run_unit, workload.runs_per_unit, args.seconds,
                    units=workload.trace_units if traced else None,
                    min_units=workload.quality_units,
                )
        rss_mb = peak_rss_mb(workers if workload.via_experiment else 0)
        output_bytes = run.output_bytes()
        run.load_written_records()
        problem = run.problem or cli.build_problem(cli.load_instance(instance_path))
        records = run.records()
        failures = check.failed_records(records, problem, run.kind, sweep.OPTIMIZER.shots_final)
        missing = loop.attempted - loop.raised - len(records)

    attempted = loop.attempted
    failed = min(attempted, loop.raised + len(failures) + max(missing, 0))
    for index, errors in failures[:5]:
        print(f"perfbench: record {index} failed: {'; '.join(errors)}", file=sys.stderr)
    wall_runs_per_s = (attempted - loop.raised) / loop.elapsed_s
    host_speed = None
    setup_ref_s = setup_wall_s = []

    if traced:
        metrics = tracing.layer_metrics(tracer.spans, max(attempted, 1))
        metrics["cli.output_bytes"] = output_bytes
        metrics["trace.runs_per_s"] = wall_runs_per_s
        tracer.write(str(OUT / f"{stem}-spans.jsonl.gz"))
    else:
        # Quality over the first quality_units units only: the same seeded
        # runs on every commit, however many units the loop fits.
        quality = [r["metrics"] for r in run.records(first=workload.quality_units)] or [
            {"optimal_probability": 0.0, "energy_gap": 0.0}  # every run raised
        ]
        # Runs per reference second: the rate on a host of the probe's
        # reference speed, so the host's drift between runs cancels.
        host_speed = hostspeed.speed(probe.since(0))
        setup_ref_s, setup_wall_s = measure_setup_s(instance_path)
        metrics = {
            "setup_s": statistics.median(setup_ref_s),
            "runs_per_s": wall_runs_per_s / host_speed,
            "p_opt_mean": statistics.fmean(m["optimal_probability"] for m in quality),
            "energy_gap_mean": statistics.fmean(m["energy_gap"] for m in quality),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rss_mb,
        }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer" if traced else "end_to_end"]
        },
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "master_seed": master_seed,
        "workers": workers,
        "units": loop.units,
        "quality_units": workload.quality_units,
        "unit_s": loop.unit_s,
        "elapsed_s": loop.elapsed_s,
        "wall_runs_per_s": wall_runs_per_s,
        "host_speed": host_speed,
        "setup_ref_s": setup_ref_s,
        "setup_wall_s": setup_wall_s,
        "instance": instance,
        "failures": [{"record": i, "errors": e} for i, e in failures],
        "environment": envstamp.stamp(ROOT),
        "result": result,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
