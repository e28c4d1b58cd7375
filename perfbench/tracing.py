"""Span tracing of the vrpqaoa modules from outside the package.

Modules import each other with ``from .x import y``, so a function is
wrapped under the name its *caller* looks up: ``vrpqaoa.optimize.evolve``,
``vrpqaoa.ansatz.apply_gate`` and so on.  Spans (name, start, end, parent)
are kept in memory and written when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from importlib import import_module
from typing import Callable

from vrpqaoa.simcore import DensityMatrix

GATE_GROUP = {
    "h": "init", "cnot": "init", "x": "init",
    "rzz": "cost", "rz": "cost",
    "rx": "mixer", "rxx": "mixer", "ryy": "mixer",
}


def _gate_span(args, kwargs) -> str:
    state, op = args[0], args[1]
    engine = "dm" if isinstance(state, DensityMatrix) else "sv"
    return f"simcore.apply_gate.{engine}.{GATE_GROUP.get(op.name, 'other')}"


def _depolarize_span(args, kwargs) -> str:
    return f"simcore.depolarize.{len(args[1])}q"


#: (module the caller lives in, name it looks up, span name or namer).
PATCHES: tuple[tuple[str, str, str | Callable], ...] = (
    ("vrpqaoa.cli", "brute_force_optimum", "instance.brute_force_optimum"),
    ("vrpqaoa.cli", "penalize", "encode.penalize"),
    ("vrpqaoa.encode.CompiledCost", "from_qubo", "encode.CompiledCost.from_qubo"),
    ("vrpqaoa.optimize", "evolve", "ansatz.evolve"),
    ("vrpqaoa.ansatz", "prepare_initial_state", "ansatz.prepare_initial_state"),
    ("vrpqaoa.ansatz", "cost_circuit", "ansatz.cost_circuit"),
    ("vrpqaoa.ansatz", "mixer_circuit", "ansatz.mixer_circuit"),
    ("vrpqaoa.ansatz", "apply_gate", _gate_span),
    ("vrpqaoa.simcore", "depolarize", _depolarize_span),
    ("vrpqaoa.optimize", "apply_readout_confusion", "simcore.apply_readout_confusion"),
    ("vrpqaoa.ansatz", "apply_diagonal_phase", "simcore.apply_diagonal_phase"),
    ("vrpqaoa.optimize", "measure_distribution", "simcore.measure_distribution"),
    ("vrpqaoa.optimize", "sample", "simcore.sample"),
    ("vrpqaoa.optimize", "objective", "optimize.objective"),
    ("vrpqaoa.optimize", "final_distribution", "optimize.final_distribution"),
    ("vrpqaoa.cli", "final_distribution", "optimize.final_distribution"),
    ("vrpqaoa.optimize", "nelder_mead", "optimize.nelder_mead"),
    ("vrpqaoa.cli", "minimize", "optimize.minimize"),
    ("vrpqaoa.cli", "final_sampling", "optimize.final_sampling"),
    ("vrpqaoa.cli", "run_metrics", "metrics.run_metrics"),
    ("vrpqaoa.cli", "run_single", "cli.run_single"),
    ("vrpqaoa.cli", "run_cells", "cli.run_cells"),
    ("vrpqaoa.cli", "run_experiment", "cli.run_experiment"),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS = (
    "instance.brute_force_optimum",
    "encode.penalize",
    "encode.CompiledCost.from_qubo",
    "ansatz.evolve",
    "ansatz.prepare_initial_state",
    "ansatz.cost_circuit",
    "ansatz.mixer_circuit",
    *(f"simcore.apply_gate.{e}.{g}" for e in ("sv", "dm") for g in ("init", "cost", "mixer")),
    "simcore.depolarize.1q",
    "simcore.depolarize.2q",
    "simcore.apply_readout_confusion",
    "simcore.apply_diagonal_phase",
    "simcore.measure_distribution",
    "simcore.sample",
    "optimize.objective",
    "optimize.final_distribution",
    "optimize.nelder_mead",
    "optimize.minimize",
    "optimize.final_sampling",
    "metrics.run_metrics",
    "cli.run_single",
    "cli.run_cells",
    "cli.run_experiment",
)



def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(import_module(module), attr)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str | Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent)

        return traced

    def install(self) -> None:
        for owner_path, attr, name in PATCHES:
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
                if not isinstance(original, classmethod):
                    print(f"trace: {owner_path}.{attr} not found, not traced", file=sys.stderr)
                    continue
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {owner_path}.{attr} not found, not traced", file=sys.stderr)
                    continue
                replacement = self._wrap(original, name)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, runs: int) -> dict[str, float]:
    """Per-layer counts and self times, plus the derived ratios."""
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    objective_s = 0.0
    final_outside_objective = 0
    evals_in_nm = 0
    for (name, start, end, parent), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "optimize.objective":
            objective_s += end - start
            if parent_name == "optimize.nelder_mead":
                evals_in_nm += 1
        elif name == "optimize.final_distribution" and parent_name != "optimize.objective":
            final_outside_objective += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    n_obj = calls["optimize.objective"]
    out["optimize.objective.ms_per_call"] = 1000.0 * objective_s / n_obj if n_obj else 0.0
    out["optimize.final_distribution.per_run"] = final_outside_objective / runs
    n_nm = calls["optimize.nelder_mead"]
    out["optimize.nelder_mead.evals_per_restart"] = evals_in_nm / n_nm if n_nm else 0.0
    return out
