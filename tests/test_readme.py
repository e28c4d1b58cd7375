"""README's "Library sketch" runs as written and its config table matches the
config schema, so the documented API cannot rot."""
import argparse
import re
from dataclasses import fields
from pathlib import Path

from vrpqaoa.cli import RUN_FLAG_KEYS, ExperimentConfig, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    assert capsys.readouterr().out.startswith("RunMetrics(optimal_probability=")


def test_config_table_matches_the_config_schema():
    """The config table lists exactly ExperimentConfig's keys (``instance`` for
    ``instance_path``), each with the ``run`` flag that overrides it."""
    section = README.read_text(encoding="utf-8").split("A config file is one JSON object.", 1)[1]
    rows = [line.strip("|").split("|") for line in section.split("\n\n")[1].splitlines()[2:]]
    table = {cells[0].strip().strip("`"): cells[-1].strip().strip("`") for cells in rows}
    keys = {"instance" if f.name == "instance_path" else f.name for f in fields(ExperimentConfig)}
    run = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = {RUN_FLAG_KEYS[a.dest]: a.option_strings[0] for a in run._actions
             if a.dest in RUN_FLAG_KEYS}
    assert table == {key: flags.get(key, "") for key in keys}
