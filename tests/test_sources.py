"""The package sources state no timing figure: a measured time or speed-up lives in
the BENCH file or CHANGES.md entry that measured it, and code cites that instead of
restating a number that the next speed change would leave stale."""
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vrpqaoa").glob("*.py"))

#: A number followed by a time unit (µs, us, ms), an N.Nx speed multiplier, or a CPU name.
TIMING_FIGURE = re.compile(
    r"\d\s*(?:µs|us|ms)\b|\b\d+\.\d+\s*[x×](?!\w)"
    r"|\b(?:Xeon|EPYC|Ryzen|Opteron|Threadripper|Graviton|Core i[3579]|Apple M\d)\b",
    re.IGNORECASE,
)


def timing_figures(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every line of ``text`` that states a timing figure."""
    return [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
            if TIMING_FIGURE.search(line)]


@pytest.mark.parametrize("line", [
    "the cost per row falls from 14 to 9 us", "about 40 µs per 5-row round",
    "118 us at 40 rows", "took 2.5 ms", "trims 1.7x and 1.1x", "2.2× faster", "(2-core Xeon)",
    "an AMD EPYC 7B13",
])
def test_the_pattern_flags_timing_figures(line):
    assert timing_figures(line)


@pytest.mark.parametrize("line", [
    "16 states, 16 levels and 9 eigenvalues", "(rows, 2^n) amplitudes", "a 64x64 matrix",
    "status", "2 ** n", "ms = measure(ps)", "focus", "1e-12", "depth 4, 20 rows",
])
def test_the_pattern_leaves_counts_and_names_alone(line):
    assert not timing_figures(line)


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_source_states_a_timing_figure(source):
    assert timing_figures(source.read_text(encoding="utf-8")) == []
