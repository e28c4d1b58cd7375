"""README's "Library sketch" runs as written, so the documented API cannot rot."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    assert capsys.readouterr().out.startswith("RunMetrics(optimal_probability=")
