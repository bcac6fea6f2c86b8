"""The README's Quickstart runs and prints what it says it prints."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    """The Quickstart section's fenced python block."""
    section = README.read_text().split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_documented_line(capsys):
    code = _quickstart()
    expected = code.rstrip().splitlines()[-1]
    assert expected.startswith("# W2 = ")
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [expected[2:]]
