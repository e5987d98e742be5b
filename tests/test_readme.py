"""The README's library quickstart runs as written and prints what its comments say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_commented_values(monkeypatch, capsys):
    code = _quickstart()
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    for call, out in zip(calls, printed):
        if "  # " not in call:
            continue
        expected = call.split("  # ", 1)[1].strip()
        head, dots, _ = expected.partition("...")
        if dots:
            assert out.startswith(head), call
        else:
            assert out == expected, call
