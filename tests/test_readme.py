"""The README's "Library use" snippet runs and prints what its comments say."""

import contextlib
import io
import re

from conftest import ROOT


def _snippet():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_prints_its_comments(monkeypatch):
    code = _snippet()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    monkeypatch.chdir(ROOT)  # the snippet opens models/coffee.bp
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
