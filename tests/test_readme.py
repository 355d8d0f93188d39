"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})
