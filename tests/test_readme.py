"""The Python quick start of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_quick_start_runs():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["bt"].pd == 2 and namespace["bt"].certified_free_tail
