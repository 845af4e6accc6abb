"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    tour = {}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    assert tour["report"]["pass"]
