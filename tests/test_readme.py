"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["exact"].frequents
    assert len(scope["mined"]) == len(scope["stats"])
