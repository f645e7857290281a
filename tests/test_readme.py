"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "README has no python block under ## Library"
    exec(compile(blocks[0], "README.md", "exec"), {})
