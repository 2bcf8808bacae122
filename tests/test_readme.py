"""The README's library examples run as written: every ```python block of
README.md is executed, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
