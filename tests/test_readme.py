"""README's Python examples run as written: each ```python block is executed
on its own, so the documented API and the custom-domain contract keep
working."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
