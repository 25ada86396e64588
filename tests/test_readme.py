"""The README's examples run as written."""

import re
from pathlib import Path

from catat import FloatV

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert "pow_two_level.cat" in block
    assert namespace["result"].value == FloatV(8.0)
    assert namespace["result"].steps == 10
