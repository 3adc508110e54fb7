"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_example_prints_its_comment():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # the block's "# ..." lines show its expected output
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown == ["[True, True, True, True, True, True]"]
