"""The python examples of README.md run: every ```python block is
executed, in order, in one shared namespace, so an example that names a
deleted function or argument fails here."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
