"""Every ``examples/*.py`` imports, and the README quickstart runs: a
deleted export breaks these first.

Each example runs only under its ``__main__`` guard, so importing it
builds no network — only its imports and module-level tables execute.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_quickstart_runs():
    # The README's one ``python`` block, as written: it imports through
    # the ``repro`` and ``repro.bounds`` namespaces and asserts eq. 12
    # and eq. 17 on a 60 s run.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
