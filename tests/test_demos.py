"""The demos run to completion, and the top-level package exports every
name that they and the README quick start import from it."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffrigidity

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _package_imports(source: str) -> set:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module == "ffrigidity" and node.level == 0
            for alias in node.names}


def test_public_surface():
    for name in ffrigidity.__all__:
        assert getattr(ffrigidity, name) is not None
    readme = (ROOT / "README.md").read_text()
    quick_start = re.search(r"## Library quick start.*?```python\n(.*?)```",
                            readme, re.S).group(1)
    used = _package_imports(quick_start)
    for demo in DEMOS:
        used |= _package_imports(demo.read_text())
    assert used and used <= set(ffrigidity.__all__)
    # the benchmark's tracer replaces this re-exported function
    assert inspect.isfunction(ffrigidity.dichotomy)
