"""The demos run to completion, the top-level package exports every
name that they and the README quick start import from it, every
public library function, method and property has a caller outside the
tests or is a kept oracle, and every field an extract stage hands on is
read."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffrigidity
from ffrigidity import multiset, pipeline, strata

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


# Public library functions and methods that nothing under src/, demos/
# or bench/ references, each kept for the test or criterion that reads it.
KEPT_ORACLES = (
    ("geometry.flat_from_pair", "scalar oracle of pipeline.flat_profile"),
    ("geometry.hyperplane_contains",
     "pointwise oracle of hyperplane_incidence"),
    ("geometry.hyperplane_points", "builds planted test configs"),
    ("strata.dyadic_class", "scalar oracle of the dyadic layers"),
    ("strata.low_layer_mass", "criterion 3"),
)


def _references():
    """The names, and the attribute names read, in the code under src/,
    demos/ and bench/."""
    names, attributes = set(), set()
    for top in ("src", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names |= {alias.name.rpartition(".")[2]
                              for alias in node.names}
    return names, attributes


def _public_functions(body, prefix: str):
    """(qualified name, name) of the public functions in a module or class
    body, and of the public methods and properties of its public classes."""
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _public_functions(node.body, f"{prefix}.{node.name}")


def test_no_unreferenced_library_functions():
    public = set()
    for path in (ROOT / "src" / "ffrigidity").glob("*.py"):
        public |= set(_public_functions(ast.parse(path.read_text()).body,
                                        path.stem))
    names, attributes = _references()
    unreferenced = {qualified for qualified, name in public
                    if name not in names | attributes}
    assert unreferenced == {qualified for qualified, _ in KEPT_ORACLES}


def test_stage_hand_off_fields_are_read():
    """Every field one extract stage hands to the next is read as an
    attribute outside the tests."""
    stages = (strata.PersistentPairs, multiset.HyperplaneMultiset,
              strata.RegularizedConfig, pipeline.FlatProfile,
              multiset.MassRetentionReport)
    attributes = _references()[1]
    unread = {f"{cls.__name__}.{f.name}" for cls in stages
              for f in dataclasses.fields(cls) if f.name not in attributes}
    assert unread == set()
