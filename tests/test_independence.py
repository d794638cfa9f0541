"""The reference routes import nothing from the code they check, and the library imports no scipy.

The oracle shares no code with the perturbative (`decay`) and Floquet
paths; its stepper, `dop853`, imports nothing but numpy. `specfun` is
self-contained: scipy, whose special functions and quadrature the tests
use as references, is imported by no module of the package. `decay` is
exempt only for the `decay.quad` name that the benchmark's tracer wraps;
nothing in the library calls it. Imports are read from the source with
`ast`, function bodies included, so a deferred import counts too.
"""

import ast
from pathlib import Path

import pytest

import floquet_zeno

PACKAGE = Path(floquet_zeno.__file__).resolve().parent


def imported_modules(module: str) -> tuple[set[str], set[str]]:
    """(package-relative modules, absolute top-level packages) imported anywhere in the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .decay import x` names decay; `from . import decay` names it as an alias.
            relative.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            absolute.update(a.name.split(".")[0] for a in node.names)
    return relative, absolute


@pytest.mark.parametrize(
    "module, allowed, forbidden",
    [
        ("oracle", {"bath", "dop853", "errors", "params"}, {"floquet_zeno", "scipy"}),
        ("specfun", {"errors"}, {"floquet_zeno", "scipy"}),
        ("dop853", set(), {"floquet_zeno", "scipy"}),
        ("bath", {"errors", "params", "specfun"}, {"scipy"}),
        ("cli", {"bath", "decay", "errors", "floquet", "oracle", "params", "specfun"}, {"scipy"}),
        ("floquet", {"bath", "errors", "params", "specfun"}, {"scipy"}),
        ("params", {"errors"}, {"scipy"}),
        ("errors", set(), {"scipy"}),
        ("__init__", {"bath", "decay", "floquet", "oracle", "params", "specfun"}, {"scipy"}),
    ],
)
def test_reference_module_imports(module, allowed, forbidden):
    relative, absolute = imported_modules(module)
    assert relative <= allowed, relative - allowed
    assert not absolute & forbidden, absolute & forbidden
