"""The package's public names."""

import ast
import inspect
from pathlib import Path

import hetcache


def test_all_is_sorted_and_lists_every_import():
    # __all__ names exactly what __init__.py imports, sorted, and each resolves
    tree = ast.parse(Path(hetcache.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert hetcache.__all__ == sorted(hetcache.__all__)
    assert sorted(imported) == hetcache.__all__
    for name in hetcache.__all__:
        assert hasattr(hetcache, name), name


# every parameter with a default, of every function the package exports: a
# new option shows up here as a diff
DEFAULTS = {
    "cutset_budget": {"start": None},
    "make_library": {"seed": 0, "demand": None},
    "make_variable_index": {"per_layer_signals": False},
    "rho": {"q": 2},
    "scheme_problems": {"tol": 1e-7},
    "solve_lp": {"start": None},
    "verify": {"seed": 0},
}


def test_defaulted_parameters_are_pinned():
    found = {}
    for name in hetcache.__all__:
        fn = getattr(hetcache, name)
        if inspect.isfunction(fn):
            params = inspect.signature(fn).parameters.values()
            defaults = {p.name: p.default for p in params if p.default is not p.empty}
            if defaults:
                found[name] = defaults
    assert found == DEFAULTS


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; this catches syntax
    # newer than that (ast's feature_version), not newer stdlib APIs
    root = Path(__file__).resolve().parents[1]
    files = [path for top in ("src", "tests", "perfbench") for path in (root / top).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
