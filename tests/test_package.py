"""The package's public names."""

import ast
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
