"""The package exports exactly the names its callers import from it."""

import ast
import types
from pathlib import Path

import proxqn

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "ALGORITHMS",
    "CompositeProblem",
    "Dataset",
    "OptimizerConfig",
    "SyntheticQuadratic",
    "logistic_problem",
    "quadratic_problem",
    "read_libsvm",
    "synthesize_quadratic",
    "write_libsvm",
]


def _imported_from_proxqn(source: str) -> set[str]:
    """The names bound by ``from proxqn import ...`` statements."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "proxqn"
            and node.level == 0
            for alias in node.names}


def test_all_is_the_ten_public_names():
    assert sorted(proxqn.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from proxqn import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC


def test_every_public_attribute_is_in_all():
    public = {name for name, value in vars(proxqn).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(proxqn.__all__)


def test_every_export_has_a_caller():
    """Each name in ``__all__`` is imported from ``proxqn`` by a bench
    script, a test or the README's Python example, so an export whose
    last caller goes fails here."""
    sources = [path.read_text() for pattern in ("bench/*.py", "tests/*.py")
               for path in sorted(ROOT.glob(pattern))]
    readme = (ROOT / "README.md").read_text()
    sources.append(readme.split("```python\n")[1].split("```")[0])
    imported = set().union(*map(_imported_from_proxqn, sources))
    assert set(proxqn.__all__) <= imported, set(proxqn.__all__) - imported
