"""Static guard: production layers join only through the batch operators.

The nested-loop evaluator (``repro.chase.gav``, ``match_atoms``,
``CompiledJoin``) is the test-only reference; no module of the query
pipeline or the serving tier may import it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PRODUCTION_PACKAGES = ("xr", "incremental", "serve", "runtime", "asp")
FORBIDDEN_MODULES = {"repro.chase.gav"}
FORBIDDEN_NAMES = {"match_atoms", "CompiledJoin"}


def forbidden_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [
                alias.name for alias in node.names
                if alias.name in FORBIDDEN_MODULES
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module in FORBIDDEN_MODULES:
                found.append(module)
            if module == "repro.chase" and "gav" in names:
                found.append("repro.chase.gav")
            found += sorted(names & FORBIDDEN_NAMES)
    return found


@pytest.mark.parametrize("package", PRODUCTION_PACKAGES)
def test_production_package_does_not_import_the_reference(package):
    modules = sorted((SRC / package).rglob("*.py"))
    assert modules
    offenders = {
        str(path.relative_to(SRC)): found
        for path in modules
        if (found := forbidden_imports(path))
    }
    assert offenders == {}


def test_guard_detects_each_forbidden_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import repro.chase.gav\n"
        "from repro.chase import gav\n"
        "from repro.chase.gav import gav_chase\n"
        "from repro.relational.queries import CompiledJoin, match_atoms\n"
    )
    assert forbidden_imports(sample) == [
        "repro.chase.gav",
        "repro.chase.gav",
        "repro.chase.gav",
        "CompiledJoin",
        "match_atoms",
    ]
