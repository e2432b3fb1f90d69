"""Public-API consistency checks.

Guards the documented surface: ``__all__`` entries must resolve, the
lazy top-level facade must work, and the registries must stay aligned
with the documentation.
"""

import ast
import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.core",
    "repro.direct",
    "repro.distbaseline",
    "repro.detection",
    "repro.experiments",
    "repro.grid",
    "repro.linalg",
    "repro.matrices",
    "repro.runtime",
    "repro.schedule",
    "repro.serve",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} lacks __all__"
    for entry in mod.__all__:
        assert getattr(mod, entry, None) is not None or entry in dir(mod), (
            f"{name}.__all__ lists unresolvable {entry!r}"
        )


@pytest.mark.parametrize("name", PACKAGES)
def test_all_sorted_and_unique(name):
    mod = importlib.import_module(name)
    entries = list(mod.__all__)
    assert len(entries) == len(set(entries)), f"{name}.__all__ has duplicates"


def test_top_level_lazy_facade():
    import repro

    assert repro.MultisplittingSolver is not None
    assert repro.SolveResult is not None
    assert repro.__version__ == "1.0.0"
    with pytest.raises(AttributeError):
        repro.NoSuchThing


def test_direct_registry_matches_docs():
    from repro.direct import available_solvers

    assert available_solvers() == ["banded", "dense", "scipy"]


def test_workload_registry_matches_paper():
    from repro.matrices import WORKLOADS

    paper_names = {w.paper_name for w in WORKLOADS.values()}
    assert paper_names == {
        "cage10.rua",
        "cage11.rua",
        "cage12.rua",
        "generated 500000",
        "generated 100000",
    }


def test_experiment_registry_covers_evaluation():
    from repro.experiments import EXPERIMENTS

    assert set(EXPERIMENTS) == {"table1", "table2", "table3", "table4", "figure3"}


def test_every_public_callable_has_docstring():
    """Deliverable (e): doc comments on every public item."""
    missing = []
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for entry in mod.__all__:
            obj = getattr(mod, entry, None)
            if callable(obj) and not isinstance(obj, (int, float, str, dict, list)):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{name}.{entry}")
    assert not missing, f"public items without docstrings: {missing}"


def test_solver_classes_document_parameters():
    from repro.core import MultisplittingSolver
    from repro.direct import ScipySuperLU

    assert "overlap" in MultisplittingSolver.__doc__
    assert "permc_spec" in ScipySuperLU.__doc__


def test_imports_and_runs_without_networkx():
    """CI installs numpy and scipy only.  ``sys.modules[name] = None`` makes
    ``import name`` raise even where the package happens to be installed."""
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "import repro, repro.runtime, repro.serve, repro.observe\n"
        "from repro.matrices import is_irreducible, poisson_1d\n"
        "assert is_irreducible(poisson_1d(6))\n"
        "assert not any(m == 'networkx' or m.startswith('networkx.') "
        "for m, v in sys.modules.items() if v is not None)\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env={"PYTHONPATH": str(ROOT / "src")},
        check=True, timeout=120,
    )


def test_declared_dependencies_are_exactly_what_src_imports():
    """The next undeclared import fails here, not on a clean runner."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == {"numpy", "scipy"}
    assert sorted(project["dependencies"]) == sorted(third_party)


def test_pyproject_names_the_package_and_both_commands():
    import repro

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["scripts"].keys() == {"repro-experiments", "repro-serve"}
    for target in project["scripts"].values():
        module, _, func = target.partition(":")
        assert callable(getattr(importlib.import_module(module), func))
