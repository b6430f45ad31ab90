"""API hygiene of the package, read from its source with ast: modules import
only public names from each other, every exported name exists, and the
package exports a fixed list of names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "curvecross"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _relative_imports(path: Path):
    """(source module, imported name) of every `from .x import name`."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                yield node.module or "", alias.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(path: Path) -> set[str]:
    """Names bound at the top level of a module: definitions, assignments
    and imports."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _all_entries(path: Path) -> list[str]:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "curves", "sampling", "chain", "intersect"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [f"from .{mod} import {name}" for mod, name in _relative_imports(path)
               if _is_private(name)]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    missing = sorted(set(_all_entries(path)) - _defined_names(path))
    assert missing == []


def test_package_imports_exist():
    imported = list(_relative_imports(PACKAGE / "__init__.py"))
    assert imported
    missing = [f"{mod}.{name}" for mod, name in imported
               if name not in _defined_names(PACKAGE / f"{mod}.py")]
    assert missing == []


# the calls of the command line, the scripts, the benchmark and the paper's
# checks, with the types they construct or catch; a name added to or dropped
# from the package's exports shows here
PACKAGE_API = [
    "CountingConfig", "ExperimentConfig", "QuadratureError", "SchemaError", "SeedSpec",
    "TrigCurve", "assemble_mean_from_chain", "assembly_prefactors", "asymptote_ratio",
    "ball_volume_even", "brute_force_count", "buffon_average", "corollary2_check",
    "count_intersections", "eight_integral", "evaluate", "fiber_mc_check", "k_of_A", "lambda_sq",
    "load_curve", "mean_intersections_exact", "metric_series_limits", "mu", "point_radius_bound",
    "run_chain", "run_experiment", "sample_max_norm_weighted_pair", "sample_pair",
    "sample_unit_ball_curve", "save_curve", "sobolev_limit_report", "tau", "xi_closed_form",
    "xi_quadrature",
]


def test_package_api_pinned():
    init = PACKAGE / "__init__.py"
    assert sorted(_all_entries(init)) == PACKAGE_API
    assert sorted(name for _, name in _relative_imports(init)) == PACKAGE_API
