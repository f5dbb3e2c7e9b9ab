"""The package's public surface and the layering of its modules."""

import ast
from pathlib import Path

import betatails

PUBLIC_API = [
    "BetaParams",
    "ChernoffResult",
    "ConvergenceError",
    "DEFAULT_CONFIG",
    "EvalConfig",
    "MomentTable",
    "SubGammaParams",
    "TailSide",
    "bernstein_tail_bound",
    "centered_mgf",
    "central_moments_recursive",
    "cgf",
    "chernoff_exponent_expansion",
    "chernoff_exponent_numeric",
    "exact_tail",
    "raw_moment",
    "regularized_incomplete_beta",
    "standardized_moment",
    "sub_gamma_bound",
    "sub_gamma_params",
    "subgaussian_bound",
    "subgaussian_optimal_proxy",
]


def test_top_level_names_are_pinned_and_resolve():
    assert sorted(betatails.__all__) == PUBLIC_API
    for name in betatails.__all__:
        assert getattr(betatails, name) is not None, name


def _package_imports(path: Path) -> set[str]:
    """Modules of the package that a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "betatails")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:  # absolute: keep betatails and drop its prefix
                if parts[0] != "betatails":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else [a.name for a in node.names])
    return found


def test_specfun_imports_no_other_module_of_the_package():
    # specfun is the bottom layer; an import of any sibling, even inside a
    # function, would bring back a circular dependency
    src = Path(betatails.__file__).parent
    imports = {path.stem: _package_imports(path) for path in sorted(src.glob("*.py"))}
    assert {"specfun", "moments"} <= imports["chernoff"]  # the scan sees imports
    assert "_verify" in imports["cli"]  # function-local ones too
    assert imports["specfun"] == set()


def test_cli_entry_points_stay_defined_in_cli():
    # perfbench/run.py's CLI_FUNCTIONS traces these by their cli.* names, so
    # moving one to another module breaks the traced benchmark run
    from betatails import cli

    for fn in (cli.main, cli.comparison_rows, cli.render_csv):
        assert fn.__module__ == "betatails.cli", fn.__name__
