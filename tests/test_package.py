"""The package's public surface and the layering of its modules."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import betatails
from betatails import _verify, bounds, cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = [
    "BetaParams",
    "ChernoffResult",
    "ConvergenceError",
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


def test_moment_table_holds_only_params_and_central():
    fields = [f.name for f in dataclasses.fields(betatails.MomentTable)]
    assert fields == ["params", "central"]


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


def test_only_specfun_sums_the_centered_series():
    # one CGF evaluator: everything else reads psi and its derivatives from
    # specfun._cgf_kernel, whose series branch stops on its own tail bound
    src = Path(betatails.__file__).parent
    users = {p.name for p in src.glob("*.py") if "_centered_series" in p.read_text(encoding="utf-8")}
    assert users == {"specfun.py"}


def _reads(tree: ast.AST) -> set[str]:
    """Every name, attribute and import alias a module's tree reads; docstrings do not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute, definition and import alias a module's tree spells."""
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return _reads(tree) | defined


def test_only_chernoff_holds_the_solve():
    # one Chernoff path: the warm start lives in chernoff, and cli reads the solve
    # through chernoff's public names only. The Newton step budget lives in bounds
    # beside the loop that reads it, which takes no budget from its callers
    src = Path(betatails.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    owners = {
        name: {file for file, tree in trees.items() if name in _identifiers(tree)}
        for name in ("_predict_root", "_NEWTON_STEPS")
    }
    assert owners == {"_predict_root": {"chernoff.py"}, "_NEWTON_STEPS": {"bounds.py"}}
    assert "steps" not in inspect.signature(bounds._bracketed_newton).parameters
    assert _private_reads(trees["cli.py"], "chernoff") == []


def _absolute_imports(path: Path) -> set[str]:
    """The top-level modules a file imports absolutely, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_library_imports_only_the_standard_library():
    # the library and its CLI run on a bare interpreter; mpmath serves the tests
    imports = set().union(*map(_absolute_imports, Path(betatails.__file__).parent.glob("*.py")))
    assert imports - sys.stdlib_module_names <= {"betatails"}


def test_each_test_reference_is_stated_once():
    # the mpmath references live in tests/oracles.py, the pinned bits of library output
    # (sha256 digests and float.hex literals) in tests/test_pinned_bits.py, and the
    # grids' spacings in cli, whose parse_grid returns them
    files = [path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py")]
    importers = [path.name for path in files if "mpmath" in _absolute_imports(path)]
    assert importers == ["oracles.py"]
    pin = re.compile(r"\b[0-9a-f]{64}\b|0x[0-9a-f]+(\.[0-9a-f]*)?p[-+]?[0-9]+")
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert [p.name for p in tests if pin.search(p.read_text("utf-8"))] == ["test_pinned_bits.py"]
    spacing = re.compile(r"^def _(lin|log)space\b", re.M)
    assert [p.name for p in files if spacing.search(p.read_text("utf-8"))] == ["cli.py"]
    tree = ast.parse(inspect.getsource(cli.parse_grid))
    assert {"_linspace", "_logspace"} <= _reads(tree)


def _functions_holding(predicate) -> set[str]:
    """The innermost functions of src/betatails whose code holds a node that predicate accepts."""
    found = set()

    def visit(node, owner):
        owner = node.name if isinstance(node, ast.FunctionDef) else owner
        if predicate(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in Path(betatails.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _is_upper_width(node: ast.AST) -> bool:
    """1 less a quotient over a sum, a mean or mu: 1.0 - a / (a + b), 1 - float(p.mean())."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1):
        return False
    right = node.right
    over_a_sum = (isinstance(right, ast.BinOp) and isinstance(right.op, ast.Div)
                  and isinstance(right.right, ast.BinOp) and isinstance(right.right.op, ast.Add))
    return over_a_sum or bool({"mean", "mu"} & _reads(right))


def test_one_owner_decides_the_side_and_one_forms_the_upper_width():
    # the lower tail is the upper tail of 1 - X: bounds.upper_shape maps a side to the
    # shape whose upper tail it is, and BetaParams.upper_width forms that shape's width,
    # so a change to the width is a change to one line; the proxy swaps to beta > alpha itself
    swaps = _functions_holding(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "swapped"
    )
    assert swaps == {"upper_shape", "subgaussian_optimal_proxy"}
    assert _functions_holding(_is_upper_width) == {"upper_width"}


def _private_reads(tree: ast.AST, module: str) -> list[str]:
    """The _-prefixed names a source tree reads as module.name or imports from module."""
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id == module
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module)
        for alias in node.names if alias.name.startswith("_")
    ]


def test_closed_form_columns_are_sub_gamma_pairs():
    # one closed-form bound: cli forms each closed-form column's (v, c) through
    # bounds' public names, and the sub-gaussian bound has no proxy knob
    src = Path(betatails.__file__).parent
    cli_tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    assert _private_reads(cli_tree, "bounds") == []
    assert list(inspect.signature(betatails.subgaussian_bound).parameters) == ["params", "eps"]


def _harness_function_names() -> list[str]:
    """The "layer.name" entries of perfbench/run.py's TRACED_FUNCTIONS and CLI_FUNCTIONS."""
    run = ROOT / "perfbench" / "run.py"
    assigned = {
        node.targets[0].id: node.value
        for node in ast.parse(run.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }

    def resolve(expr):  # some entries are names bound to the strings
        return resolve(assigned[expr.id]) if isinstance(expr, ast.Name) else ast.literal_eval(expr)

    return [resolve(e) for key in ("TRACED_FUNCTIONS", "CLI_FUNCTIONS") for e in assigned[key].elts]


def test_traced_benchmark_functions_stay_public_in_their_layer():
    # the traced benchmark run wraps each entry by its layer.name and raises
    # KeyError on a name it cannot find, even one the library no longer calls
    names = _harness_function_names()
    assert "specfun.log_kummer_1f1" in names and "cli.render_csv" in names
    for name in names:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"betatails.{layer}"), attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == f"betatails.{layer}", name


def test_every_public_function_has_a_caller():
    # no dead public function: each module-level public function of a layer is
    # exported, wrapped by the traced benchmark run, or read by some source module
    src = Path(betatails.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    traced = set(_harness_function_names())
    uncalled = [
        f"{layer}.{node.name}"
        for layer in ("specfun", "moments", "bounds", "chernoff", "cli", "_verify")
        for node in trees[layer].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in betatails.__all__
        and f"{layer}.{node.name}" not in traced
        and node.name not in read
    ]
    assert uncalled == []


def test_verify_has_one_configuration():
    # no check and no runner takes a level, grid size or other knob
    for name, fn in _verify.CHECKS:
        assert inspect.signature(fn).parameters == {}, name
    assert inspect.signature(_verify.run_verification).parameters == {}


def test_comparison_engine_takes_deviations():
    # the grid is CLI syntax, parsed by cli.parse_grid; the engine and _verify
    # see only the deviations, and _verify reads only the engine and the grid
    # spacings from cli, so its paper tables lie on the grids compare writes
    src = Path(betatails.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    assert not [name for name, tree in trees.items() if "GridSpec" in _identifiers(tree)]
    assert list(inspect.signature(cli.comparison_rows).parameters) == ["params", "epss"]
    from_cli = [
        alias.name
        for node in ast.walk(trees["_verify.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "cli"
        for alias in node.names
    ]
    assert from_cli == ["_linspace", "_logspace", "comparison_rows"]
