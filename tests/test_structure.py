"""Structural guard: the family catalog is one record per family.

Modules branch on the facts in ``models.FAMILIES`` (coordinate, sector
split, kinematic denominator, ...), never on the family itself; only the
closed-form per-family formulas and the parameter validation compare
``ModelFamily`` members.
"""

import ast
from pathlib import Path

import qesbethe

SRC = Path(qesbethe.__file__).resolve().parent

FORMULA_FUNCTIONS = {
    "_validate",
    "compensation_coefficient",
    "v_phase",
    "symmetric_coefficients",
    "eigenvalue_from_roots",
    "restricted_eigenvalue",
    "_log_phi0_squared_x",
}


def _is_member(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ModelFamily"
    )


def _family_comparisons(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every comparison with a ModelFamily
    member among its operands, including members inside tuples/sets."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_member(sub) for op in operands for sub in ast.walk(op)):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_family_compared_only_in_formulas():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, line in _family_comparisons(tree):
            if function not in FORMULA_FUNCTIONS:
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, "ModelFamily compared outside the formula functions: " + ", ".join(stray)


def test_guard_sees_each_comparison_form():
    tree = ast.parse(
        "def f(s):\n"
        "    a = s.family is ModelFamily.TRIG_Q\n"
        "    b = s.family is not ModelFamily.TRIG_Q\n"
        "    c = s.family in (ModelFamily.SEXTIC_I, ModelFamily.SEXTIC_II)\n"
        "    d = s.family == ModelFamily.MP_CROSSED\n"
        "    e = s.info.coordinate is Coordinate.COS\n"
    )
    assert [line for _, line in _family_comparisons(tree)] == [2, 3, 4, 5]


# build_matrix applies H~ to all basis columns in one pass; a loop calling
# apply_htilde / apply_htilde_z per column would be a second route.


def _per_column_loops(tree: ast.AST, root: str) -> list[int]:
    """Lines of loops (for, while, comprehensions) that call an apply_htilde*
    function, inside ``root`` or any module function it reaches."""
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    seen, todo, found = set(), [root], []
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                todo.append(node.func.id)
            if isinstance(node, loops):
                calls = [sub.func.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)]
                if any(c.startswith("apply_htilde") for c in calls):
                    found.append(node.lineno)
    return found


def test_build_matrix_has_no_per_column_route():
    tree = ast.parse((SRC / "hamiltonian.py").read_text())
    assert "build_matrix" in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    lines = _per_column_loops(tree, "build_matrix")
    assert not lines, f"build_matrix reaches a per-column apply_htilde loop at lines {lines}"


def test_per_column_guard_sees_each_loop_form():
    tree = ast.parse(
        "def build_matrix(spec):\n"
        "    return helper(spec)\n"
        "def helper(spec):\n"
        "    for k in range(3):\n"
        "        apply_htilde(spec, k)\n"
        "    cols = [apply_htilde_z(spec, k) for k in range(3)]\n"
        "    while spec:\n"
        "        spec = apply_htilde(spec, 0)\n"
        "def unreached(spec):\n"
        "    for k in range(3):\n"
        "        apply_htilde(spec, k)\n"
    )
    assert sorted(_per_column_loops(tree, "build_matrix")) == [4, 6, 7]


# newton_solve is the one Newton loop: the continuation legs reuse its
# Jacobian through its ``jacobian`` argument, so a second loop (and the
# linear solves it would need) in homotopy or bethe would escape the
# homotopy.newton_solve span that times all continuation work.

LINEAR_SOLVES = {"solve", "cond"}


def _linear_solves(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every use of numpy.linalg.solve or
    numpy.linalg.cond: attribute access through ``linalg`` or an import
    from ``numpy.linalg``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LINEAR_SOLVES
            and ast.unparse(node.value).split(".")[-1] == "linalg"
        ):
            found.append((function, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in LINEAR_SOLVES for alias in node.names):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_linear_solves_only_in_newton_solve():
    stray, seen = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, line in _linear_solves(tree):
            if (path.name, function) == ("numerics.py", "newton_solve"):
                seen.append(line)
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert seen, "newton_solve no longer solves with its Jacobian"
    assert not stray, "numpy.linalg.solve/cond outside newton_solve: " + ", ".join(stray)


def test_linear_solve_guard_sees_each_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    x = np.linalg.solve(a, b)\n"
        "    c = numpy.linalg.cond(a)\n"
        "    s = linalg.solve\n"
        "    return np.linalg.eig(a), np.linalg.norm(b), x, c, s\n"
    )
    assert _linear_solves(tree) == [("<module>", 2), ("f", 4), ("f", 5), ("f", 6)]
