"""Structural guards: each decision of the pipeline lives in one place.

Modules branch on the facts in ``models.FAMILIES`` (sector split,
continuation parameter, ...) and in the model's ``models.Chart``, never on
the family or the coordinate itself; only the compensation coefficient
and the parameter validation compare ``ModelFamily`` members.  V is
spelled only in ``models.Potential``.  The eigenvalue is read off the
eigen-equation, so ``bethe`` names no family.  The other guards below keep
single routes for
the subspace matrix, the Newton linear algebra and its variables, root
extraction, root set construction, the pointwise shift of H~
(``models.step``), the reading of Psi at the shifted points
(``models.shift_ratios``) and of H~ at a point (``models.operator_at``),
build no sub-model of another subspace degree,
keep module internals private, and keep every import in use.
"""

import ast
from pathlib import Path

import qesbethe

SRC = Path(qesbethe.__file__).resolve().parent

FORMULA_FUNCTIONS = {
    "_validate",
    "compensation_coefficient",
}


def _nodes_in_functions(tree: ast.AST):
    """(node, name of the innermost enclosing function or "<module>") for
    every node of the tree."""

    def visit(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(tree, "<module>")


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
    for node, function in _nodes_in_functions(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_member(sub) for op in operands for sub in ast.walk(op)):
                found.append((function, node.lineno))
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


# newton_solve is the one Newton loop: it inverts each Jacobian once, in
# numerics._inverse, and steps with the held inverse, and the continuation
# legs carry that inverse through its ``inverse`` argument.  A second loop
# (and the linear algebra it would need) in homotopy or bethe would escape
# the homotopy.newton_solve span that times all continuation work, and a
# linear solve or an SVD-based condition number would undo the saving.

LINEAR_SOLVES = {"solve", "cond", "inv", "pinv", "lstsq"}


def _linear_solves(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(name, enclosing function, line) of every use of numpy.linalg.solve,
    cond, inv, pinv or lstsq: attribute access through ``linalg`` or an
    import from ``numpy.linalg``."""
    found = []
    for node, function in _nodes_in_functions(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LINEAR_SOLVES
            and ast.unparse(node.value).split(".")[-1] == "linalg"
        ):
            found.append((node.attr, function, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                if alias.name in LINEAR_SOLVES:
                    found.append((alias.name, function, node.lineno))
    return found


def test_linear_solves_only_in_newton_solve():
    stray, seen = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, function, line in _linear_solves(tree):
            if (path.name, function, name) == ("numerics.py", "_inverse", "inv"):
                seen.append(line)
            else:
                stray.append(f"{path.name}:{line} {name} in {function}")
    assert seen, "numerics._inverse no longer inverts the Jacobian"
    assert not stray, "numpy.linalg solve/cond/inv/pinv/lstsq outside _inverse: " + ", ".join(stray)


def test_linear_solve_guard_sees_each_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import solve, inv as invert\n"
        "def f(a, b):\n"
        "    x = np.linalg.solve(a, b)\n"
        "    c = numpy.linalg.cond(a)\n"
        "    s = linalg.solve\n"
        "    i = np.linalg.inv(a)\n"
        "    p = numpy.linalg.pinv(a)\n"
        "    q = linalg.lstsq(a, b)\n"
        "    return np.linalg.eig(a), np.linalg.norm(b), x, c, s, i, p, q\n"
    )
    assert _linear_solves(tree) == [
        ("solve", "<module>", 2), ("inv", "<module>", 2), ("solve", "f", 4), ("cond", "f", 5),
        ("solve", "f", 6), ("inv", "f", 7), ("pinv", "f", 8), ("lstsq", "f", 9),
    ]


# newton_solve iterates in coordinates relative to its start (its
# ``units``), so every caller hands it the Bethe residual in the native
# variables as it comes from bethe.residual_map; a lambda or wrapper around
# it would re-scale the variables a second time, outside the solver.


def _newton_residuals(tree: ast.AST) -> list[tuple[bool, int]]:
    """(whether the residual is a residual_map(...) call, line) of every
    call of newton_solve, bare or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) != "newton_solve":
                continue
            residual = node.args[0] if node.args else None
            direct = isinstance(residual, ast.Call) and (
                getattr(residual.func, "id", None) or getattr(residual.func, "attr", None)
            ) == "residual_map"
            found.append((direct, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_newton_solve_takes_the_residual_map_as_is():
    stray, seen = [], []
    for path in sorted(SRC.glob("*.py")):
        for direct, line in _newton_residuals(ast.parse(path.read_text(), filename=str(path))):
            (seen if direct else stray).append(f"{path.name}:{line}")
    assert seen, "newton_solve is no longer called on residual_map"
    assert not stray, "newton_solve called on a re-scaled residual at: " + ", ".join(stray)


def test_newton_residual_guard_sees_each_form():
    tree = ast.parse(
        "def f(spec, v, units):\n"
        "    g = residual_map(spec)\n"
        "    a = newton_solve(lambda w: g(v + units * w), v)\n"
        "    b = newton_solve(g, v)\n"
        "    c = numerics.newton_solve(scaled(residual_map(spec)), v)\n"
        "    d = newton_solve(residual_map(spec), v)\n"
        "    e = numerics.newton_solve(bethe.residual_map(spec), v, inverse=None)\n"
        "    return newton_solve(f=g, x0=v)\n"
    )
    assert _newton_residuals(tree) == [
        (False, 3), (False, 4), (False, 5), (True, 6), (True, 7), (False, 8)
    ]


# Root extraction has one route: spectral.extract_roots calls
# numerics.poly_roots on oracle eigenpolynomials, a model's together.  A
# second caller (such as a private eigensolver in homotopy or limits) would
# fork the treatment of exactly solvable states again.

ROOT_FINDER_MODULES = {"numerics.py", "spectral.py"}


def _root_finder_uses(tree: ast.AST) -> list[int]:
    """Lines that define, import or reference ``poly_roots``, bare or as an
    attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "poly_roots":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "poly_roots":
            found.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and node.name == "poly_roots":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "poly_roots" for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def test_poly_roots_only_in_numerics_and_spectral():
    stray, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        lines = _root_finder_uses(ast.parse(path.read_text(), filename=str(path)))
        if lines and path.name in ROOT_FINDER_MODULES:
            seen.add(path.name)
        elif lines:
            stray.append(f"{path.name}:{lines}")
    assert seen == ROOT_FINDER_MODULES, "poly_roots is no longer defined and used"
    assert not stray, "poly_roots referenced outside numerics/spectral: " + ", ".join(stray)


def test_root_finder_guard_sees_each_form():
    tree = ast.parse(
        "from .numerics import poly_roots as roots\n"
        "from . import numerics\n"
        "def poly_roots(p):\n"
        "    return p\n"
        "def f(p):\n"
        "    a = numerics.poly_roots(p)\n"
        "    b = poly_roots(p)\n"
        "    c = [poly_roots]\n"
        "    return roots(p), numerics.roots_of_eta_poly(p)\n"
    )
    assert _root_finder_uses(tree) == [1, 3, 6, 7, 8]


# spectral.root_set is the one constructor of RootSet: it picks the
# representatives of the Newton variable (the gauge), the order and the
# close-pair flag, so a second constructor would fork them again.


def _rootset_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call of RootSet, bare or as an
    attribute, and of every import that renames it."""
    found = []
    for node, function in _nodes_in_functions(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "RootSet":
                found.append((function, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "RootSet" and alias.asname for alias in node.names):
                found.append((function, node.lineno))
    return found


def test_rootset_built_only_by_root_set():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [(path.name, function) for function, _ in _rootset_calls(tree)]
    assert calls == [("spectral.py", "root_set")], f"RootSet built at {calls}"


def test_rootset_guard_sees_each_form():
    tree = ast.parse(
        "from .spectral import RootSet as R\n"
        "from .spectral import RootSet, root_set\n"
        "def f(a):\n"
        "    return RootSet(a, a)\n"
        "def g(a):\n"
        "    return spectral.RootSet(a, a), [RootSet(v, v) for v in a], root_set(a)\n"
    )
    assert _rootset_calls(tree) == [("<module>", 1), ("f", 4), ("g", 6), ("g", 6)]


# A state is seeded from its own model: from the oracle eigenvector, or by
# continuation in a deformation parameter.  A model of another subspace
# degree, replace(spec, M=...), has other states; the deleted rank-as-level
# chain took the truncated trig-q states' near roots from such sub-models.


def _submodel_builds(tree: ast.AST) -> list[int]:
    """Lines of every dataclasses.replace call, under any name it is
    imported as, that sets the subspace degree M."""
    names = {"replace"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "replace"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names and any(k.arg == "M" for k in node.keywords):
                found.append(node.lineno)
    return sorted(found)


def test_no_submodel_of_another_degree():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}" for line in _submodel_builds(tree)]
    assert not stray, "sub-model of another degree built at " + ", ".join(stray)


def test_submodel_guard_sees_each_form():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import replace as dc_replace\n"
        "def f(spec):\n"
        "    a = replace(spec, M=2)\n"
        "    b = dc_replace(spec, M=spec.M - 1, params={})\n"
        "    c = dataclasses.replace(spec, M=0)\n"
        "    d = dc_replace(spec, params={}), replace(spec, sector=None)\n"
        "    return [replace(spec, M=m) for m in range(3)]\n"
    )
    assert _submodel_builds(tree) == [4, 5, 6, 8]


# A module's underscore-prefixed names are its own: a caller in another
# module uses a public name (bethe.residual_map, spectral.root_set),
# so each internal can change without a second module having to know.


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every underscore-prefixed name taken from a package
    module: imported with ``from .m import _x`` or ``from qesbethe.m import
    _x``, or read as ``m._x`` off a module bound by ``from . import m`` or
    ``import qesbethe.m as m``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "qesbethe"
        ):
            found += [(a.name, node.lineno) for a in node.names if _is_private(a.name)]
            if node.module is None or node.module == "qesbethe":
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname for a in node.names if a.asname and a.name.startswith("qesbethe.")
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_no_private_name_crosses_modules():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line} {name}" for name, line in _private_imports(tree)]
    assert not stray, "private names used across modules: " + ", ".join(stray)


def test_private_import_guard_sees_each_form():
    tree = ast.parse(
        "from .bethe import _residual_map, solve\n"
        "from qesbethe.spectral import _gauge_z as g\n"
        "from . import bethe, __version__\n"
        "import qesbethe.models as models\n"
        "import numpy as np\n"
        "from numpy import _core\n"
        "def f():\n"
        "    return bethe._sides(1), bethe.solve, np._x, __version__\n"
        "def h():\n"
        "    return models._validate\n"
    )
    assert _private_imports(tree) == [
        ("_residual_map", 1), ("_gauge_z", 2), ("_sides", 8), ("_validate", 10)
    ]


# models.step is the one place that knows how H~ shifts a point: the
# functions that shift by it or read H~ at a point (models.shift_ratios and
# models.operator_at, and the zero-mode check's half step) take it from
# there, with no per-coordinate branch and no hard-coded shift, and V, V*
# have no second (z-form) body.

POINTWISE_EVALUATORS = {
    ("models.py", "shift_ratios"),
    ("models.py", "operator_at"),
    ("wavefun.py", "zero_mode_residual"),
}


def _coordinate_uses_and_imaginary_literals(function: ast.AST) -> list[int]:
    """Lines that name ``Coordinate`` or hold an imaginary literal."""
    return sorted(
        node.lineno
        for node in ast.walk(function)
        if (isinstance(node, ast.Name) and node.id == "Coordinate")
        or (isinstance(node, ast.Constant) and isinstance(node.value, complex))
    )


def test_no_z_form_potentials():
    stray = [
        f"{path.name} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in ("potential_v_z", "potential_v_star_z", "_raise_on_pole")
        if name in path.read_text()
    ]
    assert not stray, f"z-form potentials named in {stray}"


def test_pointwise_evaluators_take_the_step_from_models():
    for module, name in sorted(POINTWISE_EVALUATORS):
        tree = ast.parse((SRC / module).read_text())
        (function,) = [
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name
        ]
        lines = _coordinate_uses_and_imaginary_literals(function)
        assert not lines, f"{module}:{name} branches on the coordinate or shifts by hand at {lines}"


def test_step_guard_sees_each_form():
    tree = ast.parse(
        "def f(spec, x):\n"
        "    if spec.info.coordinate is Coordinate.COS:\n"
        "        return x - 1j\n"
        "    return x + 0.5j, 1.0, 'j'\n"
    )
    assert _coordinate_uses_and_imaginary_literals(tree) == [2, 3, 4]


# models.shift_ratios is the one reading of Psi(x -+ s)/Psi(x) - 1, shared
# by the eigenvalue (bethe) and the pointwise Schroedinger check (wavefun).
# A function that reads the step and also evaluates eta or Psi forms Psi at
# a shifted point a second time, as the deleted product loop of the
# eigen-equation and the difference of two products in the check did.

PSI_EVALUATORS = {"eta", "eta_of", "_polynomial_part", "eigenfunction_value"}


def _shifted_psi_forms(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of every function, nested ones included, that calls
    ``step`` and also calls eta, eta_of, _polynomial_part or
    eigenfunction_value (bare or as an attribute), at the line of the first
    such call."""

    def called(node: ast.AST, names: set[str]) -> list[int]:
        return sorted(
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and (getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)) in names
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and called(node, {"step"}):
            lines = called(node, PSI_EVALUATORS)
            if lines:
                found.append((node.name, lines[0]))
    return sorted(found, key=lambda item: item[1])


def test_only_shift_ratios_forms_psi_at_a_shifted_point():
    stray, seen = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, line in _shifted_psi_forms(tree):
            if (path.name, function) == ("models.py", "shift_ratios"):
                seen.append(line)
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert seen, "models.shift_ratios no longer forms Psi at the shifted points"
    assert not stray, "Psi formed at a shifted point outside shift_ratios: " + ", ".join(stray)


def test_shifted_psi_guard_sees_each_form():
    tree = ast.parse(
        "def a(spec, x0):\n"
        "    s = step(spec)\n"
        "    return eta(spec, np.array([x0, x0 - s, x0 + s]))\n"
        "def b(spec, roots, x):\n"
        "    return _polynomial_part(spec, roots, x + models.step(spec), None)\n"
        "def c(spec, x):\n"
        "    def inner(roots):\n"
        "        return spec.chart.eta_of(x - step(spec))\n"
        "    return inner\n"
        "def d(spec, sol, x):\n"
        "    return eigenfunction_value(spec, sol, x - step(spec))\n"
        "def e(spec, x):\n"
        "    return x - step(spec), spec.eta, shift_ratios(spec, x, ())\n"
        "def f(spec, x):\n"
        "    return eta(spec, x)\n"
    )
    assert _shifted_psi_forms(tree) == [("a", 3), ("b", 5), ("c", 8), ("inner", 8), ("d", 11)]


# models.operator_at is the one pointwise reading of H~: V, V*, alpha_M and
# Psi(x -+ s)/Psi(x) at x, under models' one pole rule, shared by the
# eigenvalue (bethe) and the Schroedinger check (wavefun).  Outside models
# no function calls shift_ratios or compensation_alpha, and only the
# zero-mode check, which reads V*/V at x -+ s/2 and no Psi, calls
# potential_v or potential_v_star; the deleted _eigen_equation_at and the
# check's own V, V* and alpha_M assembled H~ Psi / Psi a second time, and
# the zero-mode check's log of V had a pole threshold of its own.

OPERATOR_PARTS = {"shift_ratios", "compensation_alpha", "potential_v", "potential_v_star"}
OPERATOR_READERS = {("bethe.py", "eigenvalue_from_roots"), ("wavefun.py", "schrodinger_residual")}
POTENTIAL_READER = ("wavefun.py", "zero_mode_residual")


def _operator_uses(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(name, enclosing function, line) of every call of operator_at,
    shift_ratios, compensation_alpha, potential_v or potential_v_star, bare
    or as an attribute, and of every import that renames one of them."""
    names = OPERATOR_PARTS | {"operator_at"}
    found = []
    for node, function in _nodes_in_functions(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((name, function, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(a.name, function, node.lineno) for a in node.names
                      if a.name in names and a.asname]
    return found


def test_only_models_assembles_the_operator():
    readers, potential, stray = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "models.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, function, line in _operator_uses(tree):
            if name == "operator_at" and (path.name, function) in OPERATOR_READERS:
                readers.add((path.name, function))
            elif name.startswith("potential_v") and (path.name, function) == POTENTIAL_READER:
                potential.add(name)
            else:
                stray.append(f"{path.name}:{line} {name} in {function}")
    assert readers == OPERATOR_READERS, f"only {sorted(readers)} read H~ through operator_at"
    assert potential == {"potential_v", "potential_v_star"}, "the zero-mode check reads V apart"
    assert not stray, "H~ or V evaluated outside models.operator_at at " + ", ".join(stray)


def test_operator_guard_sees_each_form():
    tree = ast.parse(
        "from .models import shift_ratios as ratios, operator_at\n"
        "def f(spec, x, roots):\n"
        "    a = models.compensation_alpha(spec, x) * shift_ratios(spec, x, roots)[2]\n"
        "    b = potential_v(spec, x), models.potential_v_star(spec, -x)\n"
        "    return operator_at(spec, x)(roots), spec.potential, compensation_coefficient(spec)\n"
    )
    assert _operator_uses(tree) == [
        ("shift_ratios", "<module>", 1), ("compensation_alpha", "f", 3),
        ("shift_ratios", "f", 3), ("potential_v", "f", 4), ("potential_v_star", "f", 4),
        ("operator_at", "f", 5),
    ]


# The coordinate, with the sector, is one models.Chart: eta(x), the basis,
# the roots' representatives and the Newton variable.  Outside models, a
# Coordinate member, a .coordinate read, Sector.ODD, native_variable, a
# comparison with a variable name or a RootSet field name built from one
# re-derives what the chart holds.

CHART_NAMES = {"Coordinate", "native_variable"}
VARIABLE_NAMES = {"x", "z", "eta"}


def _chart_rederivations(tree: ast.AST) -> list[int]:
    """Lines that name Coordinate or native_variable (also in an import),
    read ``.coordinate``, name ``Sector.ODD``, compare with "x", "z" or
    "eta", or build an f-string that names ``roots_``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CHART_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in CHART_NAMES for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and (
            node.attr in CHART_NAMES | {"coordinate"}
            or (node.attr == "ODD" and ast.unparse(node.value).split(".")[-1] == "Sector")
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            isinstance(sub, ast.Constant) and sub.value in VARIABLE_NAMES
            for op in [node.left, *node.comparators]
            for sub in ast.walk(op)
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.JoinedStr) and any(
            isinstance(part, ast.Constant) and "roots_" in part.value for part in node.values
        ):
            found.append(node.lineno)
    return sorted(set(found))


def test_only_models_derives_the_chart():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "models.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            stray += [f"{path.name}:{line}" for line in _chart_rederivations(tree)]
    assert not stray, "coordinate facts re-derived outside models.Chart at " + ", ".join(stray)


def test_chart_guard_sees_each_form():
    tree = ast.parse(
        "from .models import Coordinate, ModelSpec\n"
        "from . import models\n"
        "def f(spec, roots, v):\n"
        "    a = spec.info.coordinate is Coordinate.COS\n"
        "    b = spec.sector is Sector.ODD or spec.sector is models.Sector.ODD\n"
        "    c = models.native_variable(spec) == 'z'\n"
        "    d = 'eta' != v\n"
        "    e = v in ('x', 'y')\n"
        "    g = getattr(roots, f'roots_{v}')\n"
        "    h = spec.info.coordinate\n"
        "    return spec.sector is Sector.EVEN, v == 'y', f'{v}_set', spec.chart.odd\n"
    )
    assert _chart_rederivations(tree) == [1, 4, 5, 6, 7, 8, 9, 10]


# V is one models.Potential record per model: its lead, its linear factors
# and its denominator, with V* derived as V-bar(-x).  Outside models, the
# deleted helpers numerator_constants and v_phase, the family flag
# kinematic_denominator or a _DEN* kernel spell V again, and a .conj() or
# .conjugate() call in a reader of V (bethe, hamiltonian, wavefun) writes
# V* out by hand.

POTENTIAL_NAMES = {"numerator_constants", "v_phase", "kinematic_denominator"}
POTENTIAL_READERS = {"bethe.py", "hamiltonian.py", "wavefun.py"}


def _potential_spellings(tree: ast.AST, reader: bool) -> list[int]:
    """Lines that define, import or name numerator_constants, v_phase,
    kinematic_denominator or a name that starts with _DEN, and, in a
    ``reader`` of V, lines that call .conj() or .conjugate()."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            name = None
        if name is not None and (name in POTENTIAL_NAMES or name.startswith("_DEN")):
            found.append(node.lineno)
        elif (
            reader
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("conj", "conjugate")
        ):
            found.append(node.lineno)
    return sorted(set(found))


def test_only_models_spells_the_potential():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "models.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            lines = _potential_spellings(tree, path.name in POTENTIAL_READERS)
            stray += [f"{path.name}:{line}" for line in lines]
    assert not stray, "V spelled outside models.Potential at " + ", ".join(stray)


def test_potential_guard_sees_each_form():
    tree = ast.parse(
        "from .models import numerator_constants, v_phase as phase\n"
        "_DEN_STAR = [0, -2j, -4]\n"
        "def f(spec, p, x):\n"
        "    a = spec.info.kinematic_denominator\n"
        "    b = models.v_phase(spec) * p.conjugate()\n"
        "    c = np.asarray(p).conj() - 1j * x\n"
        "    d = hamiltonian._DEN\n"
        "    return spec.potential.bar.lead, p.real, x.conjugated\n"
        "def numerator_constants(spec):\n"
        "    return spec.potential.constants\n"
    )
    assert _potential_spellings(tree, reader=True) == [1, 2, 4, 5, 6, 7, 9]
    assert _potential_spellings(tree, reader=False) == [1, 2, 4, 5, 7, 9]


# An import that nothing references is dead code (pyflakes' F401); names in
# __all__ are the package's exports, and ``# noqa: F401`` marks an import
# kept on purpose.


def _unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every name the module imports but never reads, apart
    from ``__future__`` imports, names in ``__all__`` and lines marked
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [])
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((bound, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_every_import_is_used():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        stray += [f"{path.name}:{line} {name}" for name, line in _unused_imports(path.read_text())]
    assert not stray, "unused imports: " + ", ".join(stray)


def test_unused_import_guard_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .models import eta, step as s\n"
        "from .bethe import solve  # noqa: F401\n"
        "from .spectral import (\n"
        "    RootSet,\n"
        "    root_set,\n"
        ")\n"
        "__all__ = ['RootSet']\n"
        "def f(x: np.ndarray):\n"
        "    math = 1\n"
        "    return eta(x)\n"
    )
    assert _unused_imports(source) == [("math", 2), ("os", 4), ("s", 5), ("root_set", 7)]
