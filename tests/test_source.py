"""Source hygiene: every name a module imports is used, exported or re-imported, every
function the benchmark tracer names exists, every forward table kernel is a generator of
its own, every two-step update steps a TwoStepState through one failure policy, one
function holds the Newton loop and one the Kepler-equation iteration, two hold the
closed-form Legendre transforms, every module rounds in plain products, and the Kepler
force cubes r by products."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

from geodyn import integrators, relativistic
from geodyn.integrators import LAGRANGIAN_IDS, METHODS, TwoStepState, _iterate
from geodyn.kepler import SplitPotential

SRC = Path(__file__).resolve().parent.parent / "src" / "geodyn"


def _imported(tree):
    """Names bound by the module's top-level imports, ``from __future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(src: Path = SRC) -> list[str]:
    """``module.name`` for each top-level import that its module never reads, does
    not list in ``__all__``, and no other module of ``src`` imports from it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    reimported = {
        (node.module.rpartition(".")[2], a.name)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module for a in node.names
    }
    dead = []
    for stem, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        dead += [f"{stem}.{name}" for name in _imported(tree)
                 if name not in read | _all(tree) and (stem, name) not in reimported]
    return dead


def test_no_dead_imports():
    assert dead_imports() == []


def traced_names(path: Path = SRC.parent.parent / "perfbench" / "tracing.py") -> list[str]:
    """``module.name`` for each function the benchmark tracer's ``TRACED`` table names,
    read from its source without importing the benchmark."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [f"{mod}.{fn}" for mod, fns in ast.literal_eval(node.value).items() for fn in fns]
    raise AssertionError(f"no TRACED table in {path}")


def test_traced_names_resolve():
    # the tracer looks each name up with getattr; a missing one fails every traced run
    missing = []
    for name in traced_names():
        mod, _, fn = name.partition(".")
        if not callable(getattr(importlib.import_module(f"geodyn.{mod}"), fn, None)):
            missing.append(name)
    assert missing == []


def test_table_kernels_are_generators():
    # each forward table kernel runs its own loop; one behind the _iterate adapter would
    # pay a call per step again (the one-part vi2 collapse, on neither split here, does)
    for m in METHODS.values():
        for split in (None, SplitPotential((0.3, 0.7))):
            kernel = m.kernels(split)[0]
            assert inspect.isgeneratorfunction(kernel), m.id
            assert kernel.__code__.co_filename == integrators.__file__, m.id
            assert kernel.__code__ is not _iterate(None).__code__, m.id


def test_one_two_step_layer():
    # one Kepler recurrence and the relativistic one take a TwoStepState first, which holds
    # the step-size rule and finite points, and _finite_update names a non-finite update;
    # both seeds and both updates return a TwoStepState, so the layer is one closed map
    checked = integrators._finite_update(lambda ts: ts).__code__
    updates = (integrators.del_two_step_vi1, relativistic.del_relativistic)
    for fn in updates:
        assert fn.__code__ is checked, fn.__name__
        first = next(iter(inspect.signature(fn.__wrapped__).parameters))
        assert typing.get_type_hints(fn.__wrapped__)[first] is TwoStepState, fn.__name__
    for fn in (integrators.bootstrap_first_point, relativistic.del_relativistic_seed, *updates):
        assert typing.get_type_hints(fn)["return"] is TwoStepState, fn.__name__
    assert not hasattr(integrators, "step_stormer_verlet")


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _innermost(chain) -> str:
    return next((n.name for n in chain if isinstance(n, ast.FunctionDef)), "<module>")


def solves_in_loops(src: Path = SRC) -> list[str]:
    """``module.function`` for each call inside a loop to ``np.linalg.solve``, or to a
    function of ``src`` whose own body calls it, named by the innermost function
    around the call."""
    calls = []      # (module, call, the call and its ancestors, innermost first)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = [node]
                while chain[-1] in parent:
                    chain.append(parent[chain[-1]])
                calls.append((path.stem, node, chain))
    is_solve = lambda call: ast.unparse(call.func) == "np.linalg.solve"
    solvers = {_innermost(chain) for _, call, chain in calls if is_solve(call)}
    return [f"{stem}.{_innermost(chain)}" for stem, call, chain in calls
            if (is_solve(call) or getattr(call.func, "id", getattr(call.func, "attr", None)) in solvers)
            and any(isinstance(n, _LOOPS) for n in chain)]


def test_one_newton_loop():
    # every Newton solve goes through integrators._newton: the bootstrap, the L2nd
    # midpoint stage and the shadowing shoot; a solve behind a helper counts too
    assert solves_in_loops() == ["integrators._newton"]


def test_solve_rule_sees_through_helpers(tmp_path):
    # a solve one call away from the loop is still a solve in the loop
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n"
        "def _solve(m, f):\n    return np.linalg.solve(m, f)\n\n"
        "def once(m, f):\n    return _solve(m, f)\n\n"
        "def iterate(m, f):\n    for _ in range(3):\n        f = _solve(m, f)\n    return f\n")
    assert solves_in_loops(tmp_path) == ["mod.iterate"]


def functions_reading(name: str, src: Path = SRC) -> list[str]:
    """``module.function`` for each function of ``src`` that reads the global ``name``,
    named by the innermost function around the read."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                while node in parent and not isinstance(node, ast.FunctionDef):
                    node = parent[node]
                found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return sorted(found)


def test_one_kepler_solve():
    # the scalar solve and the analytic orbit both go through kepler._solve_kepler
    assert functions_reading("KEPLER_EQ_MAXITER") == ["kepler._solve_kepler"]


def functions_comparing(name: str, values, src: Path = SRC) -> list[str]:
    """``module.function`` for each function of ``src`` that compares the name ``name``
    with one of the string ``values``, alone or in a tuple, list or set."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                consts = {c.value for op in operands
                          for c in (op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op])
                          if isinstance(c, ast.Constant)}
                if any(isinstance(op, ast.Name) and op.id == name for op in operands) \
                        and consts & set(values):
                    found.add(f"{path.stem}.{fn.name}")
    return sorted(found)


def test_one_legendre_dispatch():
    # discrete_lagrangian and legendre_minus write out the closed forms, legendre_plus is
    # the adjoint's minus transform, and _require_split resolves L1 to L1st on the
    # one-part split and passes L2 through
    assert functions_comparing("lag_id", LAGRANGIAN_IDS) == [
        "integrators._require_split", "integrators.discrete_lagrangian", "integrators.legendre_minus"]


def powers_of_r(path: Path) -> list[str]:
    """Each ``**`` and each ``np.float_power`` whose base is the name ``r`` in the module
    at ``path``, as source."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
            and ast.unparse(getattr(node, "left", getattr(node, "target", None))) == "r"
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "np.float_power"
            and node.args and ast.unparse(node.args[0]) == "r"]


def test_the_force_cubes_r_by_products():
    # a power r**3 is libm's pow: it raises OverflowError from r = 5.64e102 on, and IEEE 754
    # does not require it to be correctly rounded, so numpy's may differ from Python's.
    # r * r * r does not raise (it is inf there) and is rounded the same everywhere.
    assert {stem: powers_of_r(SRC / f"{stem}.py") for stem in ("integrators", "kepler", "modified")} == {
        "integrators": [], "kepler": [], "modified": []}


def test_power_rule_sees_each_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(r, q):\n    r **= 2\n"
        "    return r**3, q**3, 2.0**r, x / r ** 1.5, np.float_power(r, 3), np.float_power(q, 3)\n")
    assert powers_of_r(tmp_path / "mod.py") == [
        "r **= 2", "r ** 3", "np.float_power(r, 3)", "r ** 1.5"]


# np.linalg.solve (the Newton step and the Helmholtz accelerations), np.polyfit (the printed
# slopes, 3 decimals) and np.polynomial.legendre.leggauss (the Vainberg nodes, once at import)
# stay: no reported quantity has a second formula through them, and none moved a pinned
# output with OpenBLAS on a core without FMA and numpy's SIMD loops off
_BLAS_CALLS = {"np.linalg.norm", "np.vecdot", "np.dot", "np.einsum", "np.polynomial.Polynomial"}


def blas_products(path: Path) -> list[str]:
    """Each ``@`` and each norm, vecdot, dot, einsum or Polynomial use in the module at
    ``path``, as source."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and ast.unparse(node) in _BLAS_CALLS]


def test_every_module_rounds_in_plain_products():
    # a BLAS product may fuse a multiply-add, a norm may rescale and a fit solves by SVD,
    # so their bits depend on the CPU; every reported quantity is plain float arithmetic
    assert {path.stem: blas_products(path) for path in sorted(SRC.glob("*.py"))
            if blas_products(path)} == {}


def test_blas_rule_sees_each_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n"
        "def f(a, b):\n    a @= b\n    return a @ b, np.linalg.norm(a), np.vecdot(a, b), np.dot(a, b)\n")
    assert blas_products(tmp_path / "mod.py") == [
        "a @= b", "a @ b", "np.linalg.norm", "np.vecdot", "np.dot"]


def test_blas_rule_sees_einsum_and_fits(tmp_path):
    # the allowed calls pass: the solve, the slope fit and the Gauss nodes
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n"
        "def f(t, y):\n"
        "    np.linalg.solve(t, y), np.polyfit(t, y, 1), np.polynomial.legendre.leggauss(4)\n"
        "    return np.einsum('ij,ij->i', t, y), np.polynomial.Polynomial.fit(t, y, deg=7)\n")
    assert blas_products(tmp_path / "mod.py") == ["np.einsum", "np.polynomial.Polynomial"]
