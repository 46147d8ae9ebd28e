"""Module boundaries inside the package.

A name with a leading underscore is private to the module that defines it:
another ``twowin`` module that imports it has reached behind that module's
interface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twowin"


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        inside = node.level > 0 or module == "twowin" or module.startswith("twowin.")
        if not inside:
            continue
        source = "." * node.level + module
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {source}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert list(_private_imports(path)) == []


#: Functions whose recursion depth the report schema bounds.
RECURSION_ALLOWED = {("cli.py", "_render")}


def _self_calls(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (path.name, fn.name) in RECURSION_ALLOWED:
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == fn.name
            ):
                yield f"{path.name}:{node.lineno} {fn.name} calls itself"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # a data-path recursion grows a Python frame per item and raises
    # RecursionError at long horizons
    assert list(_self_calls(path)) == []


@pytest.mark.parametrize("entry", sorted(RECURSION_ALLOWED), ids=lambda e: ":".join(e))
def test_each_recursion_allowance_names_a_function_that_exists(entry):
    # an allowance left behind by a deleted function would silently excuse
    # a new one of the same name
    filename, name = entry
    tree = ast.parse((SRC / filename).read_text(encoding="utf-8"), filename=filename)
    defined = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert name in defined


def _annotation_names(tree: ast.AST):
    """Names inside string annotations, which the AST keeps as constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [p.annotation for p in params if p is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in filter(None, notes):
            for const in ast.walk(note):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    for name in ast.walk(ast.parse(const.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    for node in ast.walk(tree):
        # a re-export listed in __all__ is the module's interface, not a leftover
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield f"{path.name}:{node.lineno} imports {alias.name} and never uses it"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert list(_unused_imports(path)) == []


def _loads(tree: ast.AST):
    """Names read anywhere in ``tree``, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _unread_constants(path: Path):
    read = set()
    for other in SRC.glob("*.py"):
        read.update(_loads(ast.parse(other.read_text(encoding="utf-8"), filename=str(other))))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id.lstrip("_")[:1].isupper()
                and target.id.upper() == target.id
                and target.id not in read
            ):
                yield f"{path.name}:{node.lineno} defines {target.id} and nothing reads it"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_constant_goes_unread(path):
    # a tuning constant that no code path reads still looks like it bounds
    # something, e.g. a chunk size left behind when its loop was rewritten
    assert list(_unread_constants(path)) == []


def _off_grid_errors_built(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "OffGridError":
                yield f"{path.name}:{node.lineno} builds an OffGridError"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "signal_model.py"],
    ids=lambda p: p.name,
)
def test_only_the_signal_model_builds_an_off_grid_error(path):
    # GridSpec.cells is the one whole-cell rule; a module that raises the
    # error itself holds a second copy of that rule and its idea of "nearest"
    assert list(_off_grid_errors_built(path)) == []


#: ``reconstruct``'s internal steps, which rely on the lattice contract it
#: checks and so are no entry of their own.
STITCHER_INTERNALS = {"align_overlaps", "resolve_reflection", "AlignedAssembly"}


def _stitcher_internals_imported(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in STITCHER_INTERNALS:
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "stitcher.py"],
    ids=lambda p: p.name,
)
def test_only_the_stitcher_holds_reconstructs_internal_steps(path):
    # reconstruct is the stitcher's one entry: a module that imports one of
    # its steps, the package's re-exports included, offers it without the
    # node spacing check the steps rely on
    assert list(_stitcher_internals_imported(path)) == []


#: numpy's Python-level reduction wrappers: each adds dispatch around a
#: kernel that the array's own method reaches directly.
REDUCTION_WRAPPERS = {
    "max", "min", "amax", "amin", "all", "any", "argmin", "argmax", "flatnonzero", "sum", "prod",
}

#: The modules on the per-node recovery path.
PER_NODE_MODULES = ("local_recovery.py", "stitcher.py")


def _reduction_wrapper_calls(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in REDUCTION_WRAPPERS
        ):
            yield f"{path.name}:{node.lineno} calls np.{node.func.attr}"


@pytest.mark.parametrize("name", PER_NODE_MODULES)
def test_the_per_node_path_calls_no_reduction_wrapper(name):
    # an L = 4 node spends its time in dispatch, not arithmetic: x.max(),
    # m.all(axis=1), m.nonzero()[0] and math.prod run the same kernels on the
    # same arrays, so the bits stay the same, without the wrapper's overhead
    assert list(_reduction_wrapper_calls(SRC / name)) == []


def _dispatching_calls(path: Path):
    """Calls of np.linalg.norm and of any np.fft function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "np":
            if chain[:2] == ["linalg", "norm"] or chain[:1] == ["fft"]:
                yield f"{path.name}:{node.lineno} calls np.{'.'.join(chain)}"


@pytest.mark.parametrize("name", PER_NODE_MODULES)
def test_the_per_node_path_calls_no_norm_or_fft_wrapper(name):
    # np.linalg.norm's wrapper costs about as much as its arithmetic on a
    # short vector, and np.fft adds its dispatch (and its import) to the lag
    # check; vector_norm and the DFT tables do the same work directly
    assert list(_dispatching_calls(SRC / name)) == []


#: numpy's least-squares solvers, by attribute name.
LEAST_SQUARES = {"lstsq", "pinv"}


def _top_level_callers(path: Path, names):
    """The top-level definitions of ``path`` that call one of ``names``,
    bare or as an attribute, anywhere in their bodies."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    yield getattr(top, "name", f"line {top.lineno}")


def test_local_recovery_solves_least_squares_in_one_loop():
    # both rescues of local recovery, the lag fit and the two-window polish,
    # step through _gauss_newton; a second refinement loop would call a
    # solver of its own
    assert set(_top_level_callers(SRC / "local_recovery.py", LEAST_SQUARES)) == {"_gauss_newton"}


def test_only_refit_runs_the_magnitude_fit():
    # refit is local recovery's one entry to the two-window fit: prune's
    # polish and the stitcher's off-horizon rescue both call it, and a
    # caller of _magnitude_fit elsewhere would be a second fit path
    callers = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_callers(path, {"_magnitude_fit"})
    }
    assert callers == {"local_recovery.py:refit"}


def test_only_poly_rows_builds_factorization_branches():
    # _poly_rows is local recovery's one branch builder: the whole
    # enumeration and the screen's kept branches both call it, and a caller
    # of _conjugate_closed elsewhere would be a second builder whose bits
    # could drift from it
    callers = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_callers(path, {"_conjugate_closed"})
    }
    assert callers == {"local_recovery.py:_poly_rows"}


def test_the_circle_ladder_reads_each_rung_in_one_place_and_rescues_in_another():
    # _rung is the one reading of a node's roots and _factor_ladder walks
    # the rungs once, fitting only the cores of rungs that failed
    # validation; a second caller of either would be a second walk
    for name, owner in [("_cluster_circle_roots", "_rung"), ("_lag_fit", "_factor_ladder")]:
        callers = {
            f"{path.name}:{caller}"
            for path in sorted(SRC.glob("*.py"))
            for caller in _top_level_callers(path, {name})
        }
        assert callers == {f"local_recovery.py:{owner}"}, name


def test_only_the_memo_and_the_difference_check_build_exponential_tables():
    # block_exponentials holds each block's table for measure_batch, the
    # node checks and the junction solves alike; a caller of
    # node_exponentials elsewhere would build a second copy of a held table.
    # The difference check's tables at omega_n + b are its own
    callers = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_callers(path, {"node_exponentials"})
    }
    assert callers == {"stft_engine.py:block_exponentials",
                       "stft_engine.py:check_difference_identity"}


def test_the_stitcher_takes_no_matrix_product_of_its_own():
    # stft_engine.node_transforms is the one forward-map product: the node
    # checks and the junction fits take their transforms from it, and an @
    # or a matmul in the stitcher would be a second kernel whose bits could
    # drift from measure's
    tree = ast.parse((SRC / "stitcher.py").read_text(encoding="utf-8"))
    products = [
        getattr(node, "lineno", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "einsum")
    ]
    assert products == []


def _forward_sign_holders(path: Path):
    """The top-level functions of ``path`` that hold the literal ``-2j``, the
    forward kernel's exp(-2i pi x omega) sign, as ``_top_level_callers``
    names them."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and node.operand.value == 2j
            ):
                yield getattr(top, "name", f"line {top.lineno}")


def test_only_the_exponential_tables_hold_the_forward_kernels_sign():
    # node_exponentials builds every table the forward map multiplies by,
    # and _pricing_tables local recovery's slot-offset copy of them; a third
    # holder of -2j would be a second forward map beside node_transforms
    holders = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _forward_sign_holders(path)
    }
    assert holders == {"stft_engine.node_exponentials", "local_recovery._pricing_tables"}


def test_only_pair_equivalent_runs_the_reflection_test():
    # pair_equivalent is the one pair verdict: the oracle's scans and every
    # 1-D check call it, and a caller of _reflection_residual elsewhere would
    # be a second copy of the rule
    callers = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_callers(path, {"_reflection_residual"})
    }
    assert callers == {"verifier.py:pair_equivalent"}


def _is_a_period(node: ast.AST) -> bool:
    """Whether an expression is a period: ``T``, ``<spec>.T`` or a count of
    cells per period ``k_T...``."""
    return (isinstance(node, ast.Name) and (node.id == "T" or node.id.startswith("k_T"))) or (
        isinstance(node, ast.Attribute) and node.attr == "T"
    )


def _period_floors(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            divisors = [node.right]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("floor", "ceil"):
                divisors = [
                    n.right for arg in node.args for n in ast.walk(arg)
                    if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                ]
            elif name in ("floor_divide", "divmod", "mod", "remainder", "fmod"):
                divisors = node.args[1:2]
            else:
                continue
        else:
            continue
        if any(_is_a_period(d) for d in divisors):
            yield f"{path.name}:{node.lineno} floors by a period"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "signal_model.py"],
    ids=lambda p: p.name,
)
def test_only_the_signal_model_splits_a_point_by_its_period(path):
    # period_split is the one period rule, floor(x / T + 1e-9): a module
    # that floors by a period itself may nudge, or not, differently
    assert list(_period_floors(path)) == []
