"""Source hygiene: correctness checks must survive `python -O`, caches are
bounded, each step of the Holevo quantity has one home, each truncation
constant is read only by its rules, one ring push sizes, fetches for and
pushes every coherent ring and `chi_opt` makes no push of its own,
transfer tensors are fetched once per caller, the optimizer's iterations
take no spectrum and build no density matrix, the
bound interval has one kernel, sweep rows are streamed and validated
once, every `--out` has one opener, every exported name and every name
the bench tracer patches must exist, every public name of the numerical
layer has a caller outside its module, the package never names
numpy.polynomial, the package defaults BLAS to one thread, and a bench
worker call still runs against the package."""

import ast
import importlib
import json
import os
from pathlib import Path
import runpy
import subprocess
import sys
import time

import numpy as np
import pytest

import thermalcap
import thermalcap.cli  # noqa: F401  (the tracer patches `cli` names)


def _package_trees():
    sources = sorted(Path(thermalcap.__file__).parent.glob("*.py"))
    assert sources
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path))) for path in sources
    ]


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the package raises explicit exceptions instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def _unbounded_caches(tree):
    """Lines that use `functools.cache`, or `lru_cache` without an integer maxsize.

    The maxsize must be an integer literal or a module-level name bound to
    one.  Both decorators must be spelled `functools.<name>`, so that no
    import can hide a use from this check.
    """
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def is_int(size):
        if isinstance(size, ast.Name):
            return size.id in constants
        return isinstance(size, ast.Constant) and type(size.value) is int

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if {alias.name for alias in node.names} & {"cache", "lru_cache"}:
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "lru_cache":
            call = calls.get(id(node))  # None for the bare decorator (maxsize 128)
            sizes = [] if call is None else call.args[:1] + [
                kw.value for kw in call.keywords if kw.arg == "maxsize"
            ]
            if not (len(sizes) == 1 and is_int(sizes[0])):
                found.append(node.lineno)
    return sorted(found)


def test_caches_are_bounded():
    # Every cache in the package is an `lru_cache` with an explicit integer
    # maxsize; `functools.cache` and `maxsize=None` grow without bound.
    found = [
        f"{name}:{line}"
        for name, tree in _package_trees()
        for line in _unbounded_caches(tree)
    ]
    assert not found, f"unbounded or implicit caches in the package: {', '.join(found)}"


def test_unbounded_cache_check_flags_each_form():
    source = """
import functools
from functools import lru_cache
SIZE = 4
@functools.lru_cache(maxsize=8)
def a(x): return x
@functools.lru_cache(SIZE)
def b(x): return x
@functools.lru_cache(maxsize=None)
def c(x): return x
@functools.lru_cache
def d(x): return x
@functools.cache
def e(x): return x
@functools.lru_cache()
def f(x): return x
"""
    assert _unbounded_caches(ast.parse(source)) == [3, 9, 11, 13, 15]



# The channel push, the diagonal reader and the entropy of a spectrum are
# each written once in `fock_oracle`, and everything that forms a chi goes
# through `_push_rings` or `apply_channel` and `_holevo`.  Only the ring
# push sizes rings by the coherent-cutoff rule; `coherent_state` reads it
# to check a state's own cutoff.  The packed tensor build runs only under
# the cached `_channel_transfer`, so no second build can be held beside
# the cached one.  A use anywhere else, a same-named function in another
# module included, is a second copy of one of these steps in the making.
_ALLOWED_USERS = {  # name -> the `fock_oracle` functions that may use it
    "_push": {"apply_channel", "_push_rings"},
    "_diagonals": {"apply_channel"},
    "_eigenvalue_entropy": {"von_neumann_entropy", "_push_rings", "_holevo"},
    "_coherent_cutoff": {"_push_rings", "coherent_state"},
    "_transfer_tensor": {"_channel_transfer"},
}
_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _uses(tree, names):
    """(enclosing function, name, line) for each read of a name in names.

    A read is a bare name or an attribute (`fock_oracle._push`,
    `np.linalg.eigh`), so an alias cannot hide a use; the enclosing
    function is the innermost one, a method's own name for methods, and
    None at module level.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in names:
            found.append((function, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_each_holevo_step_has_one_home():
    found = [
        f"{module}:{line} {function} uses {name}"
        for module, tree in _package_trees()
        for function, name, line in _uses(tree, _ALLOWED_USERS)
        if module != "fock_oracle.py" or function not in _ALLOWED_USERS[name]
    ]
    assert not found, f"Holevo steps used outside their home: {'; '.join(found)}"


# Each truncation constant is read only where its rule lives: the tail
# tolerance by the two cutoff rules, and the byte cap by the transfer-tensor
# fetch, where a build is sized before anything is allocated.
_CONSTANT_READERS = {
    "DEFAULT_TAIL_TOL": {"_thermal_cutoff", "_coherent_cutoff"},
    "DEFAULT_MAX_TRANSFER_BYTES": {"_channel_transfer"},
}


def test_truncation_constants_are_read_where_their_rules_live():
    found = [
        f"{module}:{line} {function} reads {name}"
        for module, tree in _package_trees()
        for function, name, line in _uses(tree, _CONSTANT_READERS)
        if module != "fock_oracle.py" or function not in _CONSTANT_READERS[name]
    ]
    assert not found, f"truncation constants read outside their rules: {'; '.join(found)}"


def test_no_second_coherent_truncation_rule():
    # The Poisson tail is the one rule for a coherent cutoff: no module
    # defines or reads a photons-per-level constant or a fixed member
    # cutoff beside it.
    found = [
        f"{module}:{line} {function} uses {name}"
        for module, tree in _package_trees()
        for function, name, line in _uses(tree, {"_LEVELS_PER_PHOTON", "MAX_DIM"})
    ] + [
        f"{module}:{node.lineno} defines {target.id}"
        for module, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id in {"_LEVELS_PER_PHOTON", "MAX_DIM"}
    ]
    assert not found, f"a second coherent truncation rule: {'; '.join(found)}"


# The oracle report and the optimizer each push their rings with one call
# of the ring push; `chi_opt` reads no step of a push itself.
_RING_PUSHERS = {
    ("fock_oracle.py", "gaussian_ensemble_report"),
    ("chi_opt.py", "optimize"),
}
_PUSH_STEPS = {
    "_push", "_coherent_vector", "_coherent_cutoff", "_channel_transfer",
    "_transfer_tensor", "_diagonals", "_eigenvalue_entropy",
}


def test_chi_opt_makes_no_push():
    tree = dict(_package_trees())["chi_opt.py"]
    found = [f"chi_opt.py:{line} {function} uses {name}"
             for function, name, line in _uses(tree, _PUSH_STEPS)]
    assert not found, f"a push step in `chi_opt`: {'; '.join(found)}"
    sites = [
        (module, function)
        for module, tree in _package_trees()
        for function, _, _ in _uses(tree, {"_push_rings"})
    ]
    assert sorted(sites) == sorted(_RING_PUSHERS), f"ring push call sites: {sites}"


def test_every_exported_name_exists():
    # A stale `__all__` entry breaks `from <module> import *`.
    modules = [thermalcap] + [
        importlib.import_module(f"thermalcap.{path.stem}")
        for path in sorted(Path(thermalcap.__file__).parent.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, f"names in __all__ that do not exist: {', '.join(missing)}"


# A name in the numerical layer's `__all__` stays public only when code
# outside its module needs it: another package module or a bench script
# reads it, or it is a class its module's public functions hand to their
# callers.  `chi` and `Ensemble` stay to evaluate arbitrary ensembles.
_PUBLIC_ON_PURPOSE = {"chi", "Ensemble"}


def _docstrings(tree):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _unneeded_exports(module, readers, bench):
    """Names in module's `__all__` that no rule keeps public, sorted.

    module, readers and bench are parsed trees: the exporting module, the
    other package modules and the bench scripts.  A read is what `_uses`
    sees, and in a bench script also a string that is not a docstring,
    since the bench tracer names what it patches.  A handed class is
    named by a public function's return annotation or by a field of a
    handed class, or is raised in the module.
    """
    exported = next(
        {element.value for element in node.value.elts}
        for node in module.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    read = {name for tree in readers + bench for _, name, _ in _uses(tree, exported)}
    for tree in bench:
        docstrings = _docstrings(tree)
        read |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
        }
    classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
    handed = {
        name.id
        for node in module.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.returns
        for name in ast.walk(node.returns) if isinstance(name, ast.Name)
    } | {
        name.id
        for node in ast.walk(module) if isinstance(node, ast.Raise) and node.exc
        for name in ast.walk(node.exc) if isinstance(name, ast.Name)
    }
    pending = list(handed & classes.keys())
    while pending:
        for field in classes[pending.pop()].body:
            if isinstance(field, ast.AnnAssign):
                for name in ast.walk(field.annotation):
                    if isinstance(name, ast.Name) and name.id in classes.keys() - handed:
                        handed.add(name.id)
                        pending.append(name.id)
    kept = read | (handed & classes.keys()) | _PUBLIC_ON_PURPOSE
    return sorted(exported - kept)


def test_numerical_exports_have_a_caller_outside_their_module():
    trees = dict(_package_trees())
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    found = [
        f"{module}: {name}"
        for module in ("fock_oracle.py", "chi_opt.py")
        for name in _unneeded_exports(
            trees[module], [tree for other, tree in trees.items() if other != module], bench
        )
    ]
    assert not found, f"public names nothing outside their module needs: {', '.join(found)}"


def test_export_check_sees_readers_handed_classes_and_bench_strings():
    module = '''
__all__ = ["Report", "Stats", "Error", "Spare", "run", "read", "traced", "helper", "TOL", "chi"]
TOL = 1e-9
class Stats:
    calls: int
class Report:
    stats: Stats
class Error(Exception):
    pass
class Spare:
    pass
def run(x) -> Report:
    if x > TOL:
        raise Error(helper(x))
def read(x):
    return Spare()
def traced(x):
    return x
def helper(x):
    return x
def chi(x):
    return x
'''
    reader = 'from . import mod\n"""helper"""\nvalue = mod.read(TOL)\n"helper"\n'
    bench = '"""helper"""\nrows = [("mod", "traced")]\n'
    trees = [ast.parse(source) for source in (module, reader, bench)]
    assert _unneeded_exports(trees[0], trees[1:2], trees[2:]) == ["Spare", "helper", "run"]


def test_chi_opt_leaves_output_spectra_to_fock_oracle():
    # The optimizer takes no spectrum of its own: every one belongs to
    # `fock_oracle`.
    tree = dict(_package_trees())["chi_opt.py"]
    found = [
        f"chi_opt.py:{line} {function} calls {name}"
        for function, name, line in _uses(tree, _EIGENSOLVERS)
    ]
    assert not found, f"eigensolves outside their home: {'; '.join(found)}"


def test_chi_opt_builds_member_vectors_in_one_place():
    # Every push hands a radius to `fock_oracle._push_rings`, so
    # `chi_opt` builds no state vector; the explicit ensemble a result
    # hands out takes its states from `coherent_state`, in one place.
    tree = dict(_package_trees())["chi_opt.py"]
    found = [
        f"chi_opt.py:{node.lineno} calls {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"_coherent_vector", "FockDensityMatrix"}
    ]
    assert not found, f"member vectors built in `chi_opt`: {'; '.join(found)}"
    assert not _uses(tree, {"_coherent_vector"})
    sites = [function for function, _, _ in _uses(tree, {"coherent_state"})]
    assert sites == ["ensemble"], sites


def test_use_check_sees_methods_aliases_and_attributes():
    source = """
import numpy as np
from . import fock_oracle
push = fock_oracle._push
class Run:
    def output(self, m):
        return np.linalg.eigvalsh(_diagonals(m))
def apply_channel(t, d):
    return _push(t, d, 0.0)
"""
    assert _uses(ast.parse(source), {"_push", "_diagonals", "eigvalsh"}) == [
        (None, "_push", 4), ("output", "eigvalsh", 7), ("output", "_diagonals", 7),
        ("apply_channel", "_push", 9),
    ]

# The transfer tensor is fetched once per `apply_channel` call and once
# per ring push, which serves an oracle report or an optimizer run; every
# other push slices a tensor its caller already holds.
_TRANSFER_FETCHERS = {
    ("fock_oracle.py", "apply_channel"),
    ("fock_oracle.py", "_push_rings"),
}


def test_transfer_tensor_is_fetched_once_per_caller():
    fetches = [
        (module, function)
        for module, tree in _package_trees()
        for function, _, _ in _uses(tree, {"_channel_transfer"})
        if function is not None
    ]
    assert sorted(fetches) == sorted(_TRANSFER_FETCHERS), (
        f"transfer tensors fetched outside their callers, or twice: {sorted(fetches)}"
    )
    # No fetch sits in a loop: one per call of its caller.
    looped = [
        (module, node.lineno)
        for module, tree in _package_trees()
        for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))
        for _, _, _ in _uses(node, {"_channel_transfer"})
    ]
    assert not looped, f"transfer tensors fetched in a loop: {looped}"


def test_optimize_builds_no_density_matrix_and_takes_no_spectrum_per_iteration(monkeypatch):
    # The search works on ring diagonals: it builds no `FockDensityMatrix`
    # and takes one eigensolve per push, for the ring's entropy, and none
    # per iteration; `eigensolve_n3` sums their cubed level counts.  The
    # explicit ensemble, hundreds of density matrices at 21 environment
    # levels, is built only when `result.ensemble` is first read, outside
    # the run.
    from thermalcap.chi_opt import OptimizerConfig, optimize
    from thermalcap.fock_oracle import FockDensityMatrix
    from thermalcap.gaussian_core import ChannelParams

    built = []
    check = FockDensityMatrix.__post_init__

    def counted(self):
        built.append(self.dim)
        check(self)

    monkeypatch.setattr(FockDensityMatrix, "__post_init__", counted)
    eigensolves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted_solver(matrix, *args, _solver=solver, **kwargs):
            eigensolves.append(len(matrix))
            return _solver(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted_solver)
    params = ChannelParams(transmissivity=0.6, environment_photons=0.5)
    result = optimize(params, 1.0, OptimizerConfig(max_iterations=20))
    assert result.iterations == 20
    assert built == []
    assert len(eigensolves) == result.stats.eigensolves == result.stats.channel_pushes == 9
    assert sum(levels**3 for levels in eigensolves) == result.stats.eigensolve_n3
    members = len(result.ensemble)
    assert members > 300 and len(built) >= members
    assert result.ensemble is result.ensemble  # built once


# The interval of one (lambda, N_E, N) triple is computed in one kernel,
# `bounds._interval`; the bound functions and `report` validate and then
# read it, and `cli._sweep_rows` reads it for rows whose grid axes
# `cli._check_grid` has already validated, so a row is validated once.
_INTERVAL_USERS = {
    ("bounds.py", name)
    for name in ("report", "holevo_lower", "additive_extension_upper", "gap",
                 "refined_gap_bound", "pure_loss_capacity")
} | {("cli.py", "_sweep_rows")}


def test_the_interval_kernel_has_its_callers_only():
    sites = {
        (module, function)
        for module, tree in _package_trees()
        for function, _, _ in _uses(tree, {"_interval"})
    }
    assert sites == _INTERVAL_USERS, f"interval kernel call sites: {sorted(sites)}"


def test_sweep_rows_validate_nothing_again():
    tree = dict(_package_trees())["cli.py"]
    found = [
        f"cli.py:{line} uses {name}"
        for function, name, line in _uses(
            tree, {"_validate", "_check_signal", "report", "ChannelParams"}
        )
        if function == "_sweep_rows"
    ]
    assert not found, f"per-row validation in `_sweep_rows`: {'; '.join(found)}"


def _unstreamed_sweeps(tree):
    """Lines that read `_sweep_rows` other than as `for ... in _sweep_rows(...)`.

    A `list`, `tuple`, `json.dumps` or comprehension over the generator
    would hold the whole grid in memory, and so would handing the
    generator itself to anything else.
    """
    looped = {
        id(node.iter.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id == "_sweep_rows")
            or (isinstance(node, ast.Attribute) and node.attr == "_sweep_rows")
        )
        and id(node) not in looped
    )


def test_sweep_rows_are_streamed():
    found = [
        f"{module}:{line}"
        for module, tree in _package_trees()
        for line in _unstreamed_sweeps(tree)
    ]
    assert not found, f"sweep rows gathered instead of streamed: {', '.join(found)}"


def test_unstreamed_sweep_check_flags_each_form():
    source = """
for row in _sweep_rows(a, b, c):
    pass
rows = list(_sweep_rows(a, b, c))
text = json.dumps(tuple(cli._sweep_rows(a, b, c)))
cells = [row for row in _sweep_rows(a, b, c)]
for index, row in enumerate(_sweep_rows(a, b, c)):
    pass
rows = _sweep_rows
"""
    assert _unstreamed_sweeps(ast.parse(source)) == [4, 5, 6, 7, 9]


def _out_openers(tree):
    """(function, line) of each `open`, stdout or `.out` read outside `_open_out`.

    A `.out` read passed straight to `_open_out` is the one allowed use
    of an `--out` value elsewhere.
    """
    found = [
        (function, line)
        for function, _, line in _uses(tree, {"open", "stdout"})
        if function != "_open_out"
    ]
    passed = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_open_out" and len(node.args) == 1
    }
    found += [
        (None, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "out" and id(node) not in passed
    ]
    return sorted(found, key=lambda item: item[1])


def test_every_out_target_has_one_opener():
    tree = dict(_package_trees())["cli.py"]
    found = _out_openers(tree)
    assert not found, f"outputs opened outside `_open_out`: {found}"
    assert _uses(tree, {"_open_out"}), "no command opens its output with `_open_out`"


def test_out_opener_check_flags_each_form():
    source = """
def _open_out(path):
    return open(path) if path != "-" else sys.stdout
def cmd(args):
    with _open_out(args.out) as out:
        out.write("x")
    sys.stdout.write(args.out)
    Path(args.out).open("w")
"""
    assert _out_openers(ast.parse(source)) == [
        ("cmd", 7), (None, 7), ("cmd", 8), (None, 8),
    ]


_POLYNOMIAL_NAMES = {"polynomial", "laggauss"}


def _polynomial_references(tree):
    """Line numbers of code that names numpy.polynomial or laggauss.

    Importing numpy.polynomial costs a cold oracle report more than its
    Gauss-Laguerre rule does (`fock_oracle._gauss_laguerre`).
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in _POLYNOMIAL_NAMES
        elif isinstance(node, ast.Name):
            hit = node.id in _POLYNOMIAL_NAMES
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            hit = any(
                name.startswith("numpy.polynomial") or name.split(".")[-1] in _POLYNOMIAL_NAMES
                for name in names
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hit = node.value.startswith("numpy.polynomial")
        else:
            hit = False
        if hit:
            found.append(node.lineno)
    return sorted(set(found))


def test_the_package_never_names_numpy_polynomial():
    found = [
        f"{name}:{line}"
        for name, tree in _package_trees()
        for line in _polynomial_references(tree)
    ]
    assert not found, f"numpy.polynomial or laggauss named in the package: {', '.join(found)}"


def test_polynomial_check_flags_each_form():
    source = '''
import numpy.polynomial
from numpy.polynomial.laguerre import laggauss
from numpy import polynomial
x = np.polynomial.laguerre.laggauss(24)
y = laggauss(24)
z = importlib.import_module("numpy.polynomial.laguerre")
w = np.linalg.eigh(m)
"""Docstrings may cite numpy's laggauss."""
'''
    assert _polynomial_references(ast.parse(source)) == [2, 3, 4, 5, 6, 7]


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_environment(code, **set_variables):
    """os.environ's BLAS variables after running code in a fresh process.

    The child starts with those variables unset except as given.
    """
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env.update(set_variables)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(thermalcap.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    script = code + "\nimport json, os\n" + (
        f"print(json.dumps([os.environ.get(name) for name in {_BLAS_VARIABLES!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_defaults_blas_to_one_thread():
    # Imported before NumPy, the package sets each unset variable to 1.
    assert _fresh_environment("import thermalcap") == ["1", "1", "1"]
    # A value the user set survives.
    assert _fresh_environment("import thermalcap", OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
    # After NumPy has loaded its BLAS the variables change nothing, so
    # the package leaves them alone.
    assert _fresh_environment("import numpy\nimport thermalcap") == [None, None, None]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_targets_exist():
    # The bench tracer patches package names from outside, `chi_opt`'s
    # imports of `fock_oracle` functions among them; a refactor that
    # drops one would break traced bench runs without failing a test.
    # The tracer is run from its source, so nothing is written under bench/.
    tracer = BENCH / "tracer.py"
    targets = runpy.run_path(str(tracer))["targets"]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, _, owners, attr, _ in targets(thermalcap)
        for owner in owners
        if not hasattr(owner, attr)
    ]
    assert not missing, f"names the bench tracer patches are gone: {', '.join(missing)}"


@pytest.mark.parametrize(
    "workload", ["sweep", "oracle", "optimize_pure_loss", "optimize_thermal"]
)
def test_bench_worker_call_succeeds(workload, tmp_path):
    # The bench worker builds configurations and reads result fields of
    # its own (`OptimizerConfig(seed=, max_iterations=)`, `result.history`,
    # `ChiReport.member_dims`, ...); a refactor that drops one fails every
    # bench call while the rest of the suite stays green.  One traced call,
    # spawned as `bench/run.py` spawns it, with one BLAS thread; no
    # bytecode is written, so nothing lands under bench/.
    spec = {"workload": workload, "seed": 0, "index": 0, "trace": True,
            "scratch": str(tmp_path), "spawned": time.monotonic()}
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           **{name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent, env=env,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["ok"], f"{record.get('error')}\n{proc.stderr[-2000:]}"
