"""The names the benchmark binds and the names each module exports must exist,
the benchmark's smoke run passes, and the discrete pipeline stays free of the
problem model."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mlfem

MODULES = ["mlfem"] + [f"mlfem.{m.name}" for m in pkgutil.iter_modules(mlfem.__path__)]


def load_benchmark_layers():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_binds_every_target():
    layers = load_benchmark_layers()
    tracer = layers.Tracer()
    tracer.install()
    tracer.remove()
    for key, owner, attr, scope, _ in layers.TARGETS:
        func = getattr(owner, attr)
        # a module target the benchmark cannot find anywhere would read 0
        if not isinstance(owner, type):
            assert layers.bindings(func, scope), f"{key}: no binding of {attr}"
        # remove() put the originals back, not the tracer's wrappers
        assert func.__name__ == attr, key


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "mlfem.cli"])
def test_module_declares_exports(name):
    # the CLI is an entry point, not a library module
    assert hasattr(importlib.import_module(name), "__all__"), f"{name} lacks __all__"


def test_import_loads_no_scipy():
    # scipy serves only the verification routes (assembled matrix, reference
    # solve), which import it where they use it
    src = str(Path(mlfem.__file__).resolve().parents[1])
    code = "import sys, mlfem, mlfem.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def imported_modules(path: Path) -> set[str]:
    """Dotted names a package module imports, relative imports resolved to `mlfem`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["mlfem" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_the_entry_points_import_the_problem_model():
    # the adaptive loop, the network and their kernels run on discrete data
    # (coefficient channels and load images); only the CLI and the package
    # namespace know the cookie problem that produces them
    src = Path(mlfem.__file__).resolve().parent
    offenders = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name not in ("cli.py", "__init__.py")
        and "mlfem.problems" in imported_modules(path)
    ]
    assert offenders == []


def stencil_coupling_reads(path: Path) -> list[str]:
    """Functions (or `<module>`) of a package module that read STENCIL_COUPLINGS."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owners.setdefault(node, func.name)
    reads = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "STENCIL_COUPLINGS" and isinstance(node.ctx, ast.Load):
            reads.append(f"{path.name}:{owners.get(node, '<module>')}")
    return reads


def test_stencil_couplings_are_contracted_in_one_place():
    # each level's weight images are the couplings contracted with Upsilon;
    # that contraction is written once, and everything else applies its
    # result (`DiffusionField.stencil`)
    src = Path(mlfem.__file__).resolve().parent
    reads = [r for path in sorted(src.glob("*.py")) for r in stencil_coupling_reads(path)]
    assert reads == ["assembly.py:_stencil_weights"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_bindings(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """(name, line) of the imports and private names bound at module level,
    also inside top-level `if` blocks (`TYPE_CHECKING` imports)."""
    found = []
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if getattr(stmt, "module", None) != "__future__":
                found += [((a.asname or a.name).split(".")[0], stmt.lineno) for a in stmt.names]
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found += [(stmt.name, stmt.lineno)] if _is_private(stmt.name) else []
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            found += [(name, stmt.lineno) for name in names if _is_private(name)]
        elif isinstance(stmt, ast.If):
            found += module_bindings(stmt.body + stmt.orelse)
    return found


def module_reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, its `__all__` entries and the
    names inside string annotations."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            reads |= {e.value for e in node.value.elts}
        annotations = []
        if isinstance(node, ast.FunctionDef):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                parsed = ast.parse(ann.value, mode="eval")
                reads |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return reads


def unread_module_names(src: Path) -> list[str]:
    """`module:line name` of each top-level import or private module-level
    name that neither its module nor another package module reads (the
    others through `from .module import name` or an attribute `.name`)."""
    paths = sorted(src.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    elsewhere = {stem: set() for stem in trees}
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in elsewhere:
                elsewhere[node.module] |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unread = []
    for stem, tree in trees.items():
        reads = module_reads(tree) | elsewhere[stem] | attributes
        bound = module_bindings(tree.body)
        unread += [f"{stem}.py:{line} {name}" for name, line in bound if name not in reads]
    return unread


def test_package_binds_no_unread_module_names():
    # the package has no linter: a leftover import or private helper that
    # nothing reads (say, after a deletion) fails here
    assert unread_module_names(Path(mlfem.__file__).resolve().parent) == []


# The tracer targets each workload never calls, as its traced smoke round
# reports them.  A target that goes dead (say, a function the package stops
# calling) reads 0 in the benchmark without failing it, so the sets are
# pinned here; ROADMAP item 8 retargets them.
_CONV = {"convnet.conv_apply", "convnet.estimator", "convnet.mark_refine", "convnet.sweep"}
_UNCALLED = {"assembly.apply_A_level", "assembly.apply_A_level_transpose",
             "field.prolongate", "field.restrict_weighted", "field.shift", "solver.sweep"}
ZERO_CALL_TARGETS = {
    "dataset": _UNCALLED | _CONV | {"problems.reference"},
    "uq-study": _UNCALLED | _CONV | {"cli.reload", "cli.write"},
    "cnn-forward": _UNCALLED | {
        "adapt.mark", "adapt.refine", "cli.reload", "cli.write", "estimator.estimate",
        "problems.reference", "solver.residual",
    },
}


def test_benchmark_smoke_passes():
    # one round of every workload, untraced and traced, with all of the
    # benchmark's checks: it calls the sweep functions (`llmg_sweep`,
    # `init_llmg_state`, `conv_llmg_sweep`) through their public names
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["smoke"] == "pass"
    for workload, pinned in ZERO_CALL_TARGETS.items():
        trace = json.loads((root / "benchmarks" / "_out" / f"trace-{workload}-seed0.json").read_text())
        zero = {key for key, calls in trace["calls"].items() if calls == 0}
        assert zero == pinned, workload
