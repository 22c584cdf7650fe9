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
