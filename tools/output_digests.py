#!/usr/bin/env python3
"""Print one sha256 per output family of the package, to show that a change
leaves every output bit-identical.

Families:

  afem         iterates, eta2, masks and solve reports of the adaptive loop
               on seed-0 samples 0-5 of the default config
  afem-deep    the same for seed-0 sample 0 on a deep config (5 levels, 5
               passes, theta 0.5, max_sweeps 400), whose last masks occupy
               4 levels with active sets far smaller than the interiors
  cnn-forward  `CnnForward.op_digests` of the benchmark's unrolled network
               for seeds 0-2 (benchmarks/run.py, loaded read-only)
  verify       the three deviations `afem verify` prints

Run from the repository root on two checkouts and compare the output:

  python3 tools/output_digests.py

Equal lines mean equal bytes.  numpy's BLAS runs on one thread, as in the
benchmark, so the digests do not depend on the machine's core count.
"""

import os
import sys
from pathlib import Path

# numpy links threaded OpenBLAS; the limits only act if set before it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from mlfem.adapt import afem  # noqa: E402
from mlfem.assembly import compute_upsilon  # noqa: E402
from mlfem.cli import RunConfig, verify_rows  # noqa: E402
from mlfem.mesh import build_hierarchy  # noqa: E402
from mlfem.problems import SampleRng, discretize_kappa, load_image  # noqa: E402

AFEM_SAMPLES = range(6)
DEEP = RunConfig(levels=5, iterations=5, theta=0.5, max_sweeps=400)
CNN_SEEDS = range(3)


def update(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def afem_digest(cfg: RunConfig = RunConfig(), samples=AFEM_SAMPLES) -> str:
    hier = build_hierarchy(cfg.coarse_nodes_per_side, cfg.levels)
    f_values = load_image(cfg.problem, hier)
    h = hashlib.sha256()
    for index in samples:
        y = SampleRng(cfg.seed).sample_generator(index).random(len(cfg.problem.centers))
        diffusion = compute_upsilon(hier, discretize_kappa(cfg.problem, y, hier))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            steps = afem(
                diffusion, f_values, cfg.iterations, marking=cfg.marking, theta=cfg.theta,
                tol=cfg.tol, max_sweeps=cfg.max_sweeps,
            )
        for step in steps:
            update(h, *step.u.values, *step.est.eta2, *(m.active for m in step.u.masks))
            update(h, np.array([step.solve.iterations]), np.array(step.solve.residual_history))
            h.update(step.solve.status.encode())
    return h.hexdigest()


def load_benchmark():
    """benchmarks/run.py as a module; it imports its sibling `layers`."""
    bench = ROOT / "benchmarks"
    sys.path.insert(0, str(bench))
    spec = importlib.util.spec_from_file_location("benchmark_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cnn_forward_digest() -> str:
    run = load_benchmark()
    h = hashlib.sha256()
    for seed in CNN_SEEDS:
        work = run.CnnForward(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            passes = [work.forward(d) for d in work.diffusions]
        for op in work.op_digests(run.Round(work.samples, 0.0, False, passes=passes)):
            h.update(op)
    return h.hexdigest()


def verify_digest() -> str:
    h = hashlib.sha256()
    for name, dev in verify_rows(RunConfig()):
        h.update(name.encode())
        update(h, np.float64(dev))
    return h.hexdigest()


def main() -> int:
    families = (
        ("afem", afem_digest),
        ("afem-deep", lambda: afem_digest(DEEP, range(1))),
        ("cnn-forward", cnn_forward_digest),
        ("verify", verify_digest),
    )
    for name, fn in families:
        print(f"{name:<12} {fn()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
