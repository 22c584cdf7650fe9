"""Per-layer instrumentation for the benchmark, kept outside the package.

`Tracer` wraps the package's public functions where its modules call them:
each target replaces every binding of one function in the loaded `mlfem`
modules (or only the binding that one module sees), counts the calls made
while it is installed, and sums their inclusive time.  `kernel_timings`
times single kernels on fixed inputs at each lattice size.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from mlfem import adapt, assembly, cli, convnet, estimator, field, problems, solver
from mlfem.mesh import build_hierarchy


def bindings(func, scope: str | None = None) -> list[tuple[object, str]]:
    """(module, name) pairs under which loaded mlfem modules hold `func`.

    With `scope`, only the binding in that one module: the function is then
    traced only where that module calls it.
    """
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mlfem" or mod_name.startswith("mlfem.")):
            continue
        if scope is not None and mod_name != scope:
            continue
        found.extend((mod, name) for name, value in vars(mod).items() if value is func)
    return found


# (metric key, owner, attribute, scope, timed).  Owner is a module (every
# binding of the function is wrapped, or only the one in `scope`) or a class
# (the method is wrapped on the class).  Untimed targets only count calls:
# `shift` runs tens of thousands of times per sample.
TARGETS = (
    ("problems.reference", problems, "overkill_reference", None, True),
    ("solver.sweep", solver, "llmg_sweep", None, True),
    # llmg_solve's stacked residual is the only caller of apply_stacked in solver
    ("solver.residual", assembly, "apply_stacked", "mlfem.solver", True),
    ("assembly.apply_A_level", assembly, "apply_A_level", None, True),
    ("assembly.apply_A_level_transpose", assembly, "apply_A_level_transpose", None, True),
    ("field.prolongate", field, "prolongate", None, True),
    ("field.restrict_weighted", field, "restrict_weighted", None, True),
    ("field.shift", field, "shift", None, False),
    ("estimator.estimate", estimator, "estimate", None, True),
    ("adapt.mark", adapt, "mark_doerfler", None, True),
    ("adapt.mark", adapt, "mark_threshold", None, True),
    ("adapt.refine", adapt, "refine", None, True),
    ("convnet.sweep", convnet, "conv_llmg_sweep", None, True),
    ("convnet.conv_apply", convnet, "conv_apply", None, True),
    ("convnet.estimator", convnet, "conv_estimator", None, True),
    ("convnet.mark_refine", convnet, "conv_mark_refine", None, True),
    ("cli.write", cli.MlfdWriter, "add", None, True),
    ("cli.write", cli.MlfdWriter, "close", None, True),
    ("cli.reload", cli.MlfdDataset, "__init__", None, True),
    ("cli.reload", cli.MlfdDataset, "load", None, True),
)


class Tracer:
    """Call counts and inclusive seconds per target key, summed over installs."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = {key: 0 for key, *_ in targets}
        self.seconds = {key: 0.0 for key, *_ in targets}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, func, timed: bool):
        calls, seconds = self.calls, self.seconds
        if not timed:
            def counted(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return counted

        def timed_call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                calls[key] += 1
                seconds[key] += time.perf_counter() - t0
        return timed_call

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for key, owner, attr, scope, timed in self.targets:
            func = getattr(owner, attr)
            sites = [(owner, attr)] if isinstance(owner, type) else bindings(func, scope)
            wrapper = self._wrap(key, func, timed)
            for site, name in sites:
                self._undo.append((site, name, getattr(site, name)))
                setattr(site, name, wrapper)

    def remove(self) -> None:
        while self._undo:
            site, name, original = self._undo.pop()
            setattr(site, name, original)

    def per_call(self, key: str, scale: float) -> float:
        """Mean inclusive time per call times `scale`; 0 when never called."""
        calls = self.calls[key]
        return self.seconds[key] / calls * scale if calls else 0.0


def _per_call_us(call, blocks: int = 7, block_seconds: float = 2e-3) -> float:
    """Median over blocks of the mean time per call, in microseconds."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        if time.perf_counter() - t0 >= block_seconds:
            break
        reps *= 2
    samples = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def kernel_timings() -> dict[str, float]:
    """Per-call time of each lattice kernel at each size N, on fixed inputs.

    N is the lattice the kernel reads or writes at full size: the level's
    own lattice for the stiffness actions, the fine lattice of the pair for
    the transfers.  Masks are full and images random but fixed.
    """
    hier = build_hierarchy(3, 7)  # n = 3, 5, 9, ..., 129
    prob = problems.CookieProblem()
    diffusion = assembly.compute_upsilon(
        hier, problems.discretize_kappa(prob, (0.5, 0.5), hier)
    )
    bank = convnet.build_stencil_bank(hier)
    rng = np.random.default_rng(2408)
    out = {}
    for k in range(1, hier.levels):
        n, h = hier.n(k), hier.h(k)
        fine_mask, coarse_mask = field.full_mask(hier, k), field.full_mask(hier, k - 1)
        image = rng.normal(size=(n, n)) * fine_mask.active
        coarse = rng.normal(size=(hier.n(k - 1),) * 2) * coarse_mask.active
        ups = diffusion.upsilon[k]
        stack = convnet.conv_translate(bank, image, fine_mask.active)
        cases = {
            "apply_A_level": lambda: assembly.apply_A_level(image, ups, h),
            "apply_A_level_transpose": lambda: assembly.apply_A_level_transpose(image, ups, h),
            "prolongate": lambda: field.prolongate(coarse, coarse_mask, fine_mask),
            "restrict_weighted": lambda: field.restrict_weighted(image, coarse_mask, fine_mask),
            "conv_apply_A": lambda: convnet.conv_apply_A(bank, stack, ups, h),
        }
        for fn, call in cases.items():
            out[f"kernel.{fn}.n{n}_us"] = _per_call_us(call)
    return out
