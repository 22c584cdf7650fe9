#!/usr/bin/env python3
"""Benchmark of mlfem's two expensive uses: training-data generation on
adaptively refined meshes, and the CNN that unrolls the multilevel solver,
the estimator and mark/refine.

Workloads (one process, one worker, one BLAS/OpenMP thread each):

  dataset      `gen-dataset` on the default config, seed-0 samples 0-2 per round
  uq-study     `convstudy` on the default config, seed-0 samples 0-1 per round
  cnn-forward  the conv route: init_llmg_state, 20 conv_llmg_sweep steps,
               conv_estimator and threshold conv_mark_refine, three adaptive
               iterations per sample, samples 0-3 of SampleRng(--seed)

Run from the repository root:

  python3 benchmarks/run.py --workload dataset --seed 1 --seconds 20 --trace 0
  python3 benchmarks/run.py --smoke [--seed 2]

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1.  benchmarks/README.md
describes the workloads, the checks and the metrics.
"""

import os
import sys
from pathlib import Path

# numpy links threaded OpenBLAS; the limits only act if set before it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "mlfem" / "__init__.py").is_file():
    sys.exit(f"benchmark: no package sources at {ROOT / 'src' / 'mlfem'}")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field as dc_field, replace  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from mlfem import adapt, cli, convnet, field, problems, solver  # noqa: E402
from mlfem.assembly import RhsField, assemble_global, compute_upsilon  # noqa: E402
from mlfem.estimator import estimate, leaf_triangle_masks  # noqa: E402
from mlfem.mesh import build_hierarchy  # noqa: E402

OUT = Path(__file__).resolve().parent / "_out"

# Whether an adaptive solve stops at the 200-sweep cap depends on the sample
# (seed-0 samples 2 and 4 stop at exactly 200 sweeps, sample 18 converges in
# 197), so dataset and uq-study use the fixed seed-0 samples in every run:
# each round then fails the same solves.  Samples 0-2 include one capped solve
# (sample 2, last iteration); convstudy's uniform solves at depths 2-4 are
# capped for every sample.  Rounds are kept short (a few seconds) so that a
# run holds several of them.
DATASET_SAMPLES = 3
STUDY_SAMPLES = 2
CNN_SAMPLES = 4
CNN_SWEEPS = 20
CNN_ITERATIONS = 3
CNN_MARK_FRACTION = 0.5  # threshold marking: theta times the peak indicator
SETUP_REPEATS = 3


@dataclass
class SolveRecord:
    """One llmg_solve call: its right-hand side, coefficient data, result and time."""

    f: RhsField
    diffusion: object
    u: field.MultilevelField
    report: solver.SolveReport
    seconds: float


class SolveLog(list):
    """Records every llmg_solve call made through adapt and cli.

    Installed for the whole run, traced or not: it is how operations are
    counted and how the iterates reach the checks.  It costs two clock reads
    per solve.
    """

    def install(self) -> None:
        original = solver.llmg_solve

        def logged(u0, f, diffusion, smoother, **kwargs):
            t0 = time.perf_counter()
            u, report = original(u0, f, diffusion, smoother, **kwargs)
            self.append(SolveRecord(f, diffusion, u, report, time.perf_counter() - t0))
            return u, report

        for site, name in layers.bindings(original):
            setattr(site, name, logged)


@dataclass(frozen=True)
class SolveStats:
    """What the metrics need of a solve once its round is checked."""

    seconds: float
    sweeps: int
    converged: bool
    log_contraction: float  # log(final / initial residual), 0 without sweeps

    @classmethod
    def of(cls, rec: SolveRecord) -> "SolveStats":
        hist = rec.report.residual_history
        ratio = hist[-1] / hist[0] if rec.report.iterations and hist[0] > 0.0 else 1.0
        return cls(rec.seconds, rec.report.iterations, rec.report.converged, math.log(ratio))


@dataclass
class Round:
    """One timed round: a fixed set of samples, then its checks (untimed)."""

    samples: int
    seconds: float
    traced: bool
    solves: list = dc_field(default_factory=list)
    passes: list = dc_field(default_factory=list)
    exit_code: int = 0
    op_failed: list = dc_field(default_factory=list)  # one flag per operation
    errors: list = dc_field(default_factory=list)
    final_dofs: list = dc_field(default_factory=list)
    bytes_written: int = 0
    digests: tuple = ()  # first round only: per-operation and output digests
    stats: list = dc_field(default_factory=list)  # SolveStats, once checked


def check_iterate(hier, masks, diffusion, f_images, values, target: float) -> list[str]:
    """Compare a converged iterate against `reference_solve`.

    The stacked system is assembled globally (`assemble_global`).  The
    iterate's residual must be within `target` (tol times the norm of the
    right-hand side it was solved for) plus the round-off of forming it, and
    its A-norm distance to the direct solution within the bound that residual
    implies: sqrt(lambda_max / lambda_min+) * ||r - r_ref|| / ||b - r_ref||,
    relative to the solution's A-norm.
    """
    matrix, _ = assemble_global(hier, masks, diffusion)
    b = solver.stack_vector(f_images, masks)
    x = solver.stack_vector(values, masks)
    if b.size == 0:
        return []
    r = b - matrix @ x
    row_nnz = int(np.diff(matrix.indptr).max())
    roundoff = 2.0 * (row_nnz + 2) * np.finfo(float).eps * np.linalg.norm(
        np.abs(b) + abs(matrix) @ np.abs(x)
    )
    errors = []
    if np.linalg.norm(r) > target + roundoff:
        errors.append(f"residual {np.linalg.norm(r):.3e} exceeds {target:.3e}")
    ref = solver.reference_solve(masks, diffusion, RhsField(hier, f_images))
    x_ref = solver.stack_vector(ref.values, masks)
    r_ref = b - matrix @ x_ref
    eig = np.linalg.eigvalsh(matrix.toarray())
    lam_max = float(eig[-1])
    lam_min = float(eig[eig > 1e-10 * lam_max][0])
    e = x - x_ref
    err = math.sqrt(max(float(e @ (matrix @ e)), 0.0))
    scale = math.sqrt(max(float(x_ref @ (matrix @ x_ref)), 0.0))
    bound = math.sqrt(lam_max / lam_min) * np.linalg.norm(r - r_ref) / np.linalg.norm(b - r_ref)
    if err > (bound * (1.0 + 1e-6) + 1e-13) * scale:
        errors.append(f"energy error {err / scale:.3e} vs reference_solve exceeds {bound:.3e}")
    return errors


def check_solves(rnd: Round, tol: float) -> None:
    """One operation per logged solve: a capped one fails, a converged one is checked."""
    for rec in rnd.solves:
        errs = []
        if rec.report.converged:
            masks = rec.u.masks
            target = tol * float(np.linalg.norm(solver.stack_vector(rec.f.images, masks)))
            errs = check_iterate(rec.u.hierarchy, masks, rec.diffusion, rec.f.images, rec.u.values, target)
        rnd.op_failed.append(not rec.report.converged or bool(errs))
        rnd.errors.extend(errs)


def digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def solve_digests(rnd: Round) -> list[bytes]:
    return [
        digest(*rec.u.values, np.array([rec.report.iterations, rec.report.converged]))
        for rec in rnd.solves
    ]


def files_digest(paths) -> bytes:
    return digest(*(np.frombuffer(p.read_bytes(), dtype=np.uint8) for p in sorted(paths)))


def same_bits(loaded: np.ndarray, want: np.ndarray) -> bool:
    want = np.ascontiguousarray(want).astype(loaded.dtype)
    return loaded.shape == want.shape and loaded.tobytes() == want.tobytes()


class CliWorkload:
    """Common part of the two workloads that run an `afem` subcommand."""

    name = ""
    samples = 0

    def __init__(self, seed: int):
        # seed does not enter: see the note at DATASET_SAMPLES.
        self.out = OUT / self.name
        self.cfg = cli.parse_config(
            {"sampling": {"seed": 0, "count": self.samples}, "output": str(self.out)}
        )
        self.hier = build_hierarchy(self.cfg.coarse_nodes_per_side, self.cfg.levels)
        self.ys = [problems.SampleRng(0).sample_generator(i).random(2) for i in range(self.samples)]
        self.log = SolveLog()
        self.log.install()

    def command(self, cfg, out) -> int:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One sample outside every measurement: lazy imports and first calls."""
        cfg = replace(self.cfg, count=1)
        self.command(cfg, OUT / f"{self.name}-warm-up")
        self.log.clear()

    def run_round(self, traced: bool) -> Round:
        shutil.rmtree(self.out, ignore_errors=True)
        self.log.clear()
        t0 = time.perf_counter()
        code = self.command(self.cfg, self.out)
        rnd = Round(self.samples, time.perf_counter() - t0, traced, solves=list(self.log))
        rnd.exit_code = code
        return rnd

    def op_digests(self, rnd: Round) -> list[bytes]:
        return solve_digests(rnd)


class Dataset(CliWorkload):
    name = "dataset"
    samples = DATASET_SAMPLES

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bank_vector, _ = convnet.flatten_bank(convnet.build_stencil_bank(self.hier))

    def command(self, cfg, out) -> int:
        return cli.cmd_gen_dataset(cfg, out, 1)

    def output_digest(self) -> bytes:
        return files_digest(self.out.iterdir())

    def check(self, rnd: Round) -> None:
        cfg, hier = self.cfg, self.hier
        check_solves(rnd, cfg.tol)
        if rnd.exit_code != 0:
            rnd.errors.append(f"gen-dataset exited with {rnd.exit_code}")
        per = cfg.iterations
        if len(rnd.solves) != per * self.samples:
            rnd.errors.append(f"{len(rnd.solves)} solves, expected {per * self.samples}")
            return
        ds = cli.MlfdDataset(self.out)
        rnd.bytes_written = sum(p.stat().st_size for p in self.out.iterdir())
        want = {"kernel_bank": self.bank_vector}
        f_values = problems.load_image(cfg.problem, hier)
        rhs = problems.problem_rhs(cfg.problem, hier)
        for i, y in enumerate(self.ys):
            recs = rnd.solves[i * per : (i + 1) * per]
            kappa = problems.discretize_kappa(cfg.problem, y, hier)
            diffusion = compute_upsilon(hier, kappa)
            # afem's update u += v, replayed in the same order of additions
            values = [np.zeros((hier.n(k), hier.n(k))) for k in range(hier.levels)]
            for rec in recs:
                values = [values[k] + rec.u.values[k] for k in range(hier.levels)]
            masks = recs[-1].u.masks
            u = field.MultilevelField(hier, values, masks)
            est = estimate(u, f_values, diffusion, masks)
            leaves = leaf_triangle_masks(hier, masks)
            tag = f"sample{i:05d}"
            want[f"{tag}_kappa"] = kappa
            want[f"{tag}_f"] = f_values
            for k in range(hier.levels):
                want[f"{tag}_level{k}_u"] = values[k]
                want[f"{tag}_level{k}_eta2"] = est.eta2[k]
                want[f"{tag}_level{k}_mask"] = masks[k].active
                eta2 = ds.load(f"{tag}_level{k}_eta2")
                if (eta2 < 0.0).any() or (eta2 * (1 - leaves[k])).any():
                    rnd.errors.append(f"{tag} level {k}: eta2 negative or nonzero off the leaves")
            rnd.final_dofs.append(u.dof_count())
            if recs[-1].report.converged:
                target = cfg.tol * float(np.linalg.norm(solver.stack_vector(recs[-1].f.images, masks)))
                rnd.errors.extend(
                    f"{tag} final iterate: {e}"
                    for e in check_iterate(hier, masks, diffusion, rhs.images, values, target)
                )
        if sorted(ds.names()) != sorted(want):
            rnd.errors.append("dataset array names differ from the expected set")
        for name, array in want.items():
            if name in ds.entries and not same_bits(ds.load(name), array):
                rnd.errors.append(f"{name} does not reload bit for bit")


class UqStudy(CliWorkload):
    name = "uq-study"
    samples = STUDY_SAMPLES

    def command(self, cfg, out) -> int:
        return cli.cmd_convstudy(cfg, out, 1)

    def output_digest(self) -> bytes:
        return files_digest([self.out / "convstudy.csv"])

    def check(self, rnd: Round) -> None:
        cfg, hier = self.cfg, self.hier
        check_solves(rnd, cfg.tol)
        if rnd.exit_code != 0:
            rnd.errors.append(f"convstudy exited with {rnd.exit_code}")
        per = cfg.iterations + cfg.levels
        if len(rnd.solves) != per * self.samples:
            rnd.errors.append(f"{len(rnd.solves)} solves, expected {per * self.samples}")
            return
        uniform_dofs = np.cumsum([(hier.n(k) - 2) ** 2 for k in range(hier.levels)])
        for i in range(self.samples):
            recs = rnd.solves[i * per : (i + 1) * per]
            rnd.final_dofs.append(recs[cfg.iterations - 1].u.dof_count())
            for depth, rec in enumerate(recs[cfg.iterations :], start=1):
                if rec.u.levels != depth or rec.u.dof_count() != uniform_dofs[depth - 1]:
                    rnd.errors.append(f"sample {i}: uniform solve {depth} has the wrong space")
        lines = (self.out / "convstudy.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        col = {name: j for j, name in enumerate(header)}
        uniform = [row for row in rows if row[col["family"]] == "uniform"]
        if [float(row[col["dofs_mean"]]) for row in uniform] != [float(d) for d in uniform_dofs]:
            rnd.errors.append(f"uniform dofs {[row[col['dofs_mean']] for row in uniform]} != {uniform_dofs}")
        if len(rows) != cfg.iterations + cfg.levels:
            rnd.errors.append(f"convstudy.csv has {len(rows)} rows")
        for row in rows:
            for name in ("h1_rel_min", "h1_rel_max", "l2_rel_min", "l2_rel_max"):
                if not 0.0 < float(row[col[name]]) < 1.0:
                    rnd.errors.append(f"{row[0]} step {row[1]}: {name} = {row[col[name]]} not in (0, 1)")


@dataclass
class Stage:
    """One adaptive iteration of a forward pass, kept for the checks."""

    u_in: field.MultilevelField
    u_out: field.MultilevelField
    smoother: solver.SmootherConfig
    est: object
    deltas: list
    new_masks: list


class CnnForward:
    name = "cnn-forward"
    samples = CNN_SAMPLES

    def __init__(self, seed: int):
        self.problem = problems.CookieProblem()
        self.hier = build_hierarchy(5, 4)
        self.bank = convnet.build_stencil_bank(self.hier)
        self.rhs = problems.problem_rhs(self.problem, self.hier)
        self.f_values = problems.load_image(self.problem, self.hier)
        rng = problems.SampleRng(seed)
        self.diffusions = [
            compute_upsilon(
                self.hier,
                problems.discretize_kappa(self.problem, rng.sample_generator(i).random(2), self.hier),
            )
            for i in range(self.samples)
        ]

    def forward(self, diffusion) -> list[Stage]:
        """One forward pass of the unrolled network for one coefficient."""
        hier, bank = self.hier, self.bank
        masks = adapt.initial_masks(hier)
        u = field.zero_field(hier, masks)
        smoother = solver.choose_omega(diffusion, masks)
        stages = []
        for _ in range(CNN_ITERATIONS):
            state = convnet.init_llmg_state(bank, u, self.rhs, diffusion, smoother)
            for _ in range(CNN_SWEEPS):
                convnet.conv_llmg_sweep(state, bank)
            out = field.MultilevelField(hier, state.solution_images(), masks)
            est = convnet.conv_estimator(bank, field.flatten_to_finest(out), self.f_values, diffusion, masks)
            peak = max(float(e.max()) for e in est.eta2)
            deltas = [CNN_MARK_FRACTION * peak] * hier.levels
            new_masks = convnet.conv_mark_refine(bank, est, deltas, masks)
            stages.append(Stage(u, out, smoother, est, deltas, new_masks))
            masks = new_masks
            u = field.MultilevelField(hier, out.values, masks)
        return stages

    def warm_up(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.forward(self.diffusions[0])

    def run_round(self, traced: bool) -> Round:
        with warnings.catch_warnings():
            # deepest-level marks are dropped with a warning, as in afem
            warnings.simplefilter("ignore", RuntimeWarning)
            t0 = time.perf_counter()
            passes = [self.forward(d) for d in self.diffusions]
            seconds = time.perf_counter() - t0
        return Round(self.samples, seconds, traced, passes=passes)

    def op_digests(self, rnd: Round) -> list[bytes]:
        return [
            digest(*(a for s in stages for a in (
                *s.u_out.values, *s.est.eta2, *s.est.r2, *s.est.j2,
                *(m.active for m in s.new_masks), *(m.closure for m in s.new_masks))))
            for stages in rnd.passes
        ]

    def output_digest(self) -> bytes:
        return b""

    def check(self, rnd: Round) -> None:
        for i, (diffusion, stages) in enumerate(zip(self.diffusions, rnd.passes)):
            errs = []
            for it, stage in enumerate(stages):
                errs.extend(f"sample {i} iteration {it}: {e}" for e in self.check_stage(diffusion, stage))
            rnd.op_failed.append(bool(errs))
            rnd.errors.extend(errs)
            rnd.final_dofs.append(stages[-1].u_out.dof_count())

    def check_stage(self, diffusion, stage: Stage) -> list[str]:
        hier, masks = self.hier, stage.u_in.masks
        errors = []
        matrix, _ = assemble_global(hier, masks, diffusion)
        x_ref = solver.stack_vector(solver.reference_solve(masks, diffusion, self.rhs).values, masks)

        def energy_error(u) -> float:
            e = solver.stack_vector(u.values, masks) - x_ref
            return math.sqrt(max(float(e @ (matrix @ e)), 0.0))

        direct = stage.u_in.copy()
        energies = [energy_error(direct)]
        for _ in range(CNN_SWEEPS):
            solver.llmg_sweep(direct, self.rhs, diffusion, stage.smoother)
            energies.append(energy_error(direct))
        if not all(b < a for a, b in zip(energies, energies[1:])):
            errors.append("energy error does not fall at every sweep")
        scale = max(float(np.abs(v).max()) for v in direct.values)
        dev = max(float(np.abs(a - b).max()) for a, b in zip(stage.u_out.values, direct.values))
        if dev > 1e-10 * scale:
            errors.append(f"conv iterate deviates from llmg_sweep by {dev / scale:.2e} (limit 1e-10)")
        want = estimate(stage.u_out, self.f_values, diffusion, masks)
        peak = max(float(e.max()) for e in want.eta2)
        for name in ("eta2", "r2", "j2"):
            for got_k, want_k in zip(getattr(stage.est, name), getattr(want, name)):
                if float(np.abs(got_k - want_k).max()) > 1e-12 * peak:
                    errors.append(f"conv_estimator {name} differs from estimate")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            marked = adapt.refine(masks, adapt.mark_threshold(stage.est, stage.deltas), hier)
        if not all(
            np.array_equal(a.active, b.active) and np.array_equal(a.closure, b.closure)
            for a, b in zip(stage.new_masks, marked)
        ):
            errors.append("conv_mark_refine differs from refine(mark_threshold(...))")
        return errors


WORKLOADS = {"dataset": Dataset, "uq-study": UqStudy, "cnn-forward": CnnForward}


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to ready: interpreter, imports, config, hierarchy, inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def check_repeat(work, rnd: Round, first: Round) -> None:
    """A later round repeats the first round's inputs, so its outputs must
    match the first round's, which were checked in full, bit for bit."""
    ops, output = work.op_digests(rnd), work.output_digest()
    first_ops, first_output = first.digests
    same = [i < len(first_ops) and op == first_ops[i] for i, op in enumerate(ops)]
    rnd.op_failed = [not ok or first.op_failed[i] for i, ok in enumerate(same)]
    if not all(same) or len(ops) != len(first_ops) or output != first_output:
        rnd.errors.append("round outputs differ from the first round's")
    rnd.final_dofs, rnd.bytes_written = first.final_dofs, first.bytes_written


def run_rounds(work, seconds: float, tracer) -> list[Round]:
    """Whole rounds until `seconds` of timed work; traced runs alternate
    traced and untraced rounds so the tracing overhead is measured."""
    rounds: list[Round] = []
    need = 2 if tracer else 1
    while len(rounds) < need or sum(r.seconds for r in rounds) < seconds:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            rnd = work.run_round(traced)
        finally:
            if traced:
                tracer.remove()
        if rounds:
            check_repeat(work, rnd, rounds[0])
        else:
            work.check(rnd)
            rnd.digests = (work.op_digests(rnd), work.output_digest())
        # keep memory flat over the run: only summaries outlive the checks
        rnd.stats = [SolveStats.of(rec) for rec in rnd.solves]
        rnd.solves, rnd.passes = [], []
        rounds.append(rnd)
    return rounds


def median_rate(rounds: list[Round]) -> float:
    """Median over rounds of samples per second of timed work.

    The median, not the fastest round: the machine's speed moves in phases
    of tens of seconds (one fixed forward pass measured 0.24-0.48 s), and a
    short fast phase would decide the best round of a run.
    """
    return statistics.median(r.samples / r.seconds for r in rounds)


def end_to_end(rounds: list[Round], setup: float) -> dict:
    solves = [s for r in rounds for s in r.stats]
    if solves:
        sweeps = sum(s.sweeps for s in solves) / len(solves)
    else:
        sweeps = float(CNN_SWEEPS)
    return {
        "samples_per_s": (median_rate(rounds), "1/s"),
        "sweeps_per_solve": (sweeps, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup, "s"),
    }


def per_layer(rounds: list[Round], tracer) -> dict:
    """Per-layer metrics from the traced rounds, normalised per sample
    (counts and totals) or per call (the _us/_ms means)."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    samples = sum(r.samples for r in traced)
    solves = [s for r in traced for s in r.stats]
    calls, seconds = tracer.calls, tracer.seconds
    iterations = sum(s.sweeps for s in solves)
    log_ratio = sum(s.log_contraction for s in solves)
    final_dofs = [d for r in traced for d in r.final_dofs]
    m = {
        "problems.reference_s": (seconds["problems.reference"] / samples, "s"),
        "problems.reference_calls": (calls["problems.reference"] / samples, "count"),
        "solver.solve_s": (sum(s.seconds for s in solves) / samples, "s"),
        "solver.sweep_ms": (tracer.per_call("solver.sweep", 1e3), "ms"),
        "solver.sweeps": (iterations / samples, "count"),
        "solver.residual_ms": (tracer.per_call("solver.residual", 1e3), "ms"),
        "solver.residual_calls": (calls["solver.residual"] / samples, "count"),
        "solver.capped_solves": (sum(not s.converged for s in solves) / samples, "count"),
        "solver.residual_ratio": (math.exp(log_ratio / iterations) if iterations else 0.0, "ratio"),
    }
    for key in ("assembly.apply_A_level", "assembly.apply_A_level_transpose",
                "field.prolongate", "field.restrict_weighted"):
        m[f"{key}_us"] = (tracer.per_call(key, 1e6), "us")
        m[f"{key}_calls"] = (calls[key] / samples, "count")
    m["field.shift_calls"] = (calls["field.shift"] / samples, "count")
    m["estimator.estimate_ms"] = (tracer.per_call("estimator.estimate", 1e3), "ms")
    m["adapt.mark_ms"] = (tracer.per_call("adapt.mark", 1e3), "ms")
    m["adapt.refine_ms"] = (tracer.per_call("adapt.refine", 1e3), "ms")
    m["adapt.final_dofs"] = (statistics.fmean(final_dofs) if final_dofs else 0.0, "count")
    m["convnet.sweep_ms"] = (tracer.per_call("convnet.sweep", 1e3), "ms")
    m["convnet.conv_apply_us"] = (tracer.per_call("convnet.conv_apply", 1e6), "us")
    m["convnet.conv_apply_calls"] = (calls["convnet.conv_apply"] / samples, "count")
    m["convnet.estimator_ms"] = (tracer.per_call("convnet.estimator", 1e3), "ms")
    m["convnet.mark_refine_ms"] = (tracer.per_call("convnet.mark_refine", 1e3), "ms")
    m["cli.write_s"] = (seconds["cli.write"] / samples, "s")
    m["cli.bytes_written"] = (sum(r.bytes_written for r in traced) / samples, "B")
    m["cli.reload_s"] = (seconds["cli.reload"] / samples, "s")
    m["trace.overhead_pct"] = (100.0 * (median_rate(plain) / median_rate(traced) - 1.0), "%")
    m.update((name, (value, "us")) for name, value in layers.kernel_timings().items())
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = 0.0 if trace else statistics.median(
        setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)
    )
    work = WORKLOADS[workload](seed)
    work.warm_up()
    tracer = layers.Tracer() if trace else None
    rounds = run_rounds(work, seconds, tracer)
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"{workload}: check failed: {e}", file=sys.stderr)
    metrics = per_layer(rounds, tracer) if trace else end_to_end(rounds, setup)
    result = {
        "correct": not errors,
        "attempted": sum(len(r.op_failed) for r in rounds),
        "failed": sum(sum(r.op_failed) for r in rounds),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        dump = dict(result, workload=workload, seed=seed,
                    calls=tracer.calls, seconds=tracer.seconds,
                    rounds=[{"samples": r.samples, "seconds": r.seconds, "traced": r.traced}
                            for r in rounds])
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump, indent=1) + "\n")
    return result


def smoke(seed: int) -> int:
    """One round of every workload, untraced and traced, with all checks."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed, 0.0, trace)
            ok = ok and result["correct"]
            print(json.dumps({"workload": workload, "trace": int(trace), **result}), flush=True)
    print(json.dumps({"smoke": "pass" if ok else "FAIL", "seed": seed}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, untraced and traced")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
