"""Command-line front end: adaptive runs, refinement studies, verification, dataset export.

Configs are single JSON files with optional sections (problem, hierarchy,
solver, afem, sampling) plus an output path; unknown keys anywhere are
rejected so typos fail loudly instead of silently running defaults.

Datasets use a manifest-plus-raw-blobs layout (MLFD): manifest.json lists
every array with name, shape, dtype, level, and channel semantics, and each
array lives in its own headerless binary file, float64 little-endian
row-major (masks as uint8).  Any language can reload that bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adapt import MARKING_STRATEGIES, afem, initial_masks, mark_threshold, refine
from .assembly import apply_A_level, apply_A_level_transpose, compute_upsilon
from .convnet import (
    build_stencil_bank,
    conv_apply_A,
    conv_apply_A_transpose,
    conv_estimator,
    conv_mark_refine,
    conv_prolongate,
    conv_restrict,
    conv_translate,
    flatten_bank,
)
from .estimator import estimate
from .field import (
    empty_mask,
    flatten_to_finest,
    full_mask,
    make_mask,
    prolongate_uniform,
    restrict_uniform,
    uniform_masks,
    zero_field,
    zero_frame,
)
from .mesh import ConfigurationError, build_hierarchy
from .problems import (
    CookieProblem,
    SampleRng,
    discretize_kappa,
    load_image,
    overkill_reference,
    problem_rhs,
    relative_errors,
)
from .solver import choose_omega, llmg_solve

MLFD_FORMAT = "mlfd-1"

_DTYPES = {"float64": np.dtype("<f8"), "uint8": np.dtype("uint8")}

_SECTION_KEYS = {
    "problem": ("name", "base", "radius", "centers", "load"),
    "hierarchy": ("coarse_nodes_per_side", "levels"),
    "solver": ("tol", "max_sweeps"),
    "afem": ("iterations", "marking", "theta"),
    "sampling": ("seed", "count"),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings.  Every field has a default, so configs stay short."""

    problem: CookieProblem = CookieProblem()
    coarse_nodes_per_side: int = 5
    levels: int = 4
    tol: float = 1e-10
    max_sweeps: int = 200
    iterations: int = 3
    marking: str = "doerfler"
    theta: float = 0.1
    seed: int = 0
    count: int = 100
    out_dir: str = "afem-out"


def _reject_unknown(given: dict, allowed, where: str) -> None:
    extra = sorted(set(given) - set(allowed))
    if extra:
        raise ConfigurationError(f"unknown key {extra[0]!r} in {where}")


def _coerce(value, kind, where: str):
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        out = float(value)
        if not math.isfinite(out):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{where} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}"
        ) from None


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded config object and fill in defaults."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _reject_unknown(raw, tuple(_SECTION_KEYS) + ("output",), "config")
    sections = {}
    for name, keys in _SECTION_KEYS.items():
        sect = raw.get(name, {})
        if not isinstance(sect, dict):
            raise ConfigurationError(f"section {name!r} must be a JSON object")
        _reject_unknown(sect, keys, f"section {name!r}")
        sections[name] = sect

    prob = sections["problem"]
    if prob.get("name", "cookie") != "cookie":
        raise ConfigurationError(f"unknown problem {prob.get('name')!r}")
    base_problem = CookieProblem()
    centers = base_problem.centers
    if "centers" in prob:
        pairs = prob["centers"]
        try:
            if not all(isinstance(c, (list, tuple)) and len(c) == 2 for c in pairs):
                raise ValueError
            centers = tuple((float(x), float(y)) for x, y in pairs)
        except (TypeError, ValueError):
            raise ConfigurationError("problem.centers must be a list of [x, y] pairs") from None
        if not all(math.isfinite(v) for c in centers for v in c):
            raise ConfigurationError("problem.centers must be finite")
    problem = CookieProblem(
        base=_coerce(prob.get("base", base_problem.base), float, "problem.base"),
        centers=centers,
        radius=_coerce(prob.get("radius", base_problem.radius), float, "problem.radius"),
        load=_coerce(prob.get("load", base_problem.load), float, "problem.load"),
    )

    grid = sections["hierarchy"]
    solver = sections["solver"]
    loop = sections["afem"]
    sampling = sections["sampling"]
    out_dir = raw.get("output", RunConfig.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigurationError("output must be a string path")
    cfg = RunConfig(
        problem=problem,
        coarse_nodes_per_side=_coerce(
            grid.get("coarse_nodes_per_side", RunConfig.coarse_nodes_per_side),
            int,
            "hierarchy.coarse_nodes_per_side",
        ),
        levels=_coerce(grid.get("levels", RunConfig.levels), int, "hierarchy.levels"),
        tol=_coerce(solver.get("tol", RunConfig.tol), float, "solver.tol"),
        max_sweeps=_coerce(solver.get("max_sweeps", RunConfig.max_sweeps), int, "solver.max_sweeps"),
        iterations=_coerce(loop.get("iterations", RunConfig.iterations), int, "afem.iterations"),
        marking=str(loop.get("marking", RunConfig.marking)),
        theta=_coerce(loop.get("theta", RunConfig.theta), float, "afem.theta"),
        seed=_coerce(sampling.get("seed", RunConfig.seed), int, "sampling.seed"),
        count=_coerce(sampling.get("count", RunConfig.count), int, "sampling.count"),
        out_dir=out_dir,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    build_hierarchy(cfg.coarse_nodes_per_side, cfg.levels)
    if not cfg.problem.base > 0.0:
        raise ConfigurationError("problem.base must be positive")
    if not cfg.problem.radius >= 0.0:
        raise ConfigurationError("problem.radius must be non-negative")
    if cfg.marking not in MARKING_STRATEGIES:
        raise ConfigurationError(
            f"afem.marking must be one of {MARKING_STRATEGIES}, got {cfg.marking!r}"
        )
    if not cfg.tol > 0.0:
        raise ConfigurationError("solver.tol must be positive")
    if cfg.max_sweeps < 1:
        raise ConfigurationError("solver.max_sweeps must be >= 1")
    if cfg.iterations < 1:
        raise ConfigurationError("afem.iterations must be >= 1")
    if not cfg.theta > 0.0:
        raise ConfigurationError("afem.theta must be positive")
    if cfg.marking == "doerfler" and not cfg.theta < 1.0:
        raise ConfigurationError("afem.theta must lie in (0, 1) for doerfler marking")
    if cfg.seed < 0:
        raise ConfigurationError("sampling.seed must be >= 0")
    if cfg.count < 1:
        raise ConfigurationError("sampling.count must be >= 1")


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def resolved_dict(cfg: RunConfig) -> dict:
    """The config with every default filled in, as plain JSON data."""
    return {
        "problem": {
            "name": "cookie",
            "base": cfg.problem.base,
            "centers": [list(c) for c in cfg.problem.centers],
            "radius": cfg.problem.radius,
            "load": cfg.problem.load,
        },
        "hierarchy": {
            "coarse_nodes_per_side": cfg.coarse_nodes_per_side,
            "levels": cfg.levels,
        },
        "solver": {"tol": cfg.tol, "max_sweeps": cfg.max_sweeps},
        "afem": {
            "iterations": cfg.iterations,
            "marking": cfg.marking,
            "theta": cfg.theta,
        },
        "sampling": {"seed": cfg.seed, "count": cfg.count},
        "output": cfg.out_dir,
    }


def config_hash(cfg: RunConfig) -> str:
    """sha256 over the resolved settings, output path excluded.

    Moving a run's output directory must not change what the run produces,
    so the hash covers only the knobs that shape the data.
    """
    body = resolved_dict(cfg)
    body.pop("output")
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class MlfdWriter:
    """Streams arrays into a dataset directory; manifest written on close."""

    def __init__(self, root, cfg_hash: str, seed: int):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.entries: list[dict] = []
        self.header = {"format": MLFD_FORMAT, "config_hash": cfg_hash, "seed": seed}

    def add(self, name: str, array, channels: str, level: int | None = None) -> None:
        arr = np.ascontiguousarray(array)
        if channels == "mask":
            arr = arr.astype(np.uint8)
            dtype = "uint8"
        else:
            arr = arr.astype("<f8")
            dtype = "float64"
        fname = name + ".bin"
        with open(self.root / fname, "wb") as fh:
            fh.write(arr.tobytes(order="C"))
        self.entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": dtype,
                "level": level,
                "channels": channels,
                "file": fname,
            }
        )

    def close(self) -> None:
        manifest = dict(self.header)
        manifest["arrays"] = self.entries
        text = json.dumps(manifest, indent=2)
        (self.root / "manifest.json").write_text(text + "\n", encoding="utf-8")


class MlfdDataset:
    """Read side.  Blob byte lengths are checked against the manifest on open."""

    def __init__(self, root):
        self.root = Path(root)
        try:
            manifest = json.loads((self.root / "manifest.json").read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigurationError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise ConfigurationError("manifest must be a JSON object")
        if manifest.get("format") != MLFD_FORMAT:
            raise ConfigurationError(
                f"not an mlfd dataset: format {manifest.get('format')!r}"
            )
        try:
            self.config_hash = manifest["config_hash"]
            self.seed = manifest["seed"]
            self.arrays = manifest["arrays"]
            if not isinstance(self.arrays, list) or not all(
                isinstance(e, dict) for e in self.arrays
            ):
                raise ConfigurationError("manifest arrays must be a list of objects")
            for e in self.arrays:
                name, fname, shape = e["name"], e["file"], e["shape"]
                if not all(isinstance(v, str) for v in (name, fname, e["dtype"])):
                    raise ConfigurationError(
                        f"array {name!r}: name, file and dtype must be strings"
                    )
                if fname in ("", ".", "..") or Path(fname).name != fname:
                    raise ConfigurationError(
                        f"array {name!r} file must be a bare file name, got {fname!r}"
                    )
                dtype = _DTYPES.get(e["dtype"])
                if dtype is None:
                    raise ConfigurationError(
                        f"unsupported dtype {e['dtype']!r} for array {name!r}"
                    )
                if not isinstance(shape, list) or not all(
                    type(d) is int and d >= 0 for d in shape
                ):
                    raise ConfigurationError(
                        f"array {name!r} shape must be a list of non-negative "
                        f"integers, got {shape!r}"
                    )
                expect = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                actual = (self.root / fname).stat().st_size
                if expect != actual:
                    raise ConfigurationError(
                        f"blob {fname} holds {actual} bytes, manifest says {expect}"
                    )
            self.entries = {e["name"]: e for e in self.arrays}
            if len(self.entries) != len(self.arrays):
                raise ConfigurationError("duplicate array names in manifest")
        except KeyError as exc:
            raise ConfigurationError(f"manifest lacks key {exc.args[0]!r}") from None

    def names(self) -> list[str]:
        return [e["name"] for e in self.arrays]

    def load(self, name: str) -> np.ndarray:
        e = self.entries[name]
        raw = (self.root / e["file"]).read_bytes()
        return np.frombuffer(raw, dtype=_DTYPES[e["dtype"]]).reshape(e["shape"]).copy()


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


AFEM_CSV_COLUMNS = [
    "iteration",
    "dofs",
    "eta2_total",
    "h1_rel_err",
    "l2_rel_err",
    "marked",
    "sweeps",
]


def _adaptive_sample(cfg: RunConfig, index: int, observer=None):
    """Draw the parameters of sample `index` and run the adaptive loop on them.

    One parameter per disc of the problem.  Saturated-depth warnings are
    silenced.  Returns (hierarchy, y, final field, report).
    """
    hier = build_hierarchy(cfg.coarse_nodes_per_side, cfg.levels)
    y = SampleRng(cfg.seed).sample_generator(index).random(len(cfg.problem.centers))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u, _, report = afem(
            cfg.problem,
            y,
            hier,
            cfg.iterations,
            marking=cfg.marking,
            theta=cfg.theta,
            tol=cfg.tol,
            max_sweeps=cfg.max_sweeps,
            observer=observer,
        )
    return hier, y, u, report


def cmd_afem(cfg: RunConfig, out_dir) -> int:
    """One adaptive run on the first sample: CSV report plus MLFD snapshots."""
    snapshots, iterates = [], []

    def observer(it, u, est, marks):
        iterates.append(u.copy())
        for k in range(cfg.levels):
            tag = f"iter{it:03d}_level{k}"
            snapshots.append((f"{tag}_u", np.array(u.values[k]), "u", k))
            snapshots.append((f"{tag}_eta2", np.array(est.eta2[k]), "eta2", k))
            snapshots.append((f"{tag}_mask", np.array(u.masks[k].active), "mask", k))

    hier, y, _, report = _adaptive_sample(cfg, 0, observer)
    ref_image, ref_hier = overkill_reference(cfg.problem, y, hier)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    writer = MlfdWriter(out / "snapshots", config_hash(cfg), cfg.seed)
    writer.add("kappa", discretize_kappa(cfg.problem, y, hier), channels="kappa")
    writer.add("f", load_image(cfg.problem, hier), channels="f")
    for name, array, channels, k in snapshots:
        writer.add(name, array, channels=channels, level=k)
    writer.close()
    rows = [
        (
            it,
            report.dofs[it],
            report.eta2_total[it],
            *relative_errors(iterates[it], ref_image, ref_hier),
            report.marked[it],
            report.sweeps[it],
        )
        for it in range(report.iterations)
    ]
    write_csv(out / "afem.csv", AFEM_CSV_COLUMNS, rows)
    if not report.converged:
        print("solver hit the sweep limit on at least one iteration", file=sys.stderr)
        return 1
    return 0


def _study_sample(args):
    """Adaptive and uniform trajectories of one sample (worker body).

    Each is a (4, steps) table: dofs, relative H1 and L2 errors, and 1 where
    the step's solve stopped at max_sweeps.  Both families are measured
    against one overkill reference of the sample.
    """
    cfg, index = args
    iterates = []
    hier, y, _, report = _adaptive_sample(
        cfg, index, lambda it, u, est, marks: iterates.append(u.copy())
    )
    ref_image, ref_hier = overkill_reference(cfg.problem, y, hier)
    adaptive = np.array(
        [
            report.dofs,
            *zip(*(relative_errors(u, ref_image, ref_hier) for u in iterates)),
            [status == "max_sweeps" for status in report.solver_statuses],
        ],
        dtype=float,
    )

    uniform = np.empty((4, cfg.levels))
    for depth in range(1, cfg.levels + 1):
        sub = build_hierarchy(cfg.coarse_nodes_per_side, depth)
        masks = uniform_masks(sub)
        diffusion = compute_upsilon(sub, discretize_kappa(cfg.problem, y, sub))
        rhs = problem_rhs(cfg.problem, sub)
        smoother = choose_omega(diffusion, masks)
        u, solve_report = llmg_solve(
            zero_field(sub, masks),
            rhs,
            diffusion,
            smoother,
            tol=cfg.tol,
            max_sweeps=cfg.max_sweeps,
        )
        uniform[:, depth - 1] = (
            sum(int(m.active.sum()) for m in masks),
            *relative_errors(u, ref_image, ref_hier),
            solve_report.status == "max_sweeps",
        )
    return adaptive, uniform


CONVSTUDY_CSV_COLUMNS = [
    "family",
    "step",
    "dofs_mean",
    "h1_rel_mean",
    "h1_rel_min",
    "h1_rel_max",
    "l2_rel_mean",
    "l2_rel_min",
    "l2_rel_max",
    "capped",
]


def cmd_convstudy(cfg: RunConfig, out_dir, workers: int) -> int:
    """Adaptive vs uniform refinement over the sample set, one CSV row per step.

    `capped` counts the samples whose solve at that step stopped at
    max_sweeps; it is reported, not treated as a failure.
    """
    results = _map_samples(_study_sample, cfg, workers)
    adaptive = np.stack([r[0] for r in results])
    uniform = np.stack([r[1] for r in results])
    rows = []
    for family, table, steps in (
        ("adaptive", adaptive, cfg.iterations),
        ("uniform", uniform, cfg.levels),
    ):
        for step in range(steps):
            dofs, h1, l2, capped = table[:, :, step].T
            rows.append(
                (
                    family,
                    step,
                    float(dofs.mean()),
                    float(h1.mean()),
                    float(h1.min()),
                    float(h1.max()),
                    float(l2.mean()),
                    float(l2.min()),
                    float(l2.max()),
                    int(capped.sum()),
                )
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "convstudy.csv", CONVSTUDY_CSV_COLUMNS, rows)
    return 0


def _rel_dev(result: np.ndarray, oracle: np.ndarray) -> float:
    dev = float(np.max(np.abs(result - oracle))) if np.size(oracle) else 0.0
    scale = float(np.max(np.abs(oracle))) if np.size(oracle) else 0.0
    return dev / scale if scale > 0.0 else dev


def _verify_masks(hier, level: int, rng) -> list:
    """Random, empty, and full activity patterns for one level."""
    n = hier.n(level)
    act = np.zeros((n, n), dtype=np.uint8)
    act[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < 0.6
    return [make_mask(act), empty_mask(hier, level), full_mask(hier, level)]


def verify_rows(cfg: RunConfig) -> list[tuple[str, float]]:
    """Max deviation of each kernel family against its assembly-route twin.

    Three rows: the stiffness action and its transpose on random masks, the
    full-lattice transfer pair on random images, and the estimator plus
    marking/refinement cascade (the last contributes 1.0 when the refined
    masks differ anywhere).
    """
    hier, y, u_a, _ = _adaptive_sample(
        replace(cfg, iterations=2, marking="doerfler", theta=0.3), 0
    )
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(cfg.seed)
    diffusion = compute_upsilon(hier, discretize_kappa(cfg.problem, y, hier))

    worst_op = 0.0
    for k in range(hier.levels):
        n, h = hier.n(k), hier.h(k)
        ups = diffusion.upsilon[k]
        for mk in _verify_masks(hier, k, rng):
            act = mk.active
            v = rng.normal(size=(n, n)) * act
            stack = conv_translate(bank, v, act)
            worst_op = max(
                worst_op,
                _rel_dev(conv_apply_A(bank, stack, ups, h), act * apply_A_level(v, ups, h)),
                _rel_dev(
                    conv_apply_A_transpose(bank, v, ups, h),
                    apply_A_level_transpose(v, ups, h),
                ),
            )

    worst_tr = 0.0
    for k in range(hier.levels - 1):
        v = rng.normal(size=(hier.n(k),) * 2)
        w = rng.normal(size=(hier.n(k + 1),) * 2)
        worst_tr = max(
            worst_tr,
            _rel_dev(conv_prolongate(bank, v), prolongate_uniform(v)),
            _rel_dev(conv_restrict(bank, w), zero_frame(restrict_uniform(w))),
        )

    worst_est = 0.0
    f_values = load_image(cfg.problem, hier)
    zero_u = zero_field(hier, initial_masks(hier))
    for u in (zero_u, u_a):
        direct = estimate(u, f_values, diffusion, u.masks)
        conv = conv_estimator(bank, flatten_to_finest(u), f_values, diffusion, u.masks)
        for k in range(hier.levels):
            worst_est = max(
                worst_est,
                _rel_dev(conv.eta2[k], direct.eta2[k]),
                _rel_dev(conv.r2[k], direct.r2[k]),
                _rel_dev(conv.j2[k], direct.j2[k]),
            )
        peak = max((float(e.max()) for e in direct.eta2), default=0.0)
        if peak > 0.0:
            deltas = [0.1 * peak] * hier.levels
            marks = mark_threshold(direct, deltas)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                oracle_masks = refine(u.masks, marks, hier)
                conv_masks = conv_mark_refine(bank, direct, deltas, u.masks)
            same = all(
                np.array_equal(a.active, b.active)
                and np.array_equal(a.closure, b.closure)
                for a, b in zip(oracle_masks, conv_masks)
            )
            if not same:
                worst_est = max(worst_est, 1.0)

    return [
        ("operator", worst_op),
        ("prolong/restrict", worst_tr),
        ("estimator+mask", worst_est),
    ]


def cmd_verify(cfg: RunConfig, tolerance: float = 1e-10) -> int:
    """Print the conv-vs-oracle table; nonzero exit iff any row fails."""
    rows = verify_rows(cfg)
    width = max(len(name) for name, _ in rows)
    print(f"{'suite':<{width}}  {'max deviation':>14}  {'tolerance':>10}  status")
    failed = False
    for name, dev in rows:
        ok = dev <= tolerance
        failed = failed or not ok
        print(f"{name:<{width}}  {dev:>14.3e}  {tolerance:>10.0e}  {'pass' if ok else 'FAIL'}")
    return 1 if failed else 0


def _dataset_sample(args):
    """Final-iteration snapshot of one adaptive run (worker body)."""
    cfg, index = args
    final = {}

    def observer(it, u, est, marks):
        if it == cfg.iterations - 1:
            final["u"] = [np.array(v) for v in u.values]
            final["eta2"] = [np.array(e) for e in est.eta2]
            final["mask"] = [np.array(m.active) for m in u.masks]

    hier, y, _, _ = _adaptive_sample(cfg, index, observer)
    kappa = discretize_kappa(cfg.problem, y, hier)
    f_img = load_image(cfg.problem, hier)
    return kappa, f_img, final["u"], final["eta2"], final["mask"]


def cmd_gen_dataset(cfg: RunConfig, out_dir, workers: int) -> int:
    """Export N adaptive samples plus the kernel bank as one MLFD dataset."""
    results = _map_samples(_dataset_sample, cfg, workers)
    writer = MlfdWriter(Path(out_dir), config_hash(cfg), cfg.seed)
    for index, (kappa, f_img, us, etas, msks) in enumerate(results):
        tag = f"sample{index:05d}"
        writer.add(f"{tag}_kappa", kappa, channels="kappa")
        writer.add(f"{tag}_f", f_img, channels="f")
        for k in range(cfg.levels):
            writer.add(f"{tag}_level{k}_u", us[k], channels="u", level=k)
            writer.add(f"{tag}_level{k}_eta2", etas[k], channels="eta2", level=k)
            writer.add(f"{tag}_level{k}_mask", msks[k], channels="mask", level=k)
    hier = build_hierarchy(cfg.coarse_nodes_per_side, cfg.levels)
    vec, _ = flatten_bank(build_stencil_bank(hier))
    writer.add("kernel_bank", vec, channels="kernel-bank")
    writer.close()

    ds = MlfdDataset(Path(out_dir))
    kappa0 = results[0][0]
    if not (
        np.array_equal(ds.load("sample00000_kappa"), kappa0)
        and np.array_equal(ds.load("kernel_bank"), vec)
    ):
        print("dataset reload mismatch", file=sys.stderr)
        return 1
    return 0


def _map_samples(fn, cfg: RunConfig, workers: int) -> list:
    """Run fn over all sample indices; results come back in index order."""
    args = [(cfg, i) for i in range(cfg.count)]
    if workers <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=1))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afem",
        description="Adaptive multilevel FEM runs, studies, and dataset export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "one adaptive run: CSV report plus per-iteration MLFD snapshots",
        "convstudy": "adaptive vs uniform error study over the sample set",
        "verify": "check every conv kernel against its assembly-route twin",
        "gen-dataset": "export adaptively refined samples as an MLFD dataset",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config path; defaults apply when omitted")
        if name in ("convstudy", "gen-dataset"):
            sp.add_argument(
                "--workers",
                type=int,
                help="parallel sample workers, at least 1 (default: AFEM_WORKERS or 1)",
            )
        sp.add_argument("--seed", type=int, help="override sampling.seed")
        if name != "verify":
            sp.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # verify writes nothing and runs one sample: it takes neither --out nor --workers
        if getattr(args, "out", None) is not None:
            cfg = replace(cfg, out_dir=args.out)
        validate_config(cfg)
        workers = getattr(args, "workers", 1)
        if workers is None:
            workers = int(os.environ.get("AFEM_WORKERS", "1"))
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_afem(cfg, cfg.out_dir)
        if args.command == "convstudy":
            return cmd_convstudy(cfg, cfg.out_dir, workers)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_gen_dataset(cfg, cfg.out_dir, workers)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
