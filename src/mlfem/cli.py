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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adapt import MARKING_STRATEGIES, afem, initial_masks, mark_threshold, refine
from .assembly import apply_stencil, apply_stencil_transpose, assemble_rhs, compute_upsilon
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
    LevelMask,
    MultilevelField,
    empty_mask,
    flatten_to_finest,
    full_mask,
    prolongate_uniform,
    restrict_uniform,
    uniform_masks,
    zero_field,
    zero_frame,
)
from .mesh import MAX_NODES_PER_SIDE, ConfigurationError, build_hierarchy
from .problems import (
    CookieProblem,
    SampleRng,
    discretize_kappa,
    load_image,
    overkill_reference,
    reference_nodes_per_side,
    relative_errors,
)
from .solver import choose_omega, llmg_solve

MLFD_FORMAT = "mlfd-1"

_DTYPES = {"float64": np.dtype("<f8"), "uint8": np.dtype("uint8")}

# The scalar sections of a config, as key -> kind.  Every key is also the
# name of the RunConfig field it sets; the problem section is CookieProblem's.
_SCHEMA = {
    "hierarchy": {"coarse_nodes_per_side": int, "levels": int},
    "solver": {"tol": float, "max_sweeps": int},
    "afem": {"iterations": int, "marking": str, "theta": float},
    "sampling": {"seed": int, "count": int},
}
_PROBLEM_FIELDS = tuple(f.name for f in fields(CookieProblem))


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

    def __post_init__(self):
        """Reject settings no run can use, so no config (`dataclasses.replace`
        included) holds them."""
        n_ref = reference_nodes_per_side(build_hierarchy(self.coarse_nodes_per_side, self.levels))
        if n_ref > MAX_NODES_PER_SIDE:
            raise ConfigurationError(
                f"the overkill reference would have {n_ref} nodes per side, more than "
                f"{MAX_NODES_PER_SIDE}: lower hierarchy.levels or coarse_nodes_per_side"
            )
        if self.marking not in MARKING_STRATEGIES:
            raise ConfigurationError(
                f"afem.marking must be one of {MARKING_STRATEGIES}, got {self.marking!r}"
            )
        if not self.tol > 0.0:
            raise ConfigurationError("solver.tol must be positive")
        if self.max_sweeps < 1:
            raise ConfigurationError("solver.max_sweeps must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("afem.iterations must be >= 1")
        if not self.theta > 0.0:
            raise ConfigurationError("afem.theta must be positive")
        if self.marking == "doerfler" and not self.theta < 1.0:
            raise ConfigurationError("afem.theta must lie in (0, 1) for doerfler marking")
        if self.seed < 0:
            raise ConfigurationError("sampling.seed must be >= 0")
        if self.count < 1:
            raise ConfigurationError("sampling.count must be >= 1")


def _reject_unknown(given: dict, allowed, where: str) -> None:
    extra = sorted(set(given) - set(allowed))
    if extra:
        raise ConfigurationError(f"unknown key {extra[0]!r} in {where}")


def _coerce(value, kind, where: str):
    if kind is str:
        return str(value)
    try:
        # JSON numbers only, as in the problem section: no strings or booleans
        if isinstance(value, (bool, str)):
            raise ValueError
        if kind is int:
            if int(value) != value:
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
    _reject_unknown(raw, ("problem", *_SCHEMA, "output"), "config")
    sections = {}
    for name, keys in (("problem", ("name", *_PROBLEM_FIELDS)), *_SCHEMA.items()):
        sect = raw.get(name, {})
        if not isinstance(sect, dict):
            raise ConfigurationError(f"section {name!r} must be a JSON object")
        _reject_unknown(sect, keys, f"section {name!r}")
        sections[name] = sect

    prob = sections["problem"]
    if prob.get("name", "cookie") != "cookie":
        raise ConfigurationError(f"unknown problem {prob.get('name')!r}")
    problem = CookieProblem(**{key: prob[key] for key in _PROBLEM_FIELDS if key in prob})

    out_dir = raw.get("output", RunConfig.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigurationError("output must be a string path")
    values = {
        key: _coerce(sections[name].get(key, getattr(RunConfig, key)), kind, f"{name}.{key}")
        for name, kinds in _SCHEMA.items()
        for key, kind in kinds.items()
    }
    return RunConfig(problem=problem, out_dir=out_dir, **values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def resolved_dict(cfg: RunConfig) -> dict:
    """The config with every default filled in, as plain JSON data."""
    problem = {key: getattr(cfg.problem, key) for key in _PROBLEM_FIELDS}
    problem["centers"] = [list(c) for c in cfg.problem.centers]
    return {
        "problem": {"name": "cookie", **problem},
        **{name: {key: getattr(cfg, key) for key in kinds} for name, kinds in _SCHEMA.items()},
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
                expect = math.prod(shape) * dtype.itemsize
                if not (self.root / fname).is_file():
                    raise ConfigurationError(f"array {name!r}: blob {fname} does not exist")
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


def _adaptive_sample(cfg: RunConfig, index: int):
    """Draw sample `index`'s parameters, derive its data, and run the adaptive loop.

    One parameter per disc of the problem.  The data (coefficient channels,
    finest load image) are derived here once, for every caller.  Saturated-depth
    warnings are silenced.  Returns (y, diffusion, f_values, steps), with one
    `AfemStep` per pass.
    """
    hier = build_hierarchy(cfg.coarse_nodes_per_side, cfg.levels)
    y = SampleRng(cfg.seed).sample_generator(index).random(len(cfg.problem.centers))
    diffusion = compute_upsilon(hier, discretize_kappa(cfg.problem, y, hier))
    f_values = load_image(cfg.problem, hier)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        steps = afem(
            diffusion,
            f_values,
            cfg.iterations,
            marking=cfg.marking,
            theta=cfg.theta,
            tol=cfg.tol,
            max_sweeps=cfg.max_sweeps,
        )
    return y, diffusion, f_values, steps


def _add_levels(writer: MlfdWriter, tag: str, values, eta2, masks) -> None:
    """Write one pass's per-level iterate, indicator and active-set images."""
    for k, (u_k, eta2_k, mask) in enumerate(zip(values, eta2, masks)):
        writer.add(f"{tag}_level{k}_u", u_k, channels="u", level=k)
        writer.add(f"{tag}_level{k}_eta2", eta2_k, channels="eta2", level=k)
        writer.add(f"{tag}_level{k}_mask", mask.active, channels="mask", level=k)


def cmd_afem(cfg: RunConfig, out_dir) -> int:
    """One adaptive run on the first sample: CSV report plus MLFD snapshots."""
    y, diffusion, f_values, steps = _adaptive_sample(cfg, 0)
    ref_image, ref_hier = overkill_reference(cfg.problem, y, diffusion.hierarchy)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    writer = MlfdWriter(out / "snapshots", config_hash(cfg), cfg.seed)
    writer.add("kappa", diffusion.kappa, channels="kappa")
    writer.add("f", f_values, channels="f")
    for it, step in enumerate(steps):
        _add_levels(writer, f"iter{it:03d}", step.u.values, step.est.eta2, step.u.masks)
    writer.close()
    rows = [
        (
            it,
            step.u.dof_count(),
            step.est.total(),
            *relative_errors(step.u, ref_image, ref_hier),
            sum(int(m.sum()) for m in step.marks),
            step.solve.iterations,
        )
        for it, step in enumerate(steps)
    ]
    write_csv(out / "afem.csv", AFEM_CSV_COLUMNS, rows)
    if not all(step.solve.converged for step in steps):
        print("solver hit the sweep limit on at least one iteration", file=sys.stderr)
        return 1
    return 0


def _study_sample(args):
    """Adaptive and uniform trajectories of one sample (worker body).

    Each is a (4, steps) table: dofs, relative H1 and L2 errors, and 1 where
    the step's solve stopped at max_sweeps.  Both families are measured
    against one overkill reference of the sample.  A uniform hierarchy of
    depth d reads the sample's kappa and load at every s-th finest node,
    s = 2^(levels - d): its finest lattice is exactly those nodes.
    """
    cfg, index = args
    y, diffusion, f_values, steps = _adaptive_sample(cfg, index)
    ref_image, ref_hier = overkill_reference(cfg.problem, y, diffusion.hierarchy)
    adaptive = np.array(
        [
            [step.u.dof_count() for step in steps],
            *zip(*(relative_errors(step.u, ref_image, ref_hier) for step in steps)),
            [step.solve.status == "max_sweeps" for step in steps],
        ],
        dtype=float,
    )

    uniform = np.empty((4, cfg.levels))
    for depth in range(1, cfg.levels + 1):
        sub = build_hierarchy(cfg.coarse_nodes_per_side, depth)
        s = 2 ** (cfg.levels - depth)
        masks = uniform_masks(sub)
        sub_diffusion = compute_upsilon(sub, diffusion.kappa[::s, ::s])
        smoother = choose_omega(sub_diffusion, masks)
        u, solve_report = llmg_solve(
            zero_field(sub, masks),
            assemble_rhs(sub, f_values[::s, ::s]),
            sub_diffusion,
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
    return [LevelMask(act), empty_mask(hier, level), full_mask(hier, level)]


def verify_rows(cfg: RunConfig) -> list[tuple[str, float]]:
    """Max deviation of each kernel family against its assembly-route twin.

    Three rows: the stiffness action and its transpose on random masks, the
    full-lattice transfer pair on random images, and the estimator plus
    marking/refinement cascade (the last contributes 1.0 when the refined
    masks differ anywhere).
    """
    _, diffusion, f_values, steps = _adaptive_sample(
        replace(cfg, iterations=2, marking="doerfler", theta=0.3), 0
    )
    hier = diffusion.hierarchy
    # the last pass's iterate on the masks its marks refine: a field with
    # freshly activated zero nodes
    last = steps[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u_a = MultilevelField(hier, last.u.values, refine(last.u.masks, last.marks, hier))
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(cfg.seed)

    worst_op = 0.0
    for k in range(hier.levels):
        n, h = hier.n(k), hier.h(k)
        ups, weights = diffusion.upsilon[k], diffusion.stencil(k)
        for mk in _verify_masks(hier, k, rng):
            act = mk.active
            v = rng.normal(size=(n, n)) * act
            stack = conv_translate(bank, v, act)
            worst_op = max(
                worst_op,
                _rel_dev(conv_apply_A(bank, stack, ups, h), act * apply_stencil(v, weights, h)),
                _rel_dev(
                    conv_apply_A_transpose(bank, v, ups, h),
                    apply_stencil_transpose(v, weights, h),
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
            if any((a.active != b.active).any() for a, b in zip(oracle_masks, conv_masks)):
                worst_est = max(worst_est, 1.0)

    return [
        ("operator", worst_op),
        ("prolong/restrict", worst_tr),
        ("estimator+mask", worst_est),
    ]


def cmd_verify(cfg: RunConfig) -> int:
    """Print the conv-vs-oracle table; nonzero exit iff any row fails."""
    tolerance = 1e-10
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
    """Kappa, load, and the final pass's iterate, indicator and masks of one
    sample (worker body): only what the export writes goes back to the pool."""
    cfg, index = args
    _, diffusion, f_values, steps = _adaptive_sample(cfg, index)
    last = steps[-1]
    return diffusion.kappa, f_values, last.u.values, last.est.eta2, last.u.masks


def cmd_gen_dataset(cfg: RunConfig, out_dir, workers: int) -> int:
    """Export N adaptive samples plus the kernel bank as one MLFD dataset."""
    results = _map_samples(_dataset_sample, cfg, workers)
    writer = MlfdWriter(Path(out_dir), config_hash(cfg), cfg.seed)
    for index, (kappa, f_img, *levels) in enumerate(results):
        tag = f"sample{index:05d}"
        writer.add(f"{tag}_kappa", kappa, channels="kappa")
        writer.add(f"{tag}_f", f_img, channels="f")
        _add_levels(writer, tag, *levels)
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
