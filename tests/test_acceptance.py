"""End-to-end acceptance checks for the multilevel adaptive engine.

Every test prints one summary line, PASS or FAIL, with the measured numbers
next to the pinned limits, so a plain ``pytest -v tests/test_acceptance.py``
doubles as an acceptance report.  The assertions use exactly the printed
limits; nothing is loosened on failure.
"""

import json
import time
import warnings

import numpy as np

from oracles import (
    contraction_ratios,
    energy_seminorm,
    power_lambda_max,
    random_field,
    random_mask,
    random_masks,
    reliability_efficiency,
    sample_parameters,
    solve_energy_history,
    triangle_estimator,
)

from mlfem.adapt import afem, mark_threshold, refine
from mlfem.assembly import (
    apply_A_level,
    apply_A_level_transpose,
    apply_stacked,
    assemble_global,
    assemble_rhs,
    compute_upsilon,
    h1_seminorm,
)
from mlfem.cli import main
from mlfem.convnet import (
    build_stencil_bank,
    conv_apply,
    conv_apply_A,
    conv_apply_A_transpose,
    conv_estimator,
    conv_llmg_sweep,
    conv_mark_refine,
    conv_prolongate,
    conv_restrict,
    conv_translate,
    init_llmg_state,
    parameter_count,
)
from mlfem.estimator import aggregate_to_level, estimate
from mlfem.field import (
    LevelMask,
    MultilevelField,
    prolongate_uniform,
    restrict_uniform,
    uniform_masks,
    zero_field,
    zero_frame,
)
from mlfem.mesh import build_hierarchy
from mlfem.problems import (
    CookieProblem,
    SampleRng,
    discretize_kappa,
    load_image,
    overkill_reference,
    problem_rhs,
    reference_error,
    relative_errors,
)
from mlfem.solver import (
    SmootherConfig,
    choose_omega,
    llmg_solve,
    llmg_sweep,
    reference_solve,
    stack_vector,
)


def report(capsys, num, slug, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {slug}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def rel_dev(got, want):
    if want.size == 0:
        return 0.0
    dev = float(np.abs(got - want).max())
    scale = float(np.abs(want).max())
    return dev / scale if scale > 0.0 else dev


def masks_to_depth(hier, depth):
    """Uniformly refined composite masks: full interiors down to `depth` levels."""
    full = uniform_masks(hier)
    out = []
    for k in range(hier.levels):
        if k < depth:
            out.append(full[k])
        else:
            n = hier.n(k)
            out.append(LevelMask(np.zeros((n, n), dtype=np.uint8)))
    return out


def test_01_operator_equivalence(capsys):
    """Kernel operator, transpose, and transfers against the assembly oracles.

    50 random cases per level on a three-level hierarchy with coarse side 5:
    operator cases each with their own diffusion field and activity mask,
    transfer cases on random full-lattice images against `prolongate_uniform`
    and the frame-zeroed `restrict_uniform` of the stacked operator.  The
    relative max-norm deviation must stay within 1e-10 and the whole block
    within 10 seconds.
    """
    t0 = time.perf_counter()
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(101)
    nf = hier.n(hier.levels - 1)
    worst = 0.0
    cases = 0
    for k in range(hier.levels):
        n, h = hier.n(k), hier.h(k)
        for _ in range(50):
            diff = compute_upsilon(hier, rng.uniform(0.3, 3.0, size=(nf, nf)))
            ups = diff.upsilon[k]
            mask = random_mask(hier, k, rng)
            v = rng.normal(size=(n, n)) * mask.active
            got = conv_apply_A(bank, conv_translate(bank, v, mask.active), ups, h)
            want = mask.active * apply_A_level(v, ups, h)
            worst = max(worst, rel_dev(got, want))
            w = rng.normal(size=(n, n))
            got_t = conv_apply_A_transpose(bank, w, ups, h)
            want_t = apply_A_level_transpose(w, ups, h)
            worst = max(worst, rel_dev(got_t, want_t))
            cases += 2
        if k + 1 < hier.levels:
            for _ in range(50):
                coarse = rng.normal(size=(n, n))
                fine = rng.normal(size=(hier.n(k + 1), hier.n(k + 1)))
                worst = max(
                    worst,
                    rel_dev(conv_prolongate(bank, coarse), prolongate_uniform(coarse)),
                    rel_dev(conv_restrict(bank, fine), zero_frame(restrict_uniform(fine))),
                )
                cases += 2
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(
        capsys, 1, "operator-equivalence", ok,
        f"max rel dev {worst:.2e} (limit 1e-10) over {cases} cases, {elapsed:.1f}s (limit 10s)",
    )


def test_02_sweep_equivalence(capsys):
    """The kernel sweep tracks the direct multigrid sweep state for state.

    Ten random problems, ten sweeps each; the two iterates must agree to
    1e-11 in max norm after every sweep, within 30 seconds overall.
    """
    t0 = time.perf_counter()
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(211)
    nf = hier.n(hier.levels - 1)
    worst = 0.0
    for _ in range(10):
        diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = random_masks(hier, rng)
        values = [
            rng.normal(size=(hier.n(k), hier.n(k))) * masks[k].active
            for k in range(hier.levels)
        ]
        u = MultilevelField(hier, [v.copy() for v in values], masks)
        sm = choose_omega(diff, masks)
        state = init_llmg_state(
            bank, MultilevelField(hier, [v.copy() for v in values], masks), rhs, diff, sm
        )
        for _sweep in range(10):
            conv_llmg_sweep(state, bank)
            llmg_sweep(u, rhs, diff, sm)
            for k in range(hier.levels):
                worst = max(
                    worst, float(np.abs(state.solution_images()[k] - u.values[k]).max())
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    report(
        capsys, 2, "sweep-equivalence", ok,
        f"max dev {worst:.2e} (limit 1e-11) over 10 cases x 10 sweeps, {elapsed:.1f}s (limit 30s)",
    )


def test_03_solver_convergence(capsys):
    """Monotone energy contraction to 1e-8 within 200 sweeps, depths 2 to 4.

    Richardson damping is fixed at 1.9 over the power-iteration estimate of
    each level's largest eigenvalue (oracles.power_lambda_max, padded by 1%);
    any factor below 2 keeps the smoother convergent, and this one contracts
    fast enough for the sweep budget.  The Gershgorin default also contracts
    monotonically on every sample but plateaus near 1e-6 at depth 4 inside
    200 sweeps.  The energy errors come from oracles.solve_energy_history,
    which runs llmg_solve's iteration.
    """
    prob = CookieProblem()
    samples = sample_parameters(SampleRng(7), 20)
    worst_rel = 0.0
    worst_c = 0.0
    monotone = True
    runs = 0
    for levels in (2, 3, 4):
        hier = build_hierarchy(5, levels)
        masks = uniform_masks(hier)
        f_vals = problem_rhs(prob, hier)
        for y in samples:
            diff = compute_upsilon(hier, discretize_kappa(prob, y, hier))
            u_ref = reference_solve(masks, diff, f_vals)
            denom = energy_seminorm(u_ref, diff)
            base = [1.0 / (power_lambda_max(diff, k) * 1.01) for k in range(levels)]
            sm = SmootherConfig(tuple(1.9 * w for w in base))
            _, _, hist = solve_energy_history(
                zero_field(hier, masks), f_vals, diff, sm, u_ref,
                tol=1e-12, max_sweeps=200,
            )
            for a, b in zip(hist, hist[1:]):
                if b > a * (1.0 + 1e-12):
                    monotone = False
            worst_rel = max(worst_rel, hist[-1] / denom)
            ratios = contraction_ratios(hist)
            if ratios:
                worst_c = max(worst_c, max(ratios))
            runs += 1
    ok = monotone and worst_rel <= 1e-8 and worst_c < 1.0
    mono_note = f"monotone in all {runs} runs" if monotone else "NON-monotone history found"
    report(
        capsys, 3, "solver-convergence", ok,
        f"worst rel energy err {worst_rel:.2e} (limit 1e-8), worst contraction "
        f"{worst_c:.3f} (<1), {mono_note}",
    )


def test_04_stacked_identity(capsys):
    """Levelwise actions with carried terms equal the assembled block system."""
    hier = build_hierarchy(5, 3)
    rng = np.random.default_rng(401)
    nf = hier.n(hier.levels - 1)
    worst = 0.0
    for _ in range(20):
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
        masks = random_masks(hier, rng)
        u = random_field(hier, masks, rng)
        mat, _ = assemble_global(hier, masks, diff)
        want = mat @ stack_vector(u.values, masks)
        got = stack_vector(apply_stacked(u, diff), masks)
        worst = max(worst, rel_dev(got, np.asarray(want)))
    ok = worst <= 1e-11
    report(
        capsys, 4, "stacked-identity", ok,
        f"max rel dev {worst:.2e} (limit 1e-11) over 20 random fields and masks",
    )


def test_05_estimator_exactness(capsys):
    """Both estimator routes match degree-4 quadrature; aggregation is exact.

    Per-triangle residual and jump numbers are compared against an
    independent subdivided-quadrature oracle for a rough random diffusion
    and for the two-disc coefficient; constant fields must aggregate to the
    exact parent constants 16 (residual) and 8 (jump).
    """
    hier = build_hierarchy(3, 2)
    bank = build_stencil_bank(hier)
    nf, hf = hier.n(1), hier.h(1)
    rng = np.random.default_rng(503)
    prob = CookieProblem()
    worst = 0.0
    ntri = 0
    kappas = (
        rng.uniform(0.5, 2.0, size=(nf, nf)),
        discretize_kappa(prob, (0.35, 0.8), hier),
    )
    for kap in kappas:
        f_img = rng.normal(size=(nf, nf))
        u_img = rng.normal(size=(nf, nf))
        u_img[0, :] = u_img[-1, :] = u_img[:, 0] = u_img[:, -1] = 0.0
        diff = compute_upsilon(hier, kap)
        masks = uniform_masks(hier)
        vals = [np.zeros((hier.n(k), hier.n(k))) for k in range(hier.levels)]
        vals[-1] = u_img * masks[-1].active
        u = MultilevelField(hier, vals, masks)
        est = estimate(u, f_img, diff, masks)
        conv_est = conv_estimator(bank, vals[-1], f_img, diff, masks)
        for q in (1, 2):
            for a in range(nf - 1):
                for b in range(nf - 1):
                    r2, j2 = triangle_estimator(u_img, kap, f_img, hf, q, (a, b), hf, 0)
                    for field in (est, conv_est):
                        gr = field.r2[1][q - 1, a, b]
                        gj = field.j2[1][q - 1, a, b]
                        worst = max(worst, abs(gr - r2) / max(abs(r2), 1e-14))
                        worst = max(worst, abs(gj - j2) / max(abs(j2), 1e-14))
                    ntri += 1
    ones = np.ones((2, 9, 9))
    r_dir, j_dir = aggregate_to_level(ones, ones)
    agg_bank = build_stencil_bank(build_hierarchy(5, 2))
    r_conv = conv_apply(agg_bank.aggregate_r2, ones)
    j_conv = conv_apply(agg_bank.aggregate_j2, ones)
    exact = (
        np.array_equal(r_dir[:, :4, :4], np.full((2, 4, 4), 16.0))
        and np.array_equal(j_dir[:, :4, :4], np.full((2, 4, 4), 8.0))
        and np.array_equal(r_conv[:, :4, :4], np.full((2, 4, 4), 16.0))
        and np.array_equal(j_conv[:, :4, :4], np.full((2, 4, 4), 8.0))
    )
    ok = worst <= 1e-10 and exact
    report(
        capsys, 5, "estimator-exactness", ok,
        f"max rel dev {worst:.2e} (limit 1e-10) over {ntri} triangles x 2 routes; "
        f"constant aggregation exact 16/8: {exact}",
    )


def test_06_reliability_efficiency(capsys):
    """Stable reliability constant and matching decay across uniform depths.

    For 20 coefficient samples solved exactly on uniform depths 1 to 3, the
    ratio of squared energy error to total squared indicator may vary by at
    most 3x across depths per sample, and the indicator total must decay at
    the squared-error rate within a factor of 2 between consecutive depths.
    """
    prob = CookieProblem()
    samples = sample_parameters(SampleRng(11), 20)
    worst_spread = 0.0
    mis_lo, mis_hi = np.inf, 0.0
    for y in samples:
        ref_img, ref_hier = overkill_reference(prob, y, build_hierarchy(5, 3))
        ref_diff = compute_upsilon(ref_hier, discretize_kappa(prob, y, ref_hier))
        crels, eta2s, errs = [], [], []
        for depth in (1, 2, 3):
            sub = build_hierarchy(5, depth)
            masks = uniform_masks(sub)
            diff = compute_upsilon(sub, discretize_kappa(prob, y, sub))
            u = reference_solve(masks, diff, problem_rhs(prob, sub))
            f_vals = load_image(prob, sub)
            est = estimate(u, f_vals, diff, masks)
            rep = reliability_efficiency(u, f_vals, diff, masks, ref_img, ref_diff)
            crels.append(rep.c_rel)
            eta2s.append(est.total())
            errs.append(h1_seminorm(reference_error(u, ref_img)))
        worst_spread = max(worst_spread, max(crels) / min(crels))
        for d in range(2):
            mis = (eta2s[d] / eta2s[d + 1]) / (errs[d] ** 2 / errs[d + 1] ** 2)
            mis_lo = min(mis_lo, mis)
            mis_hi = max(mis_hi, mis)
    ok = worst_spread <= 3.0 and mis_lo >= 0.5 and mis_hi <= 2.0
    report(
        capsys, 6, "reliability-efficiency", ok,
        f"worst c_rel spread {worst_spread:.2f}x (limit 3x), decay mismatch in "
        f"[{mis_lo:.2f}, {mis_hi:.2f}] (limit [0.50, 2.00]), 20 samples x depths 1-3",
    )


def test_07_adaptive_advantage(capsys):
    """Adaptive refinement beats uniform at matched error; monotone metrics.

    100 samples, bulk marking with theta 0.1, three adaptive iterations on a
    four-level hierarchy with coarse side 5.  The uniform family activates
    the same hierarchy's levels in full, one more per step, so both families
    share the diffusion resolution.  Checks: at every mean error level both
    families reach, adaptive mean dofs <= uniform mean dofs; per sample,
    dof counts non-decreasing AND total squared indicator strictly
    decreasing in at least 95 of 100 samples; single-threaded under 600 s.
    """
    t0 = time.perf_counter()
    prob = CookieProblem()
    hier = build_hierarchy(5, 4)
    samples = sample_parameters(SampleRng(0), 100)
    f_values = load_image(prob, hier)
    ad_dofs, ad_err, un_dofs, un_err = [], [], [], []
    mono_ok = 0
    for y in samples:
        diff = compute_upsilon(hier, discretize_kappa(prob, y, hier))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            steps = afem(diff, f_values, 3, marking="doerfler", theta=0.1)
        ref_img, ref_hier = overkill_reference(prob, y, hier)
        dofs = [step.u.dof_count() for step in steps]
        eta2 = [step.est.total() for step in steps]
        ad_dofs.append(dofs)
        ad_err.append([relative_errors(step.u, ref_img, ref_hier)[0] for step in steps])
        if np.all(np.diff(dofs) >= 0) and np.all(np.diff(eta2) < 0):
            mono_ok += 1
        rhs = problem_rhs(prob, hier)
        dd, ee = [], []
        for depth in range(1, hier.levels + 1):
            masks = masks_to_depth(hier, depth)
            sm = choose_omega(diff, masks)
            u, _ = llmg_solve(
                zero_field(hier, masks), rhs, diff, sm, tol=1e-10, max_sweeps=200
            )
            dd.append(sum(int(m.active.sum()) for m in masks))
            ee.append(relative_errors(u, ref_img, ref_hier)[0])
        un_dofs.append(dd)
        un_err.append(ee)
    elapsed = time.perf_counter() - t0
    ad_d = np.mean(ad_dofs, axis=0)
    ad_e = np.mean(ad_err, axis=0)
    un_d = np.mean(un_dofs, axis=0)
    un_e = np.mean(un_err, axis=0)

    def dofs_to_reach(dofs, errs, target):
        hit = [d for d, e in zip(dofs, errs) if e <= target]
        return min(hit) if hit else None

    matched = True
    shared = 0
    for target in sorted(set(ad_e.tolist() + un_e.tolist())):
        a = dofs_to_reach(ad_d, ad_e, target)
        u = dofs_to_reach(un_d, un_e, target)
        if a is not None and u is not None:
            shared += 1
            matched = matched and a <= u
    ok = matched and mono_ok >= 95 and elapsed < 600.0
    report(
        capsys, 7, "adaptive-advantage", ok,
        f"matched-error dofs ok: {matched} ({shared} shared targets); dofs "
        f"non-decreasing and eta2 strictly decreasing in {mono_ok}/100 samples "
        f"(needs >= 95); {elapsed:.0f}s (limit 600s)",
    )


def test_08_mark_refine_equality(capsys):
    """Kernel marking plus refinement equals the direct mask transition."""
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(811)
    prob = CookieProblem()
    f_values = load_image(prob, hier)
    samples = sample_parameters(SampleRng(13), 20)
    equal = True
    for y in samples:
        diff = compute_upsilon(hier, discretize_kappa(prob, y, hier))
        masks = random_masks(hier, rng)
        u = random_field(hier, masks, rng)
        est = estimate(u, f_values, diff, masks)
        deltas = [max(1e-12, 0.3 * float(est.eta2[k].max())) for k in range(hier.levels)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = conv_mark_refine(bank, est, deltas, masks)
            want = refine(masks, mark_threshold(est, deltas), hier)
        for k in range(hier.levels):
            equal = equal and np.array_equal(got[k].active, want[k].active)
            equal = equal and np.array_equal(got[k].closure, want[k].closure)
    report(
        capsys, 8, "mark-refine-equality", equal,
        f"active and closure masks binary-equal on 20 samples x {hier.levels} levels: {equal}",
    )


def test_09_parameter_count_affinity(capsys):
    """Weight counts are affine in depth at fixed sweeps and affine in sweeps."""
    affine_levels = True
    for m in (5, 10):
        totals = [parameter_count(levels, m)["total"] for levels in (2, 3, 4)]
        affine_levels = affine_levels and (totals[2] - totals[1] == totals[1] - totals[0])
    affine_sweeps = True
    structure = True
    for levels in (2, 3, 4):
        t5 = parameter_count(levels, 5)["total"]
        t6 = parameter_count(levels, 6)["total"]
        t10 = parameter_count(levels, 10)["total"]
        affine_sweeps = affine_sweeps and (t10 - t5 == 5 * (t6 - t5))
        counts = parameter_count(levels, 7)
        structure = structure and (
            counts["total"] == counts["fixed"] + 7 * counts["per_sweep"]
        )
    ok = affine_levels and affine_sweeps and structure
    report(
        capsys, 9, "parameter-count-affinity", ok,
        f"level second difference zero at m=5,10: {affine_levels}; sweep "
        f"extrapolation exact: {affine_sweeps}; total = fixed + m*per_sweep: {structure}",
    )


def test_10_determinism(capsys, tmp_path):
    """Reruns with the same config and seed produce byte-identical outputs."""
    cfg = {
        "hierarchy": {"coarse_nodes_per_side": 5, "levels": 2},
        "solver": {"max_sweeps": 3000},
        "afem": {"iterations": 2, "theta": 0.3},
        "sampling": {"seed": 9, "count": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    def tree_bytes(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(run_b)]) == 0
    ta, tb = tree_bytes(run_a), tree_bytes(run_b)
    run_same = ta == tb and len(ta) > 0

    gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
    args = ["gen-dataset", "--config", str(cfg_path), "--workers", "1"]
    assert main(args + ["--out", str(gen_a)]) == 0
    assert main(args + ["--out", str(gen_b)]) == 0
    ga, gb = tree_bytes(gen_a), tree_bytes(gen_b)
    gen_same = ga == gb and len(ga) > 0

    ok = run_same and gen_same
    report(
        capsys, 10, "determinism", ok,
        f"run rerun byte-identical over {len(ta)} files: {run_same}; "
        f"gen-dataset rerun byte-identical over {len(ga)} files: {gen_same}",
    )
