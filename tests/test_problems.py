"""Cookie coefficient fields and parameter sampling."""

import math

import numpy as np
import pytest

from mlfem import problems
from mlfem.mesh import ConfigurationError, build_hierarchy
from mlfem.problems import (
    CookieProblem,
    SampleRng,
    discretize_kappa,
    kappa_at,
    load_image,
    overkill_reference,
)

from oracles import sample_parameters


def test_zero_parameters_give_background():
    problem = CookieProblem()
    hier = build_hierarchy(5, 2)
    kap = discretize_kappa(problem, (0.0, 0.0), hier)
    assert np.allclose(kap, 0.1)


def test_unit_parameters_at_disk_centers():
    problem = CookieProblem()
    for cx, cy in problem.centers:
        val = kappa_at(problem, (1.0, 1.0), np.array([[cx, cy]]))
        assert val[0] == pytest.approx(1.1, rel=1e-15)


def test_parameter_count_must_match_disc_count():
    three = CookieProblem(centers=((0.25, 0.25), (0.25, 0.75), (0.75, 0.5)))
    hier = build_hierarchy(3, 2)
    for problem, y in ((three, (0.5, 0.5)), (CookieProblem(), (0.1, 0.2, 0.3, 0.4))):
        with pytest.raises(ConfigurationError):
            kappa_at(problem, y, np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            discretize_kappa(problem, y, hier)
        with pytest.raises(ConfigurationError):
            overkill_reference(problem, y, hier)
    assert discretize_kappa(three, (0.5, 0.5, 0.5), hier).shape == (5, 5)


def test_disk_boundary_is_inside():
    problem = CookieProblem()
    cx, cy = problem.centers[0]
    r = problem.radius
    for angle in (0.0, 0.25, 1.1, 2.0, 3.9, 5.5):
        pt = np.array([[cx + r * np.cos(angle), cy + r * np.sin(angle)]])
        assert kappa_at(problem, (1.0, 0.0), pt)[0] == pytest.approx(1.1, rel=1e-12)
    just_outside = np.array([[cx + (r + 1e-9), cy]])
    assert kappa_at(problem, (1.0, 0.0), just_outside)[0] == pytest.approx(0.1, rel=1e-12)


def test_discretized_field_takes_few_values():
    problem = CookieProblem()
    hier = build_hierarchy(5, 3)
    kap = discretize_kappa(problem, (0.35, 0.8), hier)
    distinct = np.unique(kap)
    assert len(distinct) <= 3
    assert distinct[0] == pytest.approx(0.1)
    kap_equal = discretize_kappa(problem, (0.5, 0.5), hier)
    assert len(np.unique(kap_equal)) <= 2


def test_kappa_bounds():
    problem = CookieProblem()
    hier = build_hierarchy(5, 3)
    rng = SampleRng(7)
    for y in sample_parameters(rng, 20):
        kap = discretize_kappa(problem, y, hier)
        assert kap.min() >= 0.1 - 1e-15
        assert kap.max() <= 2.1 + 1e-15


def test_disk_node_fraction_matches_area():
    problem = CookieProblem()
    hier = build_hierarchy(65, 1)
    kap = discretize_kappa(problem, (1.0, 1.0), hier)
    frac = float((kap > 0.6).mean())
    want = 2.0 * np.pi * problem.radius**2
    assert abs(frac - want) <= 0.2 * want


def test_load_image_is_constant():
    problem = CookieProblem(load=2.5)
    hier = build_hierarchy(3, 2)
    img = load_image(problem, hier)
    assert img.shape == (5, 5)
    assert np.all(img == 2.5)


def test_sample_stream_is_deterministic():
    a = sample_parameters(SampleRng(42), 6)
    b = sample_parameters(SampleRng(42), 6)
    assert np.array_equal(a, b)
    c = sample_parameters(SampleRng(43), 6)
    assert not np.array_equal(a, c)


def test_sample_stream_is_batching_independent():
    rng = SampleRng(11)
    full = sample_parameters(rng, 10)
    singles = np.stack(
        [rng.sample_generator(i).uniform(0.0, 1.0, size=2) for i in range(10)]
    )
    assert np.array_equal(full, singles)


def test_samples_cover_unit_square_uniformly():
    ys = sample_parameters(SampleRng(0), 10_000)
    assert ys.shape == (10_000, 2)
    assert ys.min() >= 0.0 and ys.max() <= 1.0
    assert abs(ys[:, 0].mean() - 0.5) <= 0.02
    assert abs(ys[:, 1].mean() - 0.5) <= 0.02


def test_problem_rejects_what_the_model_cannot_solve():
    # base -0.5 used to run afem to eta2 = 6.4e16, radius -1 dropped both
    # discs, and a NaN base failed only after the sweeps diverged
    for bad in (
        {"base": -0.5},
        {"base": 0.0},
        {"base": math.nan},
        {"base": math.inf},
        {"base": "0.1"},
        {"base": True},
        {"radius": -1.0},
        {"radius": math.nan},
        {"load": math.inf},
        {"load": math.nan},
        {"centers": ((0.75, 0.25, 9.0), (0.75, 0.75))},
        {"centers": ((0.5,),)},
        {"centers": ((math.nan, 0.5),)},
        {"centers": (("0.5", 0.5),)},
        {"centers": ("12",)},
        {"centers": 5},
    ):
        with pytest.raises(ConfigurationError):
            CookieProblem(**bad)
    # valid input is stored as floats and a tuple of pairs
    problem = CookieProblem(base=1, centers=[[0, 1]], radius=0, load=-2)
    assert problem == CookieProblem(base=1.0, centers=((0.0, 1.0),), radius=0.0, load=-2.0)
    assert type(problem.base) is float and type(problem.centers[0][0]) is float
    assert CookieProblem(centers=()).centers == ()


def test_overkill_reference_builds_no_stencil_images(monkeypatch):
    # the reference only assembles its single-level system; at L = 7 the
    # stencil images would take about 59 MB
    fields = []
    compute_upsilon = problems.compute_upsilon

    def recorded(hierarchy, kappa):
        fields.append(compute_upsilon(hierarchy, kappa))
        return fields[-1]

    monkeypatch.setattr(problems, "compute_upsilon", recorded)
    overkill_reference(CookieProblem(), (0.5, 0.5), build_hierarchy(3, 2))
    assert len(fields) == 1
    assert fields[0]._stencils == {}
    fields[0].stencil(0)  # the images are built on first use
    assert list(fields[0]._stencils) == [0]
