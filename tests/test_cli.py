"""Config parsing, dataset format, and the four command-line entry points."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from mlfem import problems
from mlfem.assembly import compute_upsilon
from mlfem.cli import (
    AFEM_CSV_COLUMNS,
    MlfdDataset,
    MlfdWriter,
    RunConfig,
    cmd_afem,
    cmd_convstudy,
    cmd_gen_dataset,
    config_hash,
    main,
    parse_config,
    resolved_dict,
)
from mlfem.convnet import build_stencil_bank, flatten_bank
from mlfem.mesh import ConfigurationError, build_hierarchy
from mlfem.problems import CookieProblem, SampleRng, discretize_kappa, load_image


def write_config(path, **sections):
    body = {
        "hierarchy": {"coarse_nodes_per_side": 5, "levels": 2},
        "solver": {"max_sweeps": 3000},
        "afem": {"iterations": 1, "theta": 0.3},
        "sampling": {"seed": 0, "count": 1},
    }
    for name, content in sections.items():
        if content is None:
            body.pop(name, None)
        elif isinstance(content, dict):
            body.setdefault(name, {}).update(content)
        else:
            body[name] = content
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- config


def test_defaults_and_resolved_round_trip():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert cfg.theta == 0.1 and cfg.count == 100 and cfg.levels == 4
    assert parse_config(resolved_dict(cfg)) == cfg
    custom = parse_config(
        {
            "problem": {"base": 0.2, "radius": 0.1, "centers": [[0.3, 0.3]], "load": 2.0},
            "hierarchy": {"levels": 3},
            "afem": {"marking": "threshold", "theta": 2.5},
        }
    )
    assert custom.problem == CookieProblem(base=0.2, centers=((0.3, 0.3),), radius=0.1, load=2.0)
    assert parse_config(resolved_dict(custom)) == custom


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown key 'solverr'"):
        parse_config({"solverr": {}})
    with pytest.raises(ConfigurationError, match="unknown key 'tolerance'"):
        parse_config({"solver": {"tolerance": 1e-8}})
    # the damping is always Gershgorin; there is no rule to select
    with pytest.raises(ConfigurationError, match="unknown key 'omega_rule'"):
        parse_config({"solver": {"omega_rule": "gershgorin"}})
    with pytest.raises(ConfigurationError, match="unknown problem"):
        parse_config({"problem": {"name": "pancake"}})
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        parse_config({"solver": [1, 2]})
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        parse_config([])


def test_value_validation():
    for bad in (
        {"hierarchy": {"levels": 2.5}},
        {"sampling": {"seed": True}},
        {"solver": {"tol": "tight"}},
        {"solver": {"tol": "1e-8"}},
        {"afem": {"theta": True}},
        {"problem": {"base": "0.5"}},
        {"hierarchy": {"coarse_nodes_per_side": 2}},
        {"hierarchy": {"levels": 0}},
        {"solver": {"tol": 0.0}},
        {"solver": {"max_sweeps": 0}},
        {"afem": {"iterations": 0}},
        {"afem": {"theta": 1.0}},
        {"afem": {"theta": -0.5, "marking": "threshold"}},
        {"afem": {"marking": "random"}},
        {"sampling": {"count": 0}},
        {"sampling": {"seed": -1}},
        {"problem": {"centers": [[0.5]]}},
        {"problem": {"centers": [[0.75, 0.25, 9.0], [0.75, 0.75]]}},
        {"problem": {"centers": [[float("nan"), 0.5]]}},
        {"problem": {"base": -1.0}},
        {"problem": {"base": 0.0}},
        {"problem": {"base": float("nan")}},
        {"problem": {"radius": -0.1}},
        {"problem": {"load": float("inf")}},
        {"solver": {"tol": float("inf")}},
        {"output": 7},
        json.loads('{"hierarchy": {"levels": Infinity}}'),
        json.loads('{"sampling": {"count": 1e400}}'),
        # lattices past mesh.MAX_NODES_PER_SIDE, the finest or the overkill
        # reference's: rejected on their sizes alone, nothing is allocated
        {"hierarchy": {"levels": 2000}},
        {"hierarchy": {"levels": 30}},
        {"hierarchy": {"coarse_nodes_per_side": 2000, "levels": 1}},
        {"hierarchy": {"levels": 8}},
    ):
        with pytest.raises(ConfigurationError):
            parse_config(bad)
    # the edge: 7 levels from 5 nodes have a 1025-node reference lattice
    assert parse_config({"hierarchy": {"levels": 7}}).levels == 7


def test_three_disc_config_draws_three_parameters(tmp_path):
    centers = [[0.25, 0.25], [0.25, 0.75], [0.75, 0.5]]
    cfg_path = write_config(tmp_path / "cfg.json", problem={"centers": centers})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    kappa = MlfdDataset(out / "snapshots").load("kappa")
    y = SampleRng(0).sample_generator(0).random(3)
    assert np.all(y > 0.0)
    hier = build_hierarchy(5, 2)
    problem = CookieProblem(centers=tuple(map(tuple, centers)))
    assert np.array_equal(kappa, discretize_kappa(problem, y, hier))
    # each disc centre carries its own parameter on top of the base value
    h = hier.h(1)
    for (cx, cy), weight in zip(centers, y):
        assert kappa[round(cx / h), round(cy / h)] == pytest.approx(0.1 + weight)


def test_config_hash_is_pinned():
    # manifests carry this hash, so it must not move while the schema stays
    assert config_hash(RunConfig()) == (
        "f1ff9bc33918d06bdbe1d42197bf19dd7dd3e29d773c18fffbed03ee4fc807e4"
    )
    custom = parse_config(
        {
            "problem": {"base": 0.2, "radius": 0.1, "centers": [[0.3, 0.3]], "load": 2.0},
            "afem": {"marking": "threshold", "theta": 0.5},
            "solver": {"tol": 1e-8},
        }
    )
    assert config_hash(custom) == (
        "72981150e6fdaa48887ded3ca21b47337081515b5586d8c72d6cb57882d12f8e"
    )


def test_config_hash_ignores_output_only():
    a = parse_config({"output": "here"})
    b = parse_config({"output": "there"})
    c = parse_config({"sampling": {"seed": 1}})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64
    assert config_hash(a) == config_hash(parse_config({}))


# ---------------------------------------------------------------- mlfd format


def test_mlfd_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.normal(size=(3, 5, 5))
    mask = (rng.random((7, 7)) < 0.5).astype(np.uint8)
    writer = MlfdWriter(tmp_path, "feedbeef", seed=11)
    writer.add("values", values, channels="u", level=1)
    writer.add("active", mask, channels="mask", level=0)
    writer.close()

    ds = MlfdDataset(tmp_path)
    assert ds.config_hash == "feedbeef" and ds.seed == 11
    assert ds.names() == ["values", "active"]
    got = ds.load("values")
    assert got.dtype == np.float64
    assert np.array_equal(got, values)
    got_mask = ds.load("active")
    assert got_mask.dtype == np.uint8
    assert np.array_equal(got_mask, mask)
    # loads are private copies
    got[0, 0, 0] = 99.0
    assert np.array_equal(ds.load("values"), values)


def test_mlfd_rejects_corrupt_dataset(tmp_path):
    writer = MlfdWriter(tmp_path, "00", seed=0)
    writer.add("x", np.ones((4, 4)), channels="u")
    writer.close()
    blob = tmp_path / "x.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ConfigurationError, match="bytes"):
        MlfdDataset(tmp_path)
    blob.write_bytes(b"\x00" * (16 * 8))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    good_format = manifest["format"]
    manifest["format"] = "mlfd-99"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="not an mlfd dataset"):
        MlfdDataset(tmp_path)
    manifest["format"] = good_format
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    blob.unlink()
    with pytest.raises(ConfigurationError, match="x.bin"):
        MlfdDataset(tmp_path)


def test_mlfd_rejects_unsafe_or_incomplete_manifest(tmp_path):
    data = tmp_path / "data"
    writer = MlfdWriter(data, "00", seed=0)
    writer.add("x", np.ones((2, 2)), channels="u")
    writer.close()
    (tmp_path / "secret.bin").write_bytes(b"\x00" * 32)
    good = json.loads((data / "manifest.json").read_text())

    def reopen(manifest):
        (data / "manifest.json").write_text(json.dumps(manifest))
        return MlfdDataset(data)

    for fname in ("../secret.bin", str(tmp_path / "secret.bin"), "sub/x.bin", "..", ""):
        entry = dict(good["arrays"][0], file=fname)
        with pytest.raises(ConfigurationError, match="bare file name"):
            reopen(dict(good, arrays=[entry]))
    for key in ("config_hash", "seed", "arrays"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ConfigurationError, match=key):
            reopen(broken)
    # malformed values fail on open, not later in load or with a bare TypeError
    entry = good["arrays"][0]
    for field, value in (
        ("shape", [-1, -4]),
        ("shape", [2, 2.0]),
        ("shape", [True, 4]),
        ("shape", "abc"),
        ("shape", None),
        ("dtype", ["float64"]),
        ("name", ["x"]),
        ("file", None),
    ):
        with pytest.raises(ConfigurationError):
            reopen(dict(good, arrays=[dict(entry, **{field: value})]))
    for arrays in ({}, [7], "x"):
        with pytest.raises(ConfigurationError):
            reopen(dict(good, arrays=arrays))
    with pytest.raises(ConfigurationError, match="JSON object"):
        reopen([good])
    (data / "manifest.json").write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        MlfdDataset(data)
    assert np.array_equal(reopen(good).load("x"), np.ones((2, 2)))


# ---------------------------------------------------------------- afem run


def test_run_single_iteration_emits_one_row(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "afem.csv")
    assert header == AFEM_CSV_COLUMNS
    assert len(rows) == 1
    snaps = MlfdDataset(out / "snapshots")
    # kappa and f once, then u/eta2/mask per iteration and level
    assert len(snaps.names()) == 2 + 1 * 2 * 3
    assert snaps.load("kappa").shape == (9, 9)
    assert snaps.load("iter000_level1_mask").dtype == np.uint8


def test_run_is_monotone_and_rerun_byte_identical(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        hierarchy={"levels": 3},
        solver={"max_sweeps": 5000},
        afem={"iterations": 3, "theta": 0.5},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "afem.csv").read_bytes() == (out2 / "afem.csv").read_bytes()
    for path in sorted((out1 / "snapshots").iterdir()):
        twin = out2 / "snapshots" / path.name
        assert path.read_bytes() == twin.read_bytes()

    header, rows = read_csv(out1 / "afem.csv")
    dofs = [int(r[header.index("dofs")]) for r in rows]
    eta2 = [float(r[header.index("eta2_total")]) for r in rows]
    sweeps = [int(r[header.index("sweeps")]) for r in rows]
    assert dofs == sorted(dofs)
    assert all(a > b for a, b in zip(eta2, eta2[1:]))
    assert all(s >= 1 for s in sweeps)


def test_run_reports_solver_failure(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", solver={"max_sweeps": 1})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert "sweep limit" in capsys.readouterr().err


def test_seed_override_lands_in_manifest(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--seed", "42", "--out", str(out)]) == 0
    snaps = MlfdDataset(out / "snapshots")
    assert snaps.seed == 42


# ---------------------------------------------------------------- convstudy


def test_convstudy_uniform_errors_decrease(tmp_path, monkeypatch):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        afem={"iterations": 2},
        sampling={"count": 2},
    )
    out1 = tmp_path / "serial"
    assert main(["convstudy", "--config", cfg_path, "--out", str(out1)]) == 0
    header, rows = read_csv(out1 / "convstudy.csv")
    uniform = [r for r in rows if r[0] == "uniform"]
    adaptive = [r for r in rows if r[0] == "adaptive"]
    assert len(uniform) == 2 and len(adaptive) == 2
    h1 = header.index("h1_rel_mean")
    l2 = header.index("l2_rel_mean")
    assert float(uniform[1][h1]) < float(uniform[0][h1])
    assert float(uniform[1][l2]) < float(uniform[0][l2])
    capped = header.index("capped")
    assert header[-1] == "capped"
    assert [int(r[capped]) for r in rows] == [0, 0, 0, 0]

    # the worker pool and the env-var default must not change a single byte
    out2 = tmp_path / "pool"
    assert main(["convstudy", "--config", cfg_path, "--workers", "2", "--out", str(out2)]) == 0
    assert (out1 / "convstudy.csv").read_bytes() == (out2 / "convstudy.csv").read_bytes()
    out3 = tmp_path / "env"
    monkeypatch.setenv("AFEM_WORKERS", "2")
    assert main(["convstudy", "--config", cfg_path, "--out", str(out3)]) == 0
    assert (out1 / "convstudy.csv").read_bytes() == (out3 / "convstudy.csv").read_bytes()

    # one sweep cannot reach tol, so every adaptive and uniform solve of both
    # samples stops at the cap; the study still completes with exit status 0
    capped_path = write_config(
        tmp_path / "capped.json",
        solver={"max_sweeps": 1},
        afem={"iterations": 2},
        sampling={"count": 2},
    )
    out4 = tmp_path / "capped"
    assert main(["convstudy", "--config", capped_path, "--out", str(out4)]) == 0
    header, rows = read_csv(out4 / "convstudy.csv")
    assert [int(r[capped]) for r in rows] == [2, 2, 2, 2]


def test_overkill_reference_built_only_where_errors_are_written(tmp_path, monkeypatch):
    calls = []
    original = problems.overkill_reference

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every module-level binding in the package, wherever it is imported
    for name, mod in list(sys.modules.items()):
        if name == "mlfem" or name.startswith("mlfem."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    cfg = parse_config(
        {
            "hierarchy": {"coarse_nodes_per_side": 5, "levels": 2},
            "solver": {"max_sweeps": 3000},
            "afem": {"iterations": 2, "theta": 0.3},
            "sampling": {"count": 2},
        }
    )
    assert cmd_gen_dataset(cfg, tmp_path / "data", workers=1) == 0
    assert len(calls) == 0
    assert cmd_convstudy(cfg, tmp_path / "study", workers=1) == 0
    assert len(calls) == 2
    assert cmd_afem(cfg, tmp_path / "run") == 0
    assert len(calls) == 3


# ---------------------------------------------------------------- verify


def test_verify_prints_three_passing_rows(tmp_path, capsys):
    # the second config has an even coarse lattice (4 x 4 under a 7 x 7 one)
    for cfg_path in (
        write_config(tmp_path / "cfg.json"),
        write_config(
            tmp_path / "even.json", hierarchy={"coarse_nodes_per_side": 4, "levels": 2}
        ),
    ):
        assert main(["verify", "--config", cfg_path]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert len(lines) == 4
        names = [line.split()[0] for line in lines[1:]]
        assert names == ["operator", "prolong/restrict", "estimator+mask"]
        assert all(line.rstrip().endswith("pass") for line in lines[1:])
        assert main(["verify", "--config", cfg_path]) == 0
        assert capsys.readouterr().out == first


# ---------------------------------------------------------------- gen-dataset


def test_gen_dataset_layout_and_reload(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        afem={"iterations": 2},
        sampling={"count": 2, "seed": 5},
    )
    out = tmp_path / "data"
    assert main(["gen-dataset", "--config", cfg_path, "--out", str(out)]) == 0
    ds = MlfdDataset(out)
    levels, count = 2, 2
    assert len(ds.names()) == count * (2 + 3 * levels) + 1

    hier = build_hierarchy(5, levels)
    vec, _ = flatten_bank(build_stencil_bank(hier))
    assert np.array_equal(ds.load("kernel_bank"), vec)
    for index in range(count):
        y = SampleRng(5).sample_generator(index).random(2)
        kappa = discretize_kappa(CookieProblem(), y, hier)
        assert np.array_equal(ds.load(f"sample{index:05d}_kappa"), kappa)

    # spot-check the second sample against a fresh adaptive solve
    from mlfem.adapt import afem

    y = SampleRng(5).sample_generator(1).random(2)
    diffusion = compute_upsilon(hier, discretize_kappa(CookieProblem(), y, hier))
    f_values = load_image(CookieProblem(), hier)
    _, _, report = afem(diffusion, f_values, 2, theta=0.3, tol=1e-10, max_sweeps=3000)
    final = report.steps[1]
    for k in range(levels):
        assert np.array_equal(ds.load(f"sample00001_level{k}_u"), final.u.values[k])
        assert np.array_equal(ds.load(f"sample00001_level{k}_eta2"), final.est.eta2[k])
        assert np.array_equal(ds.load(f"sample00001_level{k}_mask"), final.u.masks[k].active)

    # determinism: a second export, through the worker pool, is
    # byte-identical file for file
    out2 = tmp_path / "data2"
    assert main(["gen-dataset", "--config", cfg_path, "--out", str(out2), "--workers", "2"]) == 0
    for path in sorted(out.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes()


# ---------------------------------------------------------------- main errors


def test_main_config_errors_exit_2(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"afem": {"markign": "doerfler"}}), encoding="utf-8")
    assert main(["verify", "--config", str(typo)]) == 2
    assert "unknown key" in capsys.readouterr().err

    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path / "r")]) == 2
    assert "sampling.seed" in capsys.readouterr().err

    # integer fields that overflow int(): JSON Infinity and out-of-range literals
    for name, text in (
        ("inf.json", '{"hierarchy": {"levels": Infinity}}'),
        ("huge.json", '{"sampling": {"count": 1e400}}'),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / name), "--out", str(tmp_path / "o")]) == 2
        assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    # a hierarchy too deep or too wide to build fails before any work
    for name, hierarchy in (
        ("deep.json", {"levels": 2000}),
        ("deeper.json", {"levels": 30}),
        ("wide.json", {"coarse_nodes_per_side": 5000, "levels": 2}),
    ):
        path = write_config(tmp_path / name, hierarchy=hierarchy)
        assert main(["verify", "--config", path]) == 2
        assert "nodes per side" in capsys.readouterr().err

    # a center with a third coordinate is rejected, not truncated to a pair
    three = write_config(
        tmp_path / "three.json", problem={"centers": [[0.75, 0.25, 9.0], [0.75, 0.75]]}
    )
    assert main(["run", "--config", three, "--out", str(tmp_path / "three")]) == 2
    assert "problem.centers must be a list of [x, y] pairs" in capsys.readouterr().err
    assert not (tmp_path / "three").exists()

    rule = write_config(tmp_path / "rule.json", solver={"omega_rule": "gershgorin"})
    assert main(["run", "--config", rule, "--out", str(tmp_path / "rule")]) == 2
    assert "unknown key 'omega_rule'" in capsys.readouterr().err
    assert not (tmp_path / "rule").exists()

    # a worker count below 1, from the flag or the variable, fails before any work
    for command, argv, env in (
        ("gen-dataset", ["--workers", "0"], "1"),
        ("gen-dataset", ["--workers", "-4"], "1"),
        ("gen-dataset", [], "-2"),
        ("convstudy", [], "0"),
    ):
        monkeypatch.setenv("AFEM_WORKERS", env)
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out), *argv]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_workers_only_for_sample_commands(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path / "cfg.json")
    monkeypatch.setenv("AFEM_WORKERS", "x")
    # verify maps over no samples and writes nothing: it neither reads
    # AFEM_WORKERS nor accepts --workers or --out
    assert main(["verify", "--config", cfg_path]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--config", cfg_path, "--workers", "7"])
    with pytest.raises(SystemExit):
        main(["verify", "--config", cfg_path, "--out", str(tmp_path / "d")])
    assert not (tmp_path / "d").exists()
    capsys.readouterr()
    # the sample commands still read it
    out = str(tmp_path / "data")
    assert main(["gen-dataset", "--config", cfg_path, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert parse_config(json.loads(blocks[0])) == RunConfig()
