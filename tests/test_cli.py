import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from selkam import hamcore, lagrangian, selector, weakkam
from selkam.cli import ConfigError, load_config, main, run

SRC = Path(__file__).resolve().parent.parent / "src"

FAST_CFG = """[hamiltonian]
expr = p^2/2
dim = 1

[lagrangian]
kind = flowed
v = 0.02*sin(2*pi*q)
T = 0.2
steps = 200

[grids]
base = 256
velocity = 256
samples = 1024

[run]
seed = 0
dt = 0.1
horizon = 5
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return p


def test_config_rejects_bad_resolution(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("base = 256", "base = 100"))
    status = main(["weakkam", "--config", str(p), "--out", str(tmp_path / "o")])
    assert status == 2


def test_config_names_the_field(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("base = 256", "base = 100"))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.fieldpath == "grids.base"


def test_config_rejects_bad_expression(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("p^2/2", "p^2/+cos(q)"))
    status = main(["weakkam", "--config", str(p), "--out", str(tmp_path / "o")])
    assert status == 2


@pytest.mark.parametrize("expr, dim", [("p^2/2 + q", 1), ("(p1^2+p2^2)/2 + q2", 2)])
def test_config_rejects_non_periodic_hamiltonian(tmp_path, expr, dim):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", f"expr = {expr}")
                 .replace("dim = 1", f"dim = {dim}"))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.fieldpath == "hamiltonian.expr" and "periodic" in str(exc.value)
    status = main(["weakkam", "--config", str(p), "--out", str(tmp_path / "o")])
    assert status == 2


def test_config_rejects_a_non_finite_hamiltonian(tmp_path, capsys):
    # infinite at p = 0: the weakkam run used to end in an OverflowError
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", "expr = p^2/2 + p^-2"))
    with pytest.raises(ConfigError, match="not finite") as exc:
        load_config(p)
    assert exc.value.fieldpath == "hamiltonian.expr"
    assert main(["weakkam", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error: hamiltonian.expr:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, bad, fieldpath, message", [
    (None, None, "config", "file not found"),
    ("[hamiltonian]\n", "", "config", "parse error"),
    ("base = 256", "base = many", "grids.base", "cannot parse"),
    ("expr = p^2/2\n", "", "hamiltonian.expr", "missing required key"),
    ("dim = 1", "dim = 3", "hamiltonian.dim", "must be 1 or 2"),
    ("kind = flowed", "kind = spline", "lagrangian.kind", "unknown kind"),
    ("kind = flowed", "kind = parametric", "lagrangian.file", "needs a file"),
    ("kind = flowed", "kind = parametric\nfile = {tmp}/nowhere.txt", "lagrangian.file",
     "file not found")],
    ids=["no-file", "ini-syntax", "not-a-number", "missing-key", "dim-3", "unknown-kind",
         "parametric-no-file", "parametric-missing-file"])
def test_load_config_refusals_name_the_field(tmp_path, line, bad, fieldpath, message):
    p = tmp_path / "bad.cfg"
    if line is not None:
        p.write_text(FAST_CFG.replace(line, bad.format(tmp=tmp_path)))
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(p)
    assert exc.value.fieldpath == fieldpath


@pytest.mark.parametrize("line, bad, fieldpath, command", [
    ("dt = 0.1", "dt = 0.7", "run.dt", "weakkam"),
    ("dt = 0.1", "dt = -0.1", "run.dt", "invariant"),
    ("horizon = 5", "horizon = 0", "run.horizon", "invariant"),
    ("horizon = 5", "horizon = -5", "run.horizon", "invariant"),
    ("T = 0.2", "T = -1", "lagrangian.T", "selector")],
    ids=["dt-above", "dt-negative", "horizon-zero", "horizon-negative", "T-negative"])
def test_out_of_range_run_settings_are_config_errors(tmp_path, capsys, line, bad,
                                                     fieldpath, command):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace(line, bad))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {fieldpath}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["selector", "front", "weakkam", "invariant",
                                     "verify", "oracle"])
def test_dim_2_is_a_config_error(tmp_path, command):
    # T^2 is library-only: no command computes over it
    p = tmp_path / "dim2.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", "expr = (p1^2 + p2^2)/2 + cos(2*pi*q1)")
                 .replace("dim = 1", "dim = 2"))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.fieldpath == "hamiltonian.dim"
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("v, message", [
    ("p*cos(2*pi*q)", "identifier 'p'"),
    ("sin(", "expected a number"),
    ("q", "not 1-periodic in q")], ids=["momentum", "syntax", "non-periodic"])
def test_config_validates_the_initial_potential(tmp_path, v, message):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG.replace("v = 0.02*sin(2*pi*q)", f"v = {v}"))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.fieldpath == "lagrangian.v" and message in str(exc.value)
    assert "Hamiltonian" not in str(exc.value)
    assert main(["selector", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_commands_reuse_the_validated_hamiltonian(fast_cfg, tmp_path, monkeypatch):
    # load_config parses H once; a command reads the spec it kept
    cfg = load_config(fast_cfg, out_dir=tmp_path / "o")

    def no_parse(*args, **kwargs):
        raise AssertionError("a command parsed H again")

    monkeypatch.setattr(hamcore, "parse_hamiltonian", no_parse)
    for command in ("weakkam", "front", "selector"):
        _, status = run(command, cfg)
        assert status == 0


def test_selector_checks_tonelli_once(fast_cfg, tmp_path, monkeypatch):
    # the CLI's refusal and graph_selector's own read one report per H
    calls = []
    inner = hamcore.tonelli_check

    def spy(spec):
        calls.append(spec)
        return inner(spec)

    monkeypatch.setattr(hamcore, "tonelli_check", spy)
    cfg = load_config(fast_cfg, out_dir=tmp_path / "o")
    assert run("selector", cfg)[1] == 0
    assert calls == [cfg.H]


def test_no_heavy_import_on_the_workload_path(tmp_path):
    # the workload commands load no scipy (only `oracle` runs it), no sympy
    # (derivatives are compiled in-house) and no numpy.ma (which np.median's
    # NaN check imports)
    (tmp_path / "fast.cfg").write_text(FAST_CFG)
    script = f"""
import sys
from selkam.cli import load_config, run
for command in ("weakkam", "selector"):
    cfg = load_config({str(tmp_path / "fast.cfg")!r}, out_dir={str(tmp_path)!r} + "/" + command)
    assert run(command, cfg)[1] == 0
heavy = ("scipy", "sympy", "numpy.ma")
print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_tolerance_range(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(FAST_CFG + "\n[tolerances]\nsnap_radius = 0.5\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.fieldpath == "tolerances.snap_radius"


def test_weakkam_free_alpha_zero(fast_cfg, tmp_path):
    cfg = load_config(fast_cfg, out_dir=tmp_path / "out")
    summary, status = run("weakkam", cfg)
    assert status == 0
    assert summary["results"]["alpha"] == pytest.approx(0.0, abs=1e-9)
    assert (tmp_path / "out" / "solution.txt").exists()


def test_determinism_bit_identical(fast_cfg, tmp_path):
    cfg_a = load_config(fast_cfg, out_dir=tmp_path / "a")
    cfg_b = load_config(fast_cfg, out_dir=tmp_path / "b")
    run("weakkam", cfg_a)
    run("weakkam", cfg_b)
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()


def test_selector_front_invariant_and_oracle_roundtrip(fast_cfg, tmp_path):
    out = tmp_path / "out"
    cfg = load_config(fast_cfg, out_dir=out)
    summary, status = run("selector", cfg)
    assert status == 0 and summary["results"]["ok"]
    _, status = run("front", cfg)
    assert status == 0
    _, status = run("invariant", cfg)
    assert status == 0
    summary, status = run("oracle", cfg)
    assert status == 0
    reparsed = summary["results"]["reparsed_artifacts"]
    assert {"selector.txt", "front.txt", "invariant.txt",
            "oracle.txt"} <= set(reparsed)


def test_selector_reports_the_flagged_points_as_snapped(tmp_path):
    # T = 0.5 is past the first fold of the free flow of v: one Maxwell point
    cfg_path = tmp_path / "fold.cfg"
    cfg_path.write_text(FAST_CFG.replace("v = 0.02*sin", "v = 0.1*sin")
                        .replace("T = 0.2", "T = 0.5"))
    cfg = load_config(cfg_path, out_dir=tmp_path / "out")
    summary, status = run("selector", cfg)
    assert status == 0
    provenance = np.loadtxt(tmp_path / "out" / "selector.txt", ndmin=2)[:, 2]
    flagged = int(np.sum(provenance == -1))
    assert flagged > 0
    assert summary["results"]["snapped"] == flagged


def test_verify_suite_exit_status(fast_cfg, tmp_path):
    cfg = load_config(fast_cfg, out_dir=tmp_path / "v")
    summary, status = run("verify", cfg, suite="weakkam")
    assert status == 0
    assert summary["results"]["ok"]


@pytest.mark.parametrize("suite, module, target, key, value", [
    ("selector", selector, "graph_selector", "snap_tol", 2e-4),
    ("weakkam", weakkam, "weak_kam_family", "num_tol", 2e-3),
    ("dynamics", selector, "graph_selector", "snap_tol", 2e-4)],
    ids=["selector", "weakkam", "dynamics"])
def test_verify_reads_tolerances_like_the_commands(tmp_path, monkeypatch, suite,
                                                   module, target, key, value):
    inner = getattr(module, target)
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, target, spy)
    p = tmp_path / "tol.cfg"
    p.write_text(FAST_CFG + "\n[tolerances]\nsnap_tol = 2e-4\nnum_tol = 2e-3\n")
    main(["verify", "--config", str(p), "--out", str(tmp_path / "v"),
          "--suite", suite])
    assert seen.get(key) == value


@pytest.mark.parametrize("argv", [["weakkam"], ["verify", "--suite", "weakkam"]],
                         ids=["weakkam", "verify"])
def test_weakkam_reads_the_run_horizon(fast_cfg, tmp_path, monkeypatch, argv):
    inner = weakkam.weak_kam_family
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("horizon"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(weakkam, "weak_kam_family", spy)
    main(argv + ["--config", str(fast_cfg), "--out", str(tmp_path / "o")])
    assert seen == [5.0]


def test_verify_all_builds_one_selector(tmp_path, monkeypatch):
    # max H on the graph of dv is 4.9e-4, inside the sublevel {H <= alpha + 1e-3},
    # so the dynamics suite runs its pipeline on the selector suite's selector;
    # the one kernel is the selector suite's minimax check
    calls = {"graph_selector": 0, "_build_kernel": 0}
    for name in calls:
        inner = getattr(selector, name)

        def spy(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(selector, name, spy)
    p = tmp_path / "small.cfg"
    p.write_text(FAST_CFG.replace("v = 0.02*sin", "v = 0.005*sin"))
    summary, _ = run("verify", load_config(p, out_dir=tmp_path / "v"), suite="all")
    assert summary["results"]["checks"]["dynamics.energy_pipeline"]
    assert calls == {"graph_selector": 1, "_build_kernel": 1}


@pytest.mark.parametrize("suite", ["selector", "all"])
def test_verify_selector_suite_refuses_a_coarse_base_grid(tmp_path, monkeypatch, suite):
    # the loader takes any power of two >= 64; the kernel minimax needs 256
    p = tmp_path / "coarse.cfg"
    p.write_text(FAST_CFG.replace("base = 256", "base = 128"))
    cfg = load_config(p, out_dir=tmp_path / "v")

    def no_work(*args, **kwargs):
        raise AssertionError("verify did work before refusing the config")

    monkeypatch.setattr(hamcore, "parse_hamiltonian", no_work)
    monkeypatch.setattr(hamcore, "tonelli_check", no_work)
    with pytest.raises(ConfigError) as exc:
        run("verify", cfg, suite=suite)
    assert exc.value.fieldpath == "grids.base" and "128" in str(exc.value)
    monkeypatch.undo()
    assert main(["verify", "--config", str(p), "--out", str(tmp_path / "v"),
                 "--suite", suite]) == 2


def _count_kernel_builds(monkeypatch):
    calls = []
    inner = selector._build_kernel

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(selector, "_build_kernel", spy)
    return calls


def test_selector_builds_no_kernel(fast_cfg, tmp_path, monkeypatch):
    # the selector is the front's lower envelope; the kernel is only a check
    calls = _count_kernel_builds(monkeypatch)
    summary, status = run("selector", load_config(fast_cfg, out_dir=tmp_path / "s"))
    assert status == 0 and summary["results"]["ok"]
    assert calls == []


def test_verify_selector_checks_the_minimax(fast_cfg, tmp_path, monkeypatch):
    calls = _count_kernel_builds(monkeypatch)
    summary, status = run("verify", load_config(fast_cfg, out_dir=tmp_path / "v"),
                          suite="selector")
    assert summary["results"]["checks"]["selector.minimax_agrees"] is True
    assert status == 0 and len(calls) == 1


@pytest.mark.parametrize("command", ["selector", "weakkam", "invariant", "verify"])
def test_refuses_non_tonelli(tmp_path, command):
    # `invariant` without a level would otherwise fail in the Legendre transform
    p = tmp_path / "concave.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", "expr = -p^2/2 + cos(2*pi*q)"))
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 1
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["ok"] is False and "Tonelli" in results["reason"]
    assert results["min_hessian_eig"] < 0
    assert sorted(f.name for f in out.iterdir()) == ["meta.json", "summary.json"]


@pytest.mark.parametrize("argv", [["weakkam"], ["invariant"], ["verify", "--suite", "dynamics"]],
                         ids=["weakkam", "invariant", "verify"])
def test_a_stalled_critical_value_is_reported(tmp_path, argv):
    # Tonelli, but c = 0 lies off the flat of p^2/2 + 0.1 cos(2 pi q): no static
    # class, and the Lax-Oleinik iteration stalls above FP_TOL
    p = tmp_path / "offflat.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", "expr = p^2/2 - p + 0.1*cos(2*pi*q)"))
    out = tmp_path / "o"
    assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["ok"] is False and "critical_value" in results["reason"]
    assert results["residual"] > weakkam.FP_TOL
    assert f"residual {results['residual']:.2e}" in results["reason"]
    assert sorted(f.name for f in out.iterdir()) == ["meta.json", "summary.json"]


def test_lagrangian_file_outside_the_setting_is_a_config_error(tmp_path):
    # a contractible loop (winding 0) bounds area, so it is not exact
    t = np.arange(64) / 64
    rows = np.column_stack([t, 0.5 + 0.1 * np.cos(2 * np.pi * t),
                            0.1 * np.sin(2 * np.pi * t), np.zeros(64)])
    curve = tmp_path / "loop.dat"
    np.savetxt(curve, rows, header="dim 1 kind parametric", comments="")
    p = tmp_path / "loop.cfg"
    p.write_text(FAST_CFG.replace("kind = flowed", f"kind = parametric\nfile = {curve}"))
    with pytest.raises(ConfigError) as exc:
        run("selector", load_config(p, out_dir=tmp_path / "o"))
    assert exc.value.fieldpath == "lagrangian.file" and "winding 0" in str(exc.value)
    assert main(["selector", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_lagrangian_file_with_a_shifted_primitive_is_a_config_error(tmp_path):
    t = np.arange(64) / 64
    L = lagrangian.from_graph(0.05 * np.sin(2 * np.pi * t))
    S = L.S.copy()
    S[20] += 1e-3
    curve = tmp_path / "shifted.dat"
    np.savetxt(curve, np.column_stack([t, t, L.p, S]), header="dim 1 kind parametric",
               comments="")
    p = tmp_path / "shifted.cfg"
    p.write_text(FAST_CFG.replace("kind = flowed", f"kind = parametric\nfile = {curve}"))
    with pytest.raises(ConfigError) as exc:
        run("selector", load_config(p, out_dir=tmp_path / "o"))
    assert exc.value.fieldpath == "lagrangian.file" and "not exact" in str(exc.value)
    assert main(["selector", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["selector", "front"])
def test_a_dim_2_lagrangian_file_is_a_config_error(tmp_path, capsys, command):
    curve = tmp_path / "grid.dat"
    np.savetxt(curve, np.zeros((16, 6)), header="dim 2 kind graph", comments="")
    p = tmp_path / "grid.cfg"
    p.write_text(FAST_CFG.replace("kind = flowed", f"kind = parametric\nfile = {curve}"))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "lagrangian.file" in err and "dim 2" in err


def test_verify_selector_reads_a_saved_flowed_curve_as_parametric(tmp_path):
    # the file carries no flow: the suite flows the config's v itself
    curve = tmp_path / "flowed.dat"
    lagrangian.save_lagrangian(lagrangian.from_flow(
        0.02 * np.sin(2 * np.pi * np.arange(256) / 256), hamcore.parse_hamiltonian("p^2/2", 1),
        0.2, steps=200, initial_samples=1024), curve)
    p = tmp_path / "flowed.cfg"
    p.write_text(FAST_CFG.replace("kind = flowed", f"kind = parametric\nfile = {curve}"))
    summary, status = run("verify", load_config(p, out_dir=tmp_path / "o"), suite="selector")
    assert status == 0 and summary["results"]["checks"]["selector.minimax_agrees"]
    assert (tmp_path / "o" / "summary.json").exists()


def test_summary_has_versions_and_hash(fast_cfg, tmp_path):
    cfg = load_config(fast_cfg, out_dir=tmp_path / "out")
    run("weakkam", cfg)
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert data["config_hash"] == cfg.config_hash
    assert "numpy" in data["versions"]


def test_removed_keys_still_load(tmp_path):
    # add [grids] lattice and [run] workers, and [tolerances] conv_tol and
    # sub_tol at values their old range checks refused: all ignored
    plain = tmp_path / "plain.cfg"
    plain.write_text(FAST_CFG)
    legacy = tmp_path / "legacy.cfg"
    legacy.write_text(FAST_CFG.replace("[grids]\n", "[grids]\nlattice = 256\n")
                      .replace("[run]\n", "[run]\nworkers = 4\n"))
    tolerances = tmp_path / "tolerances.cfg"
    tolerances.write_text(FAST_CFG + "\n[tolerances]\nconv_tol = 1.0\nsub_tol = 5.0\n")
    summaries = []
    for path in (plain, legacy, tolerances):
        cfg = load_config(path, out_dir=tmp_path / path.stem)
        summary, status = run("weakkam", cfg)
        assert status == 0
        summaries.append({k: v for k, v in summary.items() if k != "config_hash"})
    assert summaries[0] == summaries[1] == summaries[2]


def test_workers_flag_is_a_usage_error(fast_cfg, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["weakkam", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
              "--workers", "2"])
    assert exc.value.code == 2


def test_invariant_refuses_a_level_that_misses_the_curve(tmp_path):
    # the pendulum's critical value meets no sample of the graph of dv:
    # the command reports why, like a refusal, instead of a traceback
    p = tmp_path / "graph.cfg"
    p.write_text(FAST_CFG.replace("expr = p^2/2", "expr = p^2/2 + cos(2*pi*q)")
                 .replace("kind = flowed", "kind = graph")
                 .replace("v = 0.02*sin", "v = 0.05*sin"))
    out = tmp_path / "o"
    assert main(["invariant", "--config", str(p), "--out", str(out)]) == 1
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["ok"] is False
    assert "does not meet the sampled set" in results["reason"]
    assert not (out / "invariant.txt").exists()


@pytest.mark.parametrize("mane_q, inside", [(0.99951171875, True), (0.5, False)],
                         ids=["across-the-seam", "far"])
def test_verify_matches_aubry_points_on_the_torus(tmp_path, monkeypatch, mane_q, inside):
    # (0, 0) and (1 - 2^-11, 0) lie half a velocity-grid step apart on T*T^1
    def family(*args, **kwargs):
        return SimpleNamespace(alpha=0.0, aubry_pts=np.array([[0.0, 0.0]]),
                               mane_pts=np.array([[0.25, 1.0], [mane_q, 0.0]]))

    monkeypatch.setattr(weakkam, "weak_kam_family", family)
    p = tmp_path / "seam.cfg"
    p.write_text(FAST_CFG.replace("velocity = 256", "velocity = 1024"))
    summary, _ = run("verify", load_config(p, out_dir=tmp_path / "v"), suite="weakkam")
    assert summary["results"]["checks"]["weakkam.aubry_in_mane"] is inside
