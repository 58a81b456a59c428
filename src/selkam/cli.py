"""Command-line surface: reproducible runs over flat key=value configs.

Commands: selector | front | weakkam | invariant | verify | oracle.
Every run emits decimal-text artifact tables (with `#` headers) and a
deterministic JSON summary keyed by the config hash; wall time goes to a
separate meta file so summaries stay bit-identical for equal config+seed.
Exit codes: 0 pass, 1 property failure, 2 usage/config error.
"""

import argparse
import configparser
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dynamics, front, hamcore, lagrangian, selector, torus, weakkam
from .persistence import connectivity_oracle, sublevel_persistence

__all__ = ["RunConfig", "load_config", "run", "main", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, fieldpath, message):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


SAFE_TOLERANCES = {
    # name: (default, lo, hi)
    "snap_radius": (5e-4, 1e-6, 1e-2),
    "snap_tol": (selector.SNAP_TOL, 1e-8, 1e-2),
    "c_tol": (selector.C_TOL, 1e-6, 1e-1),
    "num_tol": (weakkam.NUM_TOL, 1e-8, 1e-1),
}


@dataclass(frozen=True)
class RunConfig:
    H: hamcore.HamiltonianSpec     # [hamiltonian] expr, parsed and validated
    kind: str                      # graph | flowed | parametric
    v: hamcore.PeriodicFunction    # [lagrangian] v, parsed and validated
    T: float
    steps: int
    lagrangian_file: str
    base_grid: int
    velocity_grid: int
    samples: int
    seed: int
    dt: float
    horizon: float
    level: float               # energy level for `invariant` (nan = alpha)
    tolerances: dict
    out_dir: Path
    raw_text: str = field(repr=False, default="")

    @property
    def config_hash(self):
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _power_of_two(name, value):
    if value < 64 or value & (value - 1) != 0:
        raise ConfigError(name, f"resolution must be a power of two >= 64, got {value}")
    return value


def load_config(path, out_dir=None, seed=None):
    """Parse and validate a flat sectioned key=value config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    text = p.read_text()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"parse error: {exc}") from exc

    def get(section, key, default=None, cast=str):
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from exc
        if default is None:
            raise ConfigError(f"{section}.{key}", "missing required key")
        return default

    dim = get("hamiltonian", "dim", 1, int)
    if dim not in (1, 2):
        raise ConfigError("hamiltonian.dim", "must be 1 or 2")
    kind = get("lagrangian", "kind", "graph")
    if kind not in ("graph", "flowed", "parametric"):
        raise ConfigError("lagrangian.kind", f"unknown kind {kind!r}")
    lag_file = get("lagrangian", "file", "")
    if kind == "parametric":
        if not lag_file:
            raise ConfigError("lagrangian.file", "parametric kind needs a file")
        if not Path(lag_file).exists():
            raise ConfigError("lagrangian.file", f"file not found: {lag_file}")

    tolerances = {}
    for name, (default, lo, hi) in SAFE_TOLERANCES.items():
        val = get("tolerances", name, default, float)
        if not lo <= val <= hi:
            raise ConfigError(f"tolerances.{name}",
                              f"{val} outside the safe range [{lo}, {hi}]")
        tolerances[name] = val

    T = get("lagrangian", "T", 0.0, float)
    if not 0 <= T < np.inf:
        raise ConfigError("lagrangian.T", f"must be finite and >= 0, got {T}")
    dt = get("run", "dt", 0.1, float)
    if not 0 < dt <= weakkam.DT_MAX:
        raise ConfigError("run.dt", f"must lie in (0, {weakkam.DT_MAX}], got {dt}")
    horizon = get("run", "horizon", 100.0, float)
    if not 0 < horizon < np.inf:
        raise ConfigError("run.horizon", f"must be finite and positive, got {horizon}")

    return RunConfig(
        kind=kind,
        T=T,
        steps=get("lagrangian", "steps", 1000, int),
        lagrangian_file=lag_file,
        base_grid=_power_of_two("grids.base", get("grids", "base", 512, int)),
        velocity_grid=_power_of_two("grids.velocity", get("grids", "velocity", 1024, int)),
        samples=_power_of_two("grids.samples", get("grids", "samples", 4096, int)),
        seed=seed if seed is not None else get("run", "seed", 0, int),
        dt=dt,
        horizon=horizon,
        level=get("run", "level", float("nan"), float),
        tolerances=tolerances,
        out_dir=Path(out_dir) if out_dir else Path(get("run", "out", "out")),
        raw_text=text,
        # parsed last, so the checks above report first; T^2 is library-only
        H=_parsed_hamiltonian(get("hamiltonian", "expr"), dim),
        v=_parsed_field("lagrangian.v", hamcore.parse_periodic, get("lagrangian", "v", "0")),
    )


def _parsed_field(fieldpath, parse, *args):
    try:
        return parse(*args)
    except hamcore.ExpressionError as exc:
        raise ConfigError(fieldpath, str(exc)) from exc


def _parsed_hamiltonian(expr, dim):
    H = _parsed_field("hamiltonian.expr", hamcore.parse_hamiltonian, expr, dim)
    if dim == 2:
        raise ConfigError("hamiltonian.dim", "the commands work over T^1; "
                          "T^2 is available from the library only")
    return H


def _v_samples(cfg, n):
    """[lagrangian] v on the uniform n-point grid."""
    return cfg.v(np.arange(n) / n)


def _build_lagrangian(cfg):
    if cfg.kind == "parametric":
        try:
            return lagrangian.load_lagrangian(cfg.lagrangian_file)
        except ValueError as exc:
            raise ConfigError("lagrangian.file", str(exc)) from exc
    v = _v_samples(cfg, max(256, cfg.samples // 16))
    if cfg.kind == "graph":
        return lagrangian.from_graph(v)
    return lagrangian.from_flow(v, cfg.H, cfg.T, steps=max(cfg.steps, 8),
                                initial_samples=cfg.samples)


def _summary(cfg, command, results):
    versions = {"selkam": __version__, "numpy": np.__version__}
    if command == "oracle":
        import scipy  # the one command that runs scipy records its version
        versions["scipy"] = scipy.__version__
    return {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "versions": versions,
        "results": results,
    }


def _write_summary(cfg, command, results, wall):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    summary = _summary(cfg, command, results)
    (cfg.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (cfg.out_dir / "meta.json").write_text(
        json.dumps({"wall_time_s": wall, "command": command}, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# commands


def _refuse_non_tonelli(H):
    """Results and exit status 1 for an H that fails the Tonelli check, else None."""
    ton = H.tonelli
    if ton.ok:
        return None
    return {"ok": False, "reason": "Hamiltonian failed the Tonelli check",
            "min_hessian_eig": ton.min_hessian_eig}, 1


def _graph_selector(cfg, L):
    return selector.graph_selector(L, cfg.base_grid, snap_tol=cfg.tolerances["snap_tol"])


def _cmd_selector(cfg):
    refused = _refuse_non_tonelli(cfg.H)
    if refused:
        return refused
    L = _build_lagrangian(cfg)
    sf = _graph_selector(cfg, L)
    rep = selector.verify_selector(sf, L, c_tol=cfg.tolerances["c_tol"])
    selector.dump_selector(sf, cfg.out_dir / "selector.txt")
    results = {"lipschitz_const": rep.lipschitz_const,
               "lipschitz_bound": rep.lipschitz_bound,
               "max_graph_distance": rep.max_graph_distance,
               "max_value_mismatch": rep.max_value_mismatch,
               "checked_points": rep.checked_points,
               "snapped": int(np.sum(sf.flags)),
               "ok": bool(rep.ok)}
    return results, 0 if rep.ok else 1


def _cmd_front(cfg):
    L = _build_lagrangian(cfg)
    q_grid = np.arange(cfg.base_grid) / cfg.base_grid
    front.dump_front(L, q_grid, cfg.out_dir / "front.txt")
    ca = front.caustics(L)
    results = {"caustic_count": len(ca),
               "caustic_q": [float(x) for x in ca.q],
               "multiplicities": [int(c) for _, _, c in ca.intervals],
               "ok": True}
    return results, 0


def _cmd_weakkam(cfg):
    H = cfg.H
    refused = _refuse_non_tonelli(H)
    if refused:
        return refused
    sol = weakkam.weak_kam_family(H, grid=cfg.velocity_grid, dt=cfg.dt,
                                  num_tol=cfg.tolerances["num_tol"])
    n = sol.u.size
    h = 1.0 / n
    du = (np.roll(sol.u, -1) - np.roll(sol.u, 1)) / (2 * h)
    Hdu = H.value(sol.grid, du)
    with open(cfg.out_dir / "solution.txt", "w") as fh:
        fh.write("# q u du H(q,du)\n")
        for j in range(n):
            fh.write(f"{sol.grid[j]:.12g} {sol.u[j]:.17g} {du[j]:.12g} {Hdu[j]:.12g}\n")
    results = {"alpha": sol.alpha, "residual": sol.residual,
               "iterations": sol.iterations,
               "aubry_count": int(len(sol.aubry_pts)),
               "mane_count": int(len(sol.mane_pts)),
               "aubry": sol.aubry_pts.tolist(),
               "family_size": sol.meta["family_size"],
               "outer_approximation": sol.meta["outer_approximation"],
               "ok": True}
    return results, 0


def _cmd_invariant(cfg):
    H = cfg.H
    refused = _refuse_non_tonelli(H)
    if refused:
        return refused
    L = _build_lagrangian(cfg)
    a = cfg.level
    if np.isnan(a):
        a = weakkam.critical_value(H, grid=cfg.velocity_grid, dt=cfg.dt).alpha
    try:
        est = dynamics.maximal_invariant_set(L, H, a, horizon=cfg.horizon)
    except ValueError as exc:
        # the level misses every sample of L: there is no set to trim
        return {"ok": False, "reason": str(exc), "level": float(a)}, 1
    dynamics.dump_invariant_set(est, cfg.out_dir / "invariant.txt")
    results = {"level": float(a), "survivors": len(est),
               "n_seeds": est.n_seeds, "tube_radius": est.tube_radius,
               "horizon": est.horizon, "converged": bool(est.converged),
               "ok": True}
    return results, 0


def _cmd_oracle(cfg):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    all_ok = True
    for trial in range(32):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(8, [257, 25, 11][d - 1]))
        G = rng.normal(size=(n,) * d)
        lam_uf = sublevel_persistence(G).selected
        lam_or = connectivity_oracle(G).selected
        ok = lam_uf == lam_or
        all_ok &= ok
        rows.append((trial, d, n, lam_uf, lam_or, int(ok)))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / "oracle.txt", "w") as fh:
        fh.write("# trial dim n selected oracle match\n")
        for r in rows:
            fh.write(" ".join(str(x) for x in r) + "\n")
    # round-trip duty: every artifact table in out/ must re-parse
    reparsed = {}
    for name in ("selector.txt", "front.txt", "solution.txt", "invariant.txt",
                 "oracle.txt"):
        path = cfg.out_dir / name
        if path.exists():
            data = np.loadtxt(path, ndmin=2)
            reparsed[name] = list(data.shape)
    results = {"trials": len(rows), "matches": sum(r[-1] for r in rows),
               "reparsed_artifacts": reparsed, "ok": bool(all_ok)}
    return results, 0 if all_ok else 1


def _cmd_verify(cfg, suite):
    if suite in ("selector", "all") and cfg.base_grid < selector.KERNEL_MIN_GRID:
        raise ConfigError("grids.base", "the selector suite checks the kernel minimax, "
                          f"which needs at least {selector.KERNEL_MIN_GRID} points, "
                          f"got {cfg.base_grid}")
    H = cfg.H
    refused = _refuse_non_tonelli(H)
    if refused:
        return refused
    checks = {}

    def check(name, value):
        checks[name] = bool(value)

    if suite != "weakkam":
        L = _build_lagrangian(cfg)
    sf = None
    if suite in ("selector", "all"):
        Lf = L if L.kind == "flowed" else lagrangian.from_flow(
            _v_samples(cfg, 256), H, cfg.T,
            steps=max(cfg.steps, 8), initial_samples=cfg.samples)
        sf = _graph_selector(cfg, Lf)
        rep = selector.verify_selector(sf, Lf, c_tol=cfg.tolerances["c_tol"])
        check("selector.lipschitz", rep.lipschitz_const <= rep.lipschitz_bound)
        check("selector.graph_distance", rep.max_graph_distance <= cfg.tolerances["c_tol"])
        check("selector.value_match", rep.max_value_mismatch <= cfg.tolerances["c_tol"])
        # the paper's definition: at unflagged points the kernel minimax is
        # the envelope, up to the kernel's discretization
        gap = np.abs(selector.kernel_minimax(Lf, sf.q_grid.size) - sf.values)
        check("selector.minimax_agrees",
              np.all(gap[~sf.flags] <= cfg.tolerances["snap_radius"]))
    if suite in ("weakkam", "all"):
        sol = weakkam.weak_kam_family(H, grid=cfg.velocity_grid, dt=cfg.dt,
                                      num_tol=cfg.tolerances["num_tol"])
        Vmax = float(np.max(H.potential(np.arange(8192) / 8192))) if H.is_mechanical else None
        if Vmax is not None:
            check("weakkam.alpha_maxV", abs(sol.alpha - Vmax) <= 1e-3)
        a_hat, _ = weakkam.critical_value_infmax(H, grid=cfg.velocity_grid,
                                                 seed=cfg.seed)
        check("weakkam.infmax_bracket",
              sol.alpha - 1e-3 <= a_hat <= sol.alpha + 1e-2)
        # every Aubry point within two grid steps of a Mane point on T*T^1
        # (distances across the q seam through the tiled copies)
        dist = torus.nearest(torus.phase_tiles(sol.mane_pts), sol.aubry_pts)
        check("weakkam.aubry_in_mane", np.all(dist <= 2.0 / cfg.velocity_grid))
    if suite in ("dynamics", "all"):
        # the weakkam suite's alpha is this same descending critical value
        a = sol.alpha if suite == "all" else \
            weakkam.critical_value(H, grid=cfg.velocity_grid, dt=cfg.dt).alpha
        try:
            if L.kind == "flowed" and "H" in L.meta:
                # a smooth flowed L: its graph selector (the selector suite's,
                # when that ran) is already a generalized selector
                f = sf if sf is not None else _graph_selector(cfg, L)
            else:
                seq = lagrangian.mollify_sequence(L, base_width=1.0 / 64, resample=8192)
                f, _ = selector.generalized_selector(seq, cfg.base_grid)
            rep63 = dynamics.verify_theorem_6_3(L, H, a, f, horizon=cfg.horizon)
            check("dynamics.energy_pipeline", rep63.ok)
        except ValueError:
            checks["dynamics.energy_pipeline"] = False
        rep15 = dynamics.verify_theorem_1_5(L, H, horizon=5.0)
        check("dynamics.invariant_graph", rep15.ok)
    ok = all(checks.values()) and bool(checks)
    results = {"suite": suite, "checks": checks, "ok": ok}
    return results, 0 if ok else 1


def run(command, cfg, suite="all"):
    """Dispatch one command; returns (summary dict, exit status)."""
    t0 = time.time()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if command == "selector":
        results, status = _cmd_selector(cfg)
    elif command == "front":
        results, status = _cmd_front(cfg)
    elif command == "weakkam":
        results, status = _cmd_weakkam(cfg)
    elif command == "invariant":
        results, status = _cmd_invariant(cfg)
    elif command == "oracle":
        results, status = _cmd_oracle(cfg)
    elif command == "verify":
        results, status = _cmd_verify(cfg, suite)
    else:
        raise ConfigError("command", f"unknown command {command!r}")
    summary = _write_summary(cfg, command, results, time.time() - t0)
    return summary, status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="selkam",
        description="graph selectors and weak-KAM objects on tori")
    parser.add_argument("command",
                        choices=["selector", "front", "weakkam", "invariant",
                                 "verify", "oracle"])
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--suite", default="all",
                        choices=["selector", "weakkam", "dynamics", "all"])
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
        summary, status = run(args.command, cfg, suite=args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary["results"], indent=2, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
