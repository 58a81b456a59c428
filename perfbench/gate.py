"""Correctness gate: does one operation's output hold the pinned tolerances?

The tolerances are those `tests/test_acceptance.py` pins: selector values
1e-4, selector graph and value residuals 1e-3, Lipschitz constant at most
pmax + 1e-2, critical value 1e-3, Aubry and Mane point sets within 2 grid
steps.  Every operation is checked against what holds on any seed (exit
status, `results.ok`, residuals, the analytic critical value and Aubry set,
Mane points on the critical shell).  Where `references/<workload>.json` has
the seed, the operation must also stay within the tolerances of the values
recorded there from the seed commit.
"""

import json
from pathlib import Path

import numpy as np

from workloads import VELOCITY_STEP

REFERENCES = Path(__file__).resolve().parent / "references"

VALUE_TOL = 1e-4
RESIDUAL_TOL = 1e-3
ALPHA_TOL = 1e-3
SHELL_TOL = 1e-3
POINT_TOL = 2 * VELOCITY_STEP


def load_references(workload):
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["seeds"]


def reference_entry(inst, record):
    """What a reference file keeps of a passing operation."""
    keep = ("values",) if inst.command == "selector" else ("aubry_pts", "mane_pts")
    return {"results": record["results"], **{k: record[k] for k in keep}}


def _hausdorff(a, b):
    """Symmetric Hausdorff distance of (q, p) point sets, q on the circle."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else np.inf
    dq = np.abs(a[:, None, 0] - b[None, :, 0])
    d = np.hypot(np.minimum(dq, 1.0 - dq), a[:, None, 1] - b[None, :, 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _one_sided(a, b):
    """Largest distance from a point of a to the set b."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    return max((_hausdorff([x], b) for x in a), default=0.0)


def check(inst, record, reference):
    """List of failed conditions; empty when the operation passes."""
    if "error" in record:
        return ["raised: " + record["error"].strip().splitlines()[-1]]
    res = record["results"]
    fails = []
    if record["status"] != 0 or res.get("ok") is not True:
        fails.append(f"exit status {record['status']}, results.ok {res.get('ok')}")
    if inst.command == "selector":
        for key in ("max_graph_distance", "max_value_mismatch"):
            if not res[key] <= RESIDUAL_TOL:
                fails.append(f"{key} {res[key]:.3e} > {RESIDUAL_TOL}")
        # the program's bound: pmax + 1e-2
        bound = (reference or record)["results"]["lipschitz_bound"]
        if not res["lipschitz_const"] <= bound:
            fails.append(f"Lipschitz {res['lipschitz_const']:.6f} > {bound:.6f}")
        if reference is not None:
            got = np.asarray(record["values"])
            want = np.asarray(reference["values"])
            err = np.max(np.abs(got - want)) if got.shape == want.shape else np.inf
            if not err <= VALUE_TOL:
                fails.append(f"selector values off the reference by {err:.3e}")
        return fails
    alpha, aubry = inst.alpha_and_aubry()
    wants = [("analytic", alpha, aubry)]
    if reference is not None:
        wants.append(("reference", reference["results"]["alpha"],
                      reference["aubry_pts"]))
    got_aubry, got_mane = record["aubry_pts"], record["mane_pts"]
    for source, want_alpha, want_aubry in wants:
        if not abs(res["alpha"] - want_alpha) <= ALPHA_TOL:
            fails.append(f"alpha {res['alpha']:.6f} vs {source} {want_alpha:.6f}")
        dist = _hausdorff(got_aubry, want_aubry)
        if not dist <= POINT_TOL:
            fails.append(f"Aubry set {dist:.2e} from the {source} set")
    if reference is not None:
        dist = _hausdorff(got_mane, reference["mane_pts"])
        if not dist <= POINT_TOL:
            fails.append(f"Mane set {dist:.2e} from the reference set")
    mane = np.asarray(got_mane, dtype=float).reshape(-1, 2)
    if mane.size:
        shell = np.max(np.abs(inst.hamiltonian(mane[:, 0], mane[:, 1]) - alpha))
        if not shell <= SHELL_TOL:
            fails.append(f"Mane set leaves the critical shell by {shell:.2e}")
    if not _one_sided(got_aubry, got_mane) <= POINT_TOL:
        fails.append("an Aubry point is missing from the Mane set")
    return fails
