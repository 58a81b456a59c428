"""Show that the gate passes recorded outputs and fails perturbed ones.

    python3 perfbench/gate_check.py

For every seed in references/: the recorded output must pass the gate
against its own reference.  Then each reference value, and each result the
gate bounds without a reference, is moved just past its tolerance, one at a
time, and the gate must fail.  Runs no selkam code; exits 1 on any miss.
"""

import copy
import sys

import gate
import workloads


def _moved(doc, path, change):
    out = copy.deepcopy(doc)
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = change(node[last])
    return out


def perturbations(inst, ref):
    """(what, record, reference) triples that must each fail the gate."""
    step = 1.5
    record = {"status": 0, **ref}
    res = ref["results"]
    if inst.command == "selector":
        on_ref = [
            (("values", 100), lambda v: v + step * gate.VALUE_TOL),
            (("results", "lipschitz_bound"), lambda b: res["lipschitz_const"] - 1e-6),
        ]
        on_out = [
            (("results", "max_graph_distance"), lambda _: step * gate.RESIDUAL_TOL),
            (("results", "max_value_mismatch"), lambda _: step * gate.RESIDUAL_TOL),
        ]
    else:
        shift = step * gate.POINT_TOL
        on_ref = [
            (("results", "alpha"), lambda a: a + step * gate.ALPHA_TOL),
            (("aubry_pts", 0, 0), lambda q: q + shift),
            (("mane_pts", 0, 1), lambda p: p + shift),
        ]
        on_out = [
            (("results", "alpha"), lambda a: a + step * gate.ALPHA_TOL),
            (("mane_pts",), lambda m: m + [[0.5, 0.0]]),
        ]
    on_out += [(("results", "ok"), lambda _: False), (("status",), lambda _: 1)]
    for path, change in on_ref:
        yield "reference " + ".".join(map(str, path)), record, _moved(ref, path, change)
    for path, change in on_out:
        yield "output " + ".".join(map(str, path)), _moved(record, path, change), ref


def main():
    misses = checked = 0
    for workload in workloads.WORKLOADS:
        for seed, ref in gate.load_references(workload).items():
            inst = workloads.instance(workload, int(seed))
            fails = gate.check(inst, {"status": 0, **ref}, ref)
            if fails:
                print(f"{workload} seed {seed}: recorded output fails: {fails}")
                misses += 1
            for what, record, reference in perturbations(inst, ref):
                checked += 1
                if not gate.check(inst, record, reference):
                    print(f"{workload} seed {seed}: gate passed a perturbed {what}")
                    misses += 1
    print(f"{checked} perturbations checked, {misses} misses")
    return 1 if misses or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
