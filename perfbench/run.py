"""selkam benchmark: one `selkam` command at a time, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a selkam checkout; the program is imported from its
`src/`.  A single client runs operations in a closed loop: the next starts
when the previous has ended, and none starts after S seconds, so a run has
at least one.  Each operation gets a fresh interpreter, a config made from
the workload seed and an empty temporary output directory, and its output
goes through the correctness gate (gate.py).  Before the operations the
run starts SETUP_PROBES interpreters that only set up, so set-up time is a
median of several samples.

Every operation's record (times, summary results, gate verdict) is printed
as one JSON line and appended to .perfbench/operations.jsonl.  The last
line is the result: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of BENCHMARK.json; a traced run prints every layer
metric it measured on the line before.  See README.md for the choices.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2
RUN_DEADLINE_S = 170       # a run must end within 180 s


def environment(root):
    """What the numbers depend on besides the code: versions, threads, source."""
    import numpy
    import scipy
    import sympy
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "selkam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    # only the checkout's own repository: git would search the parents
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def run_operation(root, inst, work, timeout, trace=False, setup_only=False):
    """Run one operation in a fresh interpreter and return its record."""
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        config = tmp / "workload.cfg"
        config.write_text(inst.config_text())
        out = tmp / "out"
        record_path = tmp / "record.json"
        cmd = [sys.executable, str(HERE / "operation.py"), str(record_path),
               str(config), str(out), inst.command]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if not record_path.exists():
            return {"error": f"no record (exit {proc.returncode}): {proc.stderr[-2000:]}"}
        record = json.loads(record_path.read_text())
        if not Path(record["selkam_file"]).resolve().is_relative_to(root / "src"):
            raise SystemExit(f"selkam was imported from {record['selkam_file']}, "
                             f"not from {root / 'src'}")
        if inst.command == "selector" and (out / "selector.txt").exists():
            rows = (out / "selector.txt").read_text().splitlines()[1:]
            record["values"] = [float(r.split()[1]) for r in rows]
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def median_metrics(samples):
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "selkam" / "cli.py").is_file():
        print(f"no selkam source under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    inst = workloads.instance(args.workload, args.seed)
    reference = gate.load_references(args.workload).get(str(inst.draw))
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment(root), "workload": args.workload,
                      "seed": args.seed, "draw": inst.draw, "command": inst.command, "H": inst.expr,
                      "v": inst.v, "reference": "recorded" if reference else "analytic"}))

    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = run_operation(root, inst, work, deadline - time.monotonic(),
                              setup_only=True)
        if "error" in probe:
            print(f"set-up failed: {probe['error']}", file=sys.stderr)
            return 1
        setup.append(probe["setup_s"])

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < args.seconds:
        record = run_operation(root, inst, work, deadline - time.monotonic(),
                               trace=bool(args.trace))
        record["failures"] = gate.check(inst, record, reference)
        records.append(record)
        if "setup_s" in record:
            setup.append(record["setup_s"])
        line = json.dumps({"operation": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            **{k: v for k, v in record.items()
               if k not in ("values", "aubry_pts", "mane_pts", "layers")}}})
        print(line, flush=True)
        with open(work / "operations.jsonl", "a") as fh:
            fh.write(line + "\n")

    done = [r for r in records if not r["failures"]]
    failed = len(records) - len(done)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    if not done:
        result["metrics"] = {}
    elif args.trace:
        layers = median_metrics([r["layers"] for r in done])
        print(json.dumps({"layers": layers, "operations": len(done)}))
        result["metrics"] = {m["name"]: {"value": layers.get(m["name"], 0),
                                         "unit": m["unit"]}
                             for m in benchmark["per_layer"]}
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in done),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done)}
        print(json.dumps({"samples": {"wall_s": len(done), "setup_s": len(setup),
                                      "peak_rss_mb": len(done)}}))
        result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                         "unit": m["unit"]}
                             for m in benchmark["end_to_end"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
