"""One benchmark operation in a fresh interpreter.

    python3 operation.py RECORD CONFIG OUT COMMAND [--trace] [--setup-only]

Imports `selkam.cli` and loads CONFIG (set-up), then times `cli.run`
(COMMAND with its artifacts written to OUT) and writes a JSON record to
RECORD: set-up and run times, exit status, summary results, peak RSS and,
with --trace, the per-layer metrics.  With --setup-only it stops after
set-up.  A fresh interpreter per operation keeps `selector._KERNEL_CACHE`
and the sympy lambdify work cold, as they are for every CLI user.
"""

import json
import resource
import sys
import time
import traceback


def _capture_weak_kam(weakkam, sink):
    """Keep the Aubry and Mane point sets, which the summary only counts."""
    inner = weakkam.weak_kam_family

    def captured(*args, **kwargs):
        sol = inner(*args, **kwargs)
        sink["aubry_pts"] = sol.aubry_pts.reshape(-1, 2).tolist()
        sink["mane_pts"] = sol.mane_pts.reshape(-1, 2).tolist()
        return sol

    weakkam.weak_kam_family = captured


def main(argv):
    record_path, config, out, command = argv[:4]
    flags = set(argv[4:])
    t0 = time.perf_counter()
    from selkam import cli, weakkam
    cfg = cli.load_config(config, out_dir=out)
    record = {"setup_s": time.perf_counter() - t0, "selkam_file": cli.__file__}
    try:
        if "--setup-only" not in flags:
            recorder = None
            if "--trace" in flags:
                import tracing
                recorder = tracing.Recorder()
                recorder.install()
            _capture_weak_kam(weakkam, record)
            t1, c1 = time.perf_counter(), time.process_time()
            summary, status = cli.run(command, cfg)
            record["wall_s"] = time.perf_counter() - t1
            record["cpu_s"] = time.process_time() - c1
            record["status"] = status
            record["results"] = summary["results"]
            if recorder is not None:
                record["layers"] = recorder.metrics(record["wall_s"])
    except Exception:
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
