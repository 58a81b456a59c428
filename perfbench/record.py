"""Record reference outputs for the correctness gate.

    python3 perfbench/record.py WORKLOAD SEED [SEED ...]

Run from the root of the commit whose outputs are the reference (the seed
commit of the benchmark).  Each seed's operation must first pass the gate's
checks that hold on any seed; its selector values, or its critical value
and Aubry and Mane point sets, then go into references/WORKLOAD.json, next
to the source digest and commit they came from.
"""

import json
import sys
from pathlib import Path

import gate
import run
import workloads


def _dump(doc):
    """JSON with one line per seed, so a re-recorded seed shows as one line."""
    head = {k: v for k, v in doc.items() if k != "seeds"}
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["seeds"].items())
    return json.dumps(head)[:-1] + ', "seeds": {\n' + seeds + "\n}}\n"


def main(argv):
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    root = Path.cwd().resolve()
    path = gate.REFERENCES / f"{workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    env = run.environment(root)
    doc.update(workload=workload, src_sha256=env["src_sha256"], commit=env["commit"])
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    for seed in seeds:
        inst = workloads.instance(workload, seed)
        record = run.run_operation(root, inst, work, run.RUN_DEADLINE_S)
        failures = gate.check(inst, record, None)
        if failures:
            print(f"{workload} seed {seed}: not recorded: {failures}", file=sys.stderr)
            return 1
        doc["seeds"][str(inst.draw)] = gate.reference_entry(inst, record)
        doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(_dump(doc))
        print(f"{workload} seed {seed}: recorded ({record['wall_s']:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
