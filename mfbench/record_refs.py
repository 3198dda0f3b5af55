"""Record the reference outputs the benchmark's output check compares with.

    python3 mfbench/record_refs.py [WORKLOAD ...]

Run from the root of a checkout.  For every workload (default: all) and
every master seed a workload seed can map to, runs one repetition and
stores the compared columns in ``mfbench/refs/<workload>.json``.  Record
only at a commit whose outputs are trusted, and again whenever a workload's
configuration changes.
"""

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from check import REF_DIR, extract
from run import HARD_LIMIT_S, Run
from workloads import REFERENCE_SEEDS, WORKLOADS


def record_one(root, workload, seed):
    run = Run(root, workload, seed, "record", references=False)
    rep = run.repeat(0, time.monotonic() + HARD_LIMIT_S)
    if rep["problems"]:
        raise RuntimeError(f"{workload.name} seed {seed}: {rep['problems']}")
    columns = extract(workload, run.master_seeds, os.path.join(run.dir, "rep0"))
    by_seed = {}
    for rel, cols in columns.items():
        master = run.master_seeds[0] if workload.kind == "study" else int(rel.split(os.sep)[0][len("seed"):])
        by_seed.setdefault(str(master), {})[rel] = cols
    return by_seed


def main(names):
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        with ThreadPoolExecutor(max_workers=2) as pool:
            parts = list(pool.map(lambda s: record_one(root, workload, s), range(REFERENCE_SEEDS)))
        recorded = {k: v for part in parts for k, v in part.items()}
        with open(os.path.join(REF_DIR, f"{name}.json"), "w", encoding="ascii") as fh:
            json.dump(recorded, fh, sort_keys=True, separators=(",", ":"))
        print(f"{name}: {len(recorded)} master seeds recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
