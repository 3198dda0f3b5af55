"""One measured repetition of a workload, in a fresh interpreter.

    python3 mfbench/worker.py --workload NAME --config FILE --out DIR
        --seeds S1,S2,... --spawned-at T --trace 0|1

``T`` is the parent's ``time.monotonic()`` just before it started this
process (a clock shared by every process of the machine).  ``setup_s`` runs
from then through ``import mfeuler``, config load and ``validate``; ``wall_s``
is the workload itself, ending after its last output file is written.
Writes ``result.json`` (and ``spans.json`` when traced) into DIR.  Run by
run.py with the checkout's ``src`` on ``PYTHONPATH``.
"""

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def run_workload(workload, cfg, config_path, seeds, out):
    from mfeuler import artifacts, cli, coupling

    if workload.kind == "study":
        result = coupling.monte_carlo_rate(cfg)
        artifacts.write_rate_csv(os.path.join(out, "rate.csv"), result)
        artifacts.write_rate_summary(os.path.join(out, "rate_summary.txt"), result)
        return
    for seed in seeds:
        argv = ["run-coupled", "--config", config_path, "--seed", str(seed), "--out", os.path.join(out, f"seed{seed}")]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"run-coupled --seed {seed} exited with {code}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", required=True, help="master seeds, comma-separated")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from mfeuler import artifacts, cli, config, coupling  # noqa: F401  part of set-up

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    cfg = config.RunConfig.from_file(args.config)
    config.validate(cfg)
    setup_s = time.monotonic() - args.spawned_at

    workload = WORKLOADS[args.workload]
    run = lambda: run_workload(workload, cfg, args.config, args.seeds.split(","), args.out)  # noqa: E731
    if tracer is not None:
        run = tracer.span("workload", run)
    start = time.perf_counter()
    run()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "spans.json"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="ascii") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
