"""Print one sha256 per benchmark workload over the output files its check compares, and one per kernel report.

    python3 tools/output_digests.py --seed N

Run from the root of a checkout; the program is imported from ``src`` and the
workloads from ``mfbench``.  Each workload's program runs once, in this
process, with the configuration and master seeds ``mfbench/run.py`` would use
for workload seed N, in a temporary directory that is removed afterwards.  The
program's own output goes to stderr, so stdout holds one line per workload.  The
digest covers the files ``mfbench.check.output_files`` names; for a study
workload also ``rate_summary.txt`` (the fitted slopes, ``dist_tail_bound`` and
the notes), and for a coupled workload each seed's final snapshots
(``rho_final.field``, ``vel{q}_final.field``, ``rho_final.csv`` in 1-d and
``particles_final.bin``), hashed as
``mfbench.check.outputs_digest`` hashes them.  The last three lines hash the
``kernel_report.txt`` that ``mfeuler kernel-report`` writes, which no workload
runs: ``kernel-report`` under the default configuration, ``kernel-report-bump``
with the bump kernel and ``kernel-report-2d`` in two dimensions (these take
about 1 s and 8 s).  Equal lines from two checkouts mean those files are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "mfbench")]

from check import output_files, outputs_digest  # noqa: E402
from mfeuler import cli  # noqa: E402
from mfeuler.config import RunConfig  # noqa: E402
from worker import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# each kernel report's changes to the default configuration, as (section, key, value)
KERNEL_REPORTS = {
    "kernel-report": (),
    "kernel-report-bump": (("kernel", "family", "bump"),),
    "kernel-report-2d": (("grid", "dim", 2), ("particles", "init_scheme", "iid"), ("study", "alpha", 2.5)),
}


def digest_files(workload, cfg, seeds) -> list[str]:
    """The checked output files plus a study's summary or every coupled seed's final snapshots."""
    files = output_files(workload, seeds)
    if workload.kind == "study":
        files.append("rate_summary.txt")
    else:
        snapshots = ["rho_final.field", *(f"vel{q}_final.field" for q in range(cfg.grid.dim)), "particles_final.bin"]
        if cfg.grid.dim == 1:
            snapshots.append("rho_final.csv")
        files += [os.path.join(f"seed{s}", name) for s in seeds for name in snapshots]
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed, as for mfbench/run.py")
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        seeds = workload.master_seeds(args.seed)
        cfg = workload.config(args.seed)
        with tempfile.TemporaryDirectory() as out:
            config_path = os.path.join(out, "config.ini")
            with open(config_path, "w", encoding="ascii") as fh:
                fh.write(cfg.to_text())
            with contextlib.redirect_stdout(sys.stderr):  # the program's progress lines
                run_workload(workload, cfg, config_path, [str(s) for s in seeds], out)
            print(f"{name} {outputs_digest(out, digest_files(workload, cfg, seeds))}", flush=True)
    for name, changes in KERNEL_REPORTS.items():
        cfg = RunConfig()
        for section, key, value in changes:
            setattr(getattr(cfg, section), key, value)
        with tempfile.TemporaryDirectory() as out:
            config_path = os.path.join(out, "config.ini")
            with open(config_path, "w", encoding="ascii") as fh:
                fh.write(cfg.to_text())
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(["kernel-report", "--config", config_path, "--out", out])
            print(f"{name} {outputs_digest(out, ['kernel_report.txt'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
