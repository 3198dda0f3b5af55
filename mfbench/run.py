"""mfeuler benchmark: measure one workload end to end, or per layer when traced.

    python3 mfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src``.  Each
repetition of the workload runs in a fresh interpreter (worker.py), so
``setup_s`` and ``peak_rss_mb`` are those of a process that did nothing but
that repetition.  Repetitions continue while the next one still fits into
``--seconds`` (at least three).  With ``--trace 1`` untraced and traced
repetitions alternate (at least two of each); the traced ones' exact counts
must agree.
``--smoke`` runs every workload at toy size, traced, with invariant checks
only, in a few seconds.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with quartiles,
per-repetition values and provenance, is written to
``mfbench-out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

from check import check_outputs, load_references, output_files, outputs_digest
from tracing import EXACT_METRICS, LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
HARD_LIMIT_S = 165.0  # every repetition must end by then; the run exits within 180 s
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Measure single-threaded, like the workloads' run.threads = 1: on a small
# shared machine, BLAS worker threads spinning against other load add noise.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def summary(values):
    """The mean of the repetitions' values, with their median, quartiles and count.

    Timings are reported as the mean over repetitions, that is the measured
    time of all repetitions of the run over their number (README.md, "Machine
    noise").
    """
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.fmean(values), "median": q2, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """Repetitions of one workload at one seed, run in fresh worker processes."""

    def __init__(self, root, workload, seed, label, smoke=False, references=True):
        self.root = root
        self.workload = workload
        self.master_seeds = workload.master_seeds(seed)
        self.cfg = workload.config(seed, smoke=smoke)
        self.references = load_references(workload, self.master_seeds) if references and not smoke else None
        self.dir = os.path.join(root, "mfbench-out", f"{workload.name}-seed{seed}-{label}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.ini")
        with open(self.config_path, "w", encoding="ascii") as fh:
            fh.write(self.cfg.to_text())
        self.reps = []
        self.first_digest = None

    def repeat(self, trace, deadline):
        """Run one repetition in a fresh interpreter and check its outputs."""
        index = len(self.reps)
        out = os.path.join(self.dir, f"rep{index}")
        os.makedirs(out)
        env = dict(os.environ, **SINGLE_THREADED)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(self.root, "src"), env.get("PYTHONPATH")]))
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.workload.name,
            "--config", self.config_path,
            "--out", out,
            "--seeds", ",".join(map(str, self.master_seeds)),
            "--trace", str(trace),
        ]  # fmt: skip
        rep = {"trace": trace, "problems": []}
        with open(os.path.join(out, "log.txt"), "wb") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd + ["--spawned-at", repr(spawned)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                    timeout=max(1.0, deadline - spawned),
                )
                if proc.returncode != 0:
                    rep["problems"].append(f"worker exited with {proc.returncode}, see {out}/log.txt")
            except subprocess.TimeoutExpired:
                rep["problems"].append("worker timed out")
        rep["elapsed_s"] = time.monotonic() - spawned
        self.reps.append(rep)
        if rep["problems"]:
            return rep
        with open(os.path.join(out, "result.json"), encoding="ascii") as fh:
            rep.update(json.load(fh))
        rep["problems"] += check_outputs(self.workload, self.master_seeds, out, self.references)
        if not rep["problems"]:
            digest = outputs_digest(out, output_files(self.workload, self.master_seeds))
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                rep["problems"].append("outputs differ from the first repetition's bytes")
        if trace and not rep["problems"]:
            with open(os.path.join(out, "spans.json"), encoding="ascii") as fh:
                rep["layers"] = layer_metrics(json.load(fh))
        if not rep["problems"] and any(r["trace"] == trace for r in self.reps[:-1]):
            shutil.rmtree(out)  # keep the first repetition of each kind for inspection
        return rep

    def good(self, trace=None):
        return [r for r in self.reps if not r["problems"] and (trace is None or r["trace"] == trace)]


def measure(run, seconds, trace, start):
    """Repeat the workload while the next repetition fits into ``seconds``.

    Traced runs alternate untraced and traced repetitions, so that the
    tracing overhead compares repetitions made under the same conditions.
    """
    deadline = start + HARD_LIMIT_S
    floor = 2 * MIN_TRACED_REPS if trace else MIN_REPS
    while True:
        run.repeat(len(run.reps) % 2 if trace else 0, deadline)
        if run.reps[-1]["problems"] and not run.good():
            break
        elapsed = time.monotonic() - start
        typical = statistics.median(r["elapsed_s"] for r in run.reps)
        if len(run.reps) >= floor and elapsed + typical > seconds:
            break
        if elapsed + typical > HARD_LIMIT_S:
            break


def end_to_end(run):
    good = run.good()
    steps = run.workload.particle_steps(run.cfg)
    wall = summary(r["wall_s"] for r in good)
    rate = {
        "value": steps / wall["value"],
        "median": steps / wall["median"],
        "q1": steps / wall["q3"],
        "q3": steps / wall["q1"],
        "n": wall["n"],
    }
    return {
        "wall_s": (wall, "s"),
        "setup_s": (summary(r["setup_s"] for r in good), "s"),
        "particle_steps_per_s": (rate, "1/s"),
        "peak_rss_mb": (summary(r["peak_rss_mb"] for r in good), "MB"),
    }


def per_layer(run):
    """Per-layer metrics: means over the traced repetitions; counts must agree exactly."""
    traced = [r["layers"] for r in run.good(trace=1)]
    untraced = run.good(trace=0)
    if len(traced) < MIN_TRACED_REPS or not untraced:
        return None
    for name in EXACT_METRICS:
        values = {t[name] for t in traced}
        if len(values) != 1:
            raise SystemExit(f"{run.workload.name}: count {name} differs between traced runs of one seed: {sorted(values)}")
    out = {}
    for name, unit, _, _ in LAYER_METRICS:
        out[name] = (summary(t[name] for t in traced), unit)
    overhead = statistics.fmean(r["wall_s"] for r in run.good(trace=1)) - statistics.fmean(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = (summary([overhead]), "s")
    return out


def provenance(root, run, seed, seconds, trace):
    def cache_sizes():
        sizes = {}
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            try:
                with open(os.path.join(index, "level")) as lv, open(os.path.join(index, "type")) as ty:
                    with open(os.path.join(index, "size")) as sz:
                        sizes[f"L{lv.read().strip()}-{ty.read().strip()}"] = sz.read().strip()
            except OSError:
                continue
        return sizes

    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        src_hash.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            src_hash.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "workload": run.workload.name,
        "workload_seed": seed,
        "master_seeds": run.master_seeds,
        "repeats": len(run.reps),
        "seconds": seconds,
        "trace": trace,
        "config": run.cfg.to_text(),
    }


def report(run, metrics, header):
    failed = len(run.reps) - len(run.good())
    print(header)
    for rep in run.reps:
        for problem in rep["problems"]:
            print(f"  FAILED repetition: {problem}")
    for name, (m, unit) in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {unit:<6} (median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    print(f"  {'failed_frac':<42} {failed / len(run.reps):>14.6g} ratio  ({failed} of {len(run.reps)} repetitions)")
    return failed


def smoke(root):
    bad = 0
    for name, workload in WORKLOADS.items():
        start = time.monotonic()
        run = Run(root, workload, 0, "smoke", smoke=True)
        measure(run, 0, 1, start)
        layers = per_layer(run)
        failed = report(run, end_to_end(run) if run.good() else {}, f"smoke {name}: {len(run.reps)} repetitions")
        if failed or layers is None:
            bad += 1
    print("smoke: ok" if not bad else f"smoke: {bad} workloads failed")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mfeuler", "__init__.py")):
        print("mfbench: run from the root of an mfeuler checkout (src/mfeuler not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.smoke:
        return smoke(root)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    run = Run(root, WORKLOADS[args.workload], args.seed, f"trace{args.trace}")
    measure(run, args.seconds, args.trace, start)
    if not run.good():
        report(run, {}, f"{args.workload}: every repetition failed")
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if metrics is None:
        report(run, {}, f"{args.workload}: too few good repetitions for the traced metrics")
        return 1
    header = f"{args.workload} seed {args.seed} (master seeds {run.master_seeds}), trace {args.trace}:"
    failed = report(run, metrics, header)
    record = {
        "provenance": provenance(root, run, args.seed, args.seconds, args.trace),
        "metrics": {k: {**v[0], "unit": v[1]} for k, v in metrics.items()},
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in run.reps],
    }
    record_path = os.path.join(run.dir, "result.json")
    with open(record_path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(record_path, root)}")
    result = {
        "correct": failed == 0,
        "attempted": len(run.reps),
        "failed": failed,
        "metrics": {k: {"value": v[0]["value"], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
