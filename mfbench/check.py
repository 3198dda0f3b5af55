"""Output check of one repetition: invariants plus recorded reference values.

References live in ``refs/<workload>.json``, keyed by master seed, and were
recorded by record_refs.py at the commit that defined the benchmark.  Each
compared column has a tolerance relative to its largest reference
magnitude; README.md gives the reasoning behind each number.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Coupled runs write one row per step; every ROW_STRIDE-th row and the last
# are compared with the reference, every row is checked for invariants.
ROW_STRIDE = 20

# Relative tolerances per output column (0 means exact).
STATE_RTOL = 1e-8  # quantities carried through the stepping of particles or fluid
TOLERANCES = {
    "rate.csv": {
        "N": 0.0,
        "mean_q": STATE_RTOL,
        "se_q": STATE_RTOL,
        "mean_dist_S": STATE_RTOL,
        "mean_dist_V": STATE_RTOL,
        "censored_count": 0.0,
    },
    "q_series.csv": {
        "time": 1e-14,
        "kinetic_term": STATE_RTOL,
        "density_term": STATE_RTOL,
        "q_total": STATE_RTOL,
        "stopped": 0.0,
    },
    "mass_trace.csv": {
        "step": 0.0,
        "time": 1e-14,
        "mass": 1e-12,
        "min_rho": STATE_RTOL,
    },
}

MASS_DRIFT_RTOL = 1e-11  # |mass(t) - mass(0)| / mass(0) over a whole run


def output_files(workload, master_seeds) -> list[str]:
    """Output files a repetition must write, relative to its output directory."""
    if workload.kind == "study":
        return ["rate.csv"]
    return [os.path.join(f"seed{s}", name) for s in master_seeds for name in ("q_series.csv", "mass_trace.csv")]


def outputs_digest(out_dir, files) -> str:
    """One hash over the bytes of every compared output file."""
    h = hashlib.sha256()
    for rel in files:
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_columns(path) -> dict[str, list[float]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def compared_rows(columns) -> dict[str, list[float]]:
    n = len(next(iter(columns.values())))
    keep = sorted(set(range(0, n, ROW_STRIDE)) | {n - 1})
    return {name: [vals[i] for i in keep] for name, vals in columns.items()}


def invariant_problems(rel, columns) -> list[str]:
    problems = [f"{rel}: non-finite {name}" for name, vals in columns.items() if not all(map(math.isfinite, vals))]
    base = os.path.basename(rel)
    if base == "rate.csv" and any(columns["censored_count"]):
        problems.append(f"{rel}: censored samples {columns['censored_count']}")
    if base == "q_series.csv" and any(columns["stopped"]):
        problems.append(f"{rel}: the Sobolev guard stopped the run")
    if base == "mass_trace.csv":
        mass = columns["mass"]
        drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
        if not drift <= MASS_DRIFT_RTOL:
            problems.append(f"{rel}: fluid mass drift {drift:.3g} > {MASS_DRIFT_RTOL:g}")
        if not min(columns["min_rho"]) > 0.0:
            problems.append(f"{rel}: density not positive")
    return problems


def reference_problems(rel, got, ref) -> list[str]:
    tolerances = TOLERANCES[os.path.basename(rel)]
    problems = []
    for name, rtol in tolerances.items():
        want, have = ref[name], got[name]
        if len(want) != len(have):
            problems.append(f"{rel}: {name} has {len(have)} rows, reference {len(want)}")
            continue
        scale = max(abs(v) for v in want)
        worst = max(abs(a - b) for a, b in zip(have, want))
        if not worst <= rtol * scale:
            problems.append(f"{rel}: {name} off the reference by {worst:.3g} (allowed {rtol:g} x {scale:.3g})")
    return problems


def extract(workload, master_seeds, out_dir) -> dict:
    """Compared columns of every output file of one repetition."""
    out = {}
    for rel in output_files(workload, master_seeds):
        columns = read_columns(os.path.join(out_dir, rel))
        out[rel] = columns if workload.kind == "study" else compared_rows(columns)
    return out


def check_outputs(workload, master_seeds, out_dir, references) -> list[str]:
    """Problems found in one repetition's outputs; empty when they are correct.

    ``references`` maps relative file names to reference columns, or is None
    to check invariants only (smoke sizes have no recorded references).
    """
    problems = []
    for rel in output_files(workload, master_seeds):
        path = os.path.join(out_dir, rel)
        if not os.path.isfile(path):
            problems.append(f"{rel}: missing")
            continue
        columns = read_columns(path)
        problems += invariant_problems(rel, columns)
        if references is not None:
            if rel not in references:
                problems.append(f"{rel}: no reference recorded")
                continue
            got = columns if workload.kind == "study" else compared_rows(columns)
            problems += reference_problems(rel, got, references[rel])
    return problems


def load_references(workload, master_seeds) -> dict:
    with open(os.path.join(REF_DIR, f"{workload.name}.json"), encoding="ascii") as fh:
        recorded = json.load(fh)
    return {rel: cols for s in master_seeds for rel, cols in recorded.get(str(s), {}).items()}
