"""On-disk artifact formats: field/trajectory binaries, CSVs, run manifests.

Binary layout is a short structured-text header (terminated by a blank line)
followed by raw little-endian float64 payloads in row-major order.  CSV floats
are written with ``repr`` so rerunning a configuration reproduces files
byte-for-byte.
"""

from __future__ import annotations

import datetime
import math
import os

import numpy as np

from .fields import GridField, PeriodicGrid
from .particles import ParticleState

FIELD_MAGIC = "mfeuler-field v1"
TRAJ_MAGIC = "mfeuler-particles v1"


def _fmt(x) -> str:
    return repr(float(x))


def write_field(path, field: GridField):
    header = (
        f"{FIELD_MAGIC}\n"
        f"dim = {field.grid.dim}\n"
        f"points_per_dim = {field.grid.points_per_dim}\n"
        f"period = {_fmt(field.grid.period)}\n"
        "\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _read_binary(path, magic: str, kind: str, keys: dict, layout):
    """Header fields, typed as ``keys`` maps them, and float64 payload of a binary artifact.

    ``layout(meta)`` is the payload's array shape, or a ValueError when the
    header describes none.  Raises ValueError naming ``path`` unless the
    header is ASCII, starts with ``magic``, holds a ``key = value`` line for
    every key, ends in a blank line and describes a layout, and the payload
    holds exactly that many finite values.
    """
    with open(path, "rb") as fh:
        head, blank, payload = fh.read().partition(b"\n\n")
    if not (blank and head.isascii()):
        raise ValueError(f"{path}: {kind} header is not ASCII text ending in a blank line")
    lines = head.decode("ascii").splitlines()
    if lines[:1] != [magic]:
        raise ValueError(f"{path}: not a {kind} file")
    raw = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"{path}: {kind} header line {line!r} is not 'key = value'")
        raw[key] = value
    try:
        meta = {key: cast(raw[key]) for key, cast in keys.items()}
    except KeyError as exc:
        raise ValueError(f"{path}: {kind} header has no key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {kind} header value: {exc}") from None
    try:
        shape = layout(meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    size = 8 * math.prod(shape)
    if len(payload) != size:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, expected {size}")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: {kind} values must be finite")
    return meta, values.reshape(shape).copy()


def _field_grid(meta) -> PeriodicGrid:
    return PeriodicGrid(meta["dim"], meta["points_per_dim"], meta["period"])


def read_field(path) -> GridField:
    keys = {"dim": int, "points_per_dim": int, "period": float}
    meta, values = _read_binary(path, FIELD_MAGIC, "field", keys, lambda m: _field_grid(m).shape)
    return GridField(_field_grid(meta), values)


def write_field_csv(path, field: GridField):
    if field.grid.dim != 1:
        raise ValueError("CSV export is defined for 1-d fields")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,value\n")
        for x, v in zip(field.grid.axis_coords, field.values):
            fh.write(f"{_fmt(x)},{_fmt(v)}\n")


def write_particles(path, state: ParticleState):
    header = (
        f"{TRAJ_MAGIC}\n"
        f"n = {state.n_particles}\n"
        f"dim = {state.dim}\n"
        f"time = {_fmt(state.time)}\n"
        "\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(state.positions, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.velocities, dtype="<f8").tobytes())


def _particle_layout(meta) -> tuple:
    if meta["n"] < 0:
        raise ValueError(f"particle header n = {meta['n']} is negative")
    if meta["dim"] not in (1, 2):
        raise ValueError(f"particle header dim = {meta['dim']} is not 1 or 2")
    return (2, meta["n"], meta["dim"])


def read_particles(path) -> ParticleState:
    keys = {"n": int, "dim": int, "time": float}
    meta, values = _read_binary(path, TRAJ_MAGIC, "particle", keys, _particle_layout)
    pos, vel = values
    return ParticleState(pos, vel, meta["time"])


def write_q_series(path, records):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("time,kinetic_term,density_term,q_total,stopped\n")
        for r in records:
            fh.write(
                f"{_fmt(r.time)},{_fmt(r.kinetic_term)},{_fmt(r.density_term)},"
                f"{_fmt(r.q_total)},{int(r.stopped)}\n"
            )


def write_mass_trace(path, rows):
    """rows: iterable of (step, time, mass, min_rho)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,time,mass,min_rho\n")
        for step, time, mass, min_rho in rows:
            fh.write(f"{step},{_fmt(time)},{_fmt(mass)},{_fmt(min_rho)}\n")


def write_rate_csv(path, result):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("N,mean_q,se_q,mean_dist_S,mean_dist_V,censored_count\n")
        for i, n in enumerate(result.n_values):
            fh.write(
                f"{n},{_fmt(result.mean_q[i])},{_fmt(result.se_q[i])},"
                f"{_fmt(result.mean_dist_s[i])},{_fmt(result.mean_dist_v[i])},"
                f"{int(result.censored_counts[i])}\n"
            )


def rate_summary_text(result) -> str:
    def fmt_slope(s):
        return "degenerate" if s is None else _fmt(s)

    lines = [
        "mfeuler rate study summary",
        f"beta: {_fmt(result.beta)}",
        f"dim: {result.dim}",
        f"alpha: {_fmt(result.alpha)}",
        f"t_final: {_fmt(result.t_final)}",
        f"guard_m: {_fmt(result.guard_m)}",
        f"samples: {result.samples}",
        f"n_values: {','.join(str(n) for n in result.n_values)}",
        f"freq_cutoff: {result.freq_cutoff}",
        f"dist_tail_bound: {_fmt(result.dist_tail_bound)}",
        f"target_slope: {_fmt(result.target_slope)}",
        f"slope_q: {fmt_slope(result.slope_q)}",
        f"slope_q_adjusted: {fmt_slope(result.slope_q_adjusted)}",
        f"slope_dist_s: {fmt_slope(result.slope_dist_s)}",
        f"slope_dist_v: {fmt_slope(result.slope_dist_v)}",
        f"r2_q: {fmt_slope(result.r2_q)}",
        f"mean_q0: {','.join(_fmt(v) for v in result.mean_q0)}",
        f"censored_total: {int(result.censored_counts.max()) if len(result.censored_counts) else 0}",
    ]
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def write_rate_summary(path, result):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(rate_summary_text(result))


def write_manifest(path, config_text, version, stopping=None, extra=None, timestamp=True):
    lines = ["mfeuler run manifest", f"version: {version}"]
    if timestamp:
        lines.append(f"written_at: {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    if stopping is None:
        lines.append("stopping: none")
    else:
        lines.append(
            "stopping: "
            f"step={stopping.step_index} time={_fmt(stopping.time)} "
            f"norm={_fmt(stopping.norm_value)} threshold={_fmt(stopping.threshold)} "
            f"reason={stopping.reason}"
        )
    for key, value in (extra or {}).items():
        lines.append(f"{key}: {value}")
    lines.append("")
    lines.append("[resolved config]")
    lines.append(config_text.rstrip("\n"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
