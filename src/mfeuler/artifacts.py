"""On-disk artifact formats: field/trajectory binaries, CSVs, run manifests.

Binary layout is a short structured-text header (terminated by a blank line)
followed by raw little-endian float64 payloads in row-major order.  A CSV cell
is an integer (int, bool, numpy integer) or else the ``repr`` of a float, so
rerunning a configuration reproduces files byte-for-byte.
"""

from __future__ import annotations

import datetime
import math

import numpy as np

from .fields import GridField, PeriodicGrid
from .particles import ParticleState

FIELD_MAGIC = "mfeuler-field v1"
TRAJ_MAGIC = "mfeuler-particles v1"
_FIELD_KEYS = {"dim": int, "points_per_dim": int, "period": float}  # header keys and their types
_PARTICLE_KEYS = {"n": int, "dim": int, "time": float}


def _fmt(x) -> str:
    return repr(float(x))


def _cell(x) -> str:
    return str(int(x)) if isinstance(x, (int, np.integer, np.bool_)) else _fmt(x)


def _write_table(path, columns, rows):
    """The one CSV writer: a header of ``columns``, then a line per row, each cell formatted by ``_cell``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_binary(path, magic: str, keys: dict, header: tuple, *payloads):
    """Write what ``_read_binary`` reads: ``magic``, a ``key = value`` line per key, a blank line, the payloads.

    ``header`` holds the values in the order of ``keys``, each cast as ``keys`` maps it and printed by
    ``repr``; each payload follows as little-endian float64 in row-major order.
    """
    lines = [magic, *(f"{key} = {cast(value)!r}" for (key, cast), value in zip(keys.items(), header)), "", ""]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        for payload in payloads:
            fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


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


def write_field(path, field: GridField):
    g = field.grid
    _write_binary(path, FIELD_MAGIC, _FIELD_KEYS, (g.dim, g.points_per_dim, g.period), field.values)


def read_field(path) -> GridField:
    meta, values = _read_binary(path, FIELD_MAGIC, "field", _FIELD_KEYS, lambda m: _field_grid(m).shape)
    return GridField(_field_grid(meta), values)


def write_field_csv(path, field: GridField):
    if field.grid.dim != 1:
        raise ValueError("CSV export is defined for 1-d fields")
    _write_table(path, ("x", "value"), zip(field.grid.axis_coords, field.values))


def write_particles(path, state: ParticleState):
    header = (state.n_particles, state.dim, state.time)
    _write_binary(path, TRAJ_MAGIC, _PARTICLE_KEYS, header, state.positions, state.velocities)


def _particle_layout(meta) -> tuple:
    if meta["n"] < 0:
        raise ValueError(f"particle header n = {meta['n']} is negative")
    if meta["dim"] not in (1, 2):
        raise ValueError(f"particle header dim = {meta['dim']} is not 1 or 2")
    return (2, meta["n"], meta["dim"])


def read_particles(path) -> ParticleState:
    meta, values = _read_binary(path, TRAJ_MAGIC, "particle", _PARTICLE_KEYS, _particle_layout)
    pos, vel = values
    return ParticleState(pos, vel, meta["time"])


def write_q_series(path, records):
    rows = ((r.time, r.kinetic_term, r.density_term, r.q_total, r.stopped) for r in records)
    _write_table(path, ("time", "kinetic_term", "density_term", "q_total", "stopped"), rows)


def write_mass_trace(path, rows):
    """rows: iterable of (step, time, mass, min_rho)."""
    _write_table(path, ("step", "time", "mass", "min_rho"), rows)


def write_rate_csv(path, result):
    columns = ("N", "mean_q", "se_q", "mean_dist_S", "mean_dist_V", "censored_count")
    r = result
    _write_table(path, columns, zip(r.n_values, r.mean_q, r.se_q, r.mean_dist_s, r.mean_dist_v, r.censored_counts))


def write_rate_summary(path, result):
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
    lines += [f"note: {note}" for note in result.notes]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path, config_text, version, stopping=None, extra=None):
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = ["mfeuler run manifest", f"version: {version}", f"written_at: {now}"]
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
