"""Run configuration: structured-text (INI) parsing, validation, round-trip.

``DEFAULTS`` declares the configuration: every section, every key of a
section and its default, in the order ``to_text`` writes them.  A
``RunConfig`` holds one namespace per section, built from the table.  Unknown
sections or keys are rejected with the offending name, whether read from a
file or set in code, and so is a value of a type a file never gives its key.
``to_text`` emits a normalized form that parses back to an identical
configuration (floats are serialized with full round-trip precision), which
is what run manifests embed.
"""

from __future__ import annotations

import configparser
import math
from types import SimpleNamespace

from .errors import ConfigError, DensityNotNormalizable

DEFAULTS = {
    "run": {"master_seed": 12345, "output_dir": "mfeuler-out", "threads": 1},
    "grid": {"dim": 1, "points_per_dim": 512, "period": 2.0 * math.pi},
    "kernel": {
        "family": "gaussian",
        "width": 2.0,
        "beta": 0.5,
        "report_freq_window": 8.0,
        "report_space_window": 10.0,
        "report_ceiling": 1e3,
    },
    "sigma": {"family": "sinusoidal", "base": 0.25, "modulation": 0.5},
    "init": {
        "density_family": "bump",
        "density_amplitude": 0.2,
        "density_concentration": 8.0,
        "velocity_family": "sine",
        "velocity_amplitude": 0.1,
        "normalize": True,
    },
    "particles": {"n": 1024, "init_scheme": "stratified"},
    "integrator": {"dt": 1e-3, "force_method": "particle_mesh", "deposit_scheme": "linear"},
    "euler": {
        "dealias_fraction": 2.0 / 3.0,
        "hyperviscosity_nu": 1e-8,
        "hyperviscosity_order": 4,
        "guard_s": 3.5,
        "guard_m": 50.0,
        "velocity_interpolation": "linear",
    },
    "study": {
        "t_final": 0.2,
        "n_values": (256, 512, 1024, 2048, 4096, 8192),
        "samples": 32,
        "alpha": 2.0,
        "freq_cutoff": 0,  # 0 means grid Nyquist M/2
    },
    "output": {"q_stride": 1, "snapshot_stride": 0},  # snapshot_stride 0 means final snapshot only
}


class RunConfig(SimpleNamespace):
    """One ``SimpleNamespace`` per section of ``DEFAULTS``, holding its defaults; equal when every value is."""

    def __init__(self):
        super().__init__(**{name: SimpleNamespace(**keys) for name, keys in DEFAULTS.items()})

    def to_text(self) -> str:
        lines = []
        for section_name, keys in DEFAULTS.items():
            section = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            lines += [f"{key} = {_format_value(getattr(section, key))}" for key in keys]
            lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        cfg = cls()
        for section_name in parser.sections():
            if section_name not in DEFAULTS:
                raise ConfigError(f"unknown config section: {section_name}")
            known = DEFAULTS[section_name]
            for key, raw in parser.items(section_name):
                if key not in known:
                    raise ConfigError(f"unknown config key: {section_name}.{key}")
                try:
                    value = _parse_value(raw, known[key])
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"bad value for {section_name}.{key}: {raw!r} ({exc})") from exc
                setattr(getattr(cfg, section_name), key, value)
        validate(cfg)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_text(text)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(raw, template):
    raw = raw.strip()
    if isinstance(template, bool):
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError("expected a boolean")
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    return raw


# the types from_text gives a key, by the type of its default, and their name in an error
_TYPES = {
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a bool"),
    str: ((str,), "a string"),
    tuple: ((tuple,), "a tuple of ints"),
}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def validate(cfg: RunConfig) -> RunConfig:
    """Check every constraint, naming the offending key in the error."""
    from .kernels import FAMILIES
    from .noise import SIGMA_FAMILIES
    from .particles import FORCE_METHODS
    from .profiles import DENSITY_FAMILIES, VELOCITY_FAMILIES, DensityProfile

    for section_name in vars(cfg):
        _require(section_name in DEFAULTS, f"unknown config section: {section_name}")
    for section_name, keys in DEFAULTS.items():
        section = getattr(cfg, section_name)
        for key in vars(section):
            _require(key in keys, f"unknown config key: {section_name}.{key}")
        for key, default in keys.items():
            name, value = f"{section_name}.{key}", getattr(section, key)
            types, kind = _TYPES[type(default)]
            fits = type(value) in types and (type(value) is not tuple or all(type(v) is int for v in value))
            _require(fits, f"{name} must be {kind}, not {value!r}")
            if type(value) is float and name != "euler.guard_m":  # guard_m = inf means no guard
                _require(math.isfinite(value), f"{name} must be finite")

    r = cfg.run
    _require(0 <= r.master_seed < 2**64, "run.master_seed must fit in 64 bits")
    _require(r.output_dir != "", "run.output_dir must not be empty")
    _require(r.threads >= 1, "run.threads must be >= 1")

    g = cfg.grid
    _require(g.dim in (1, 2), "grid.dim must be 1 or 2")
    m = g.points_per_dim
    _require(m >= 8 and (m & (m - 1)) == 0, "grid.points_per_dim must be a power of two >= 8")
    _require(g.period > 0, "grid.period must be positive")

    k = cfg.kernel
    _require(k.family in FAMILIES, f"kernel.family must be one of {FAMILIES}")
    _require(k.width > 0, "kernel.width must be positive")
    _require(0.0 < k.beta < 1.0, "kernel.beta must lie in the open interval (0, 1)")
    _require(k.report_freq_window > 0, "kernel.report_freq_window must be positive")
    _require(k.report_space_window > 0, "kernel.report_space_window must be positive")
    _require(k.report_ceiling > 0, "kernel.report_ceiling must be positive")

    s = cfg.sigma
    _require(s.family in SIGMA_FAMILIES, f"sigma.family must be one of {SIGMA_FAMILIES}")

    i = cfg.init
    _require(i.density_family in DENSITY_FAMILIES, f"init.density_family must be one of {DENSITY_FAMILIES}")
    _require(i.velocity_family in VELOCITY_FAMILIES, f"init.velocity_family must be one of {VELOCITY_FAMILIES}")
    _require(i.density_concentration > 0, "init.density_concentration must be positive")
    try:  # the profile holds its family's positivity range for the amplitude
        density = DensityProfile(i.density_family, i.density_amplitude, i.density_concentration, g.period, g.dim, i.normalize)
    except ValueError as exc:
        raise ConfigError(f"init.density_amplitude: {exc}") from None
    if not i.normalize:  # a normalized profile has unit mass; only a raw one can miss it
        try:
            density.lattice_density()
        except DensityNotNormalizable as exc:
            raise ConfigError(f"init.normalize = false: {exc}") from None

    p = cfg.particles
    _require(p.n >= 1, "particles.n must be >= 1")
    _require(p.init_scheme in ("stratified", "iid"), "particles.init_scheme must be stratified or iid")
    _require(
        p.init_scheme == "iid" or g.dim == 1,
        "particles.init_scheme = stratified is defined for grid.dim = 1 only; use iid",
    )

    it = cfg.integrator
    _require(it.dt > 0, "integrator.dt must be positive")
    _require(it.force_method in FORCE_METHODS, f"integrator.force_method must be one of {FORCE_METHODS}")
    _require(it.deposit_scheme in ("nearest", "linear"), "integrator.deposit_scheme must be nearest or linear")

    e = cfg.euler
    _require(0.0 < e.dealias_fraction <= 1.0, "euler.dealias_fraction must lie in (0, 1]")
    _require(e.hyperviscosity_nu >= 0, "euler.hyperviscosity_nu must be nonnegative")
    _require(e.hyperviscosity_order >= 1, "euler.hyperviscosity_order must be >= 1")
    _require(e.guard_s > g.dim / 2.0 + 2.0, f"euler.guard_s must exceed dim/2 + 2 = {g.dim / 2 + 2}")
    _require(e.guard_m > 0, "euler.guard_m must be positive (inf allowed)")
    _require(
        e.velocity_interpolation in ("nearest", "linear", "spectral"),
        "euler.velocity_interpolation must be nearest, linear, or spectral",
    )

    st = cfg.study
    _require(st.t_final >= 0, "study.t_final must be nonnegative")
    steps = st.t_final / it.dt  # 0.6 / 1e-3 is 599.9999999999999
    whole = abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)
    _require(whole, "study.t_final must be a whole number of integrator.dt steps")
    _require(len(st.n_values) >= 1, "study.n_values must name at least one particle count")
    _require(all(n >= 1 for n in st.n_values), "study.n_values must be positive")
    _require(
        all(a < b for a, b in zip(st.n_values, st.n_values[1:])),
        "study.n_values must be strictly ascending",
    )
    _require(st.samples >= 1, "study.samples must be >= 1")
    _require(st.alpha > g.dim / 2.0 + 1.0, f"study.alpha must exceed dim/2 + 1 = {g.dim / 2 + 1}")
    _require(0 <= st.freq_cutoff <= m // 2, "study.freq_cutoff must lie in [0, points_per_dim/2]")

    o = cfg.output
    _require(o.q_stride >= 1, "output.q_stride must be >= 1")
    _require(o.snapshot_stride >= 0, "output.snapshot_stride must be >= 0")
    return cfg
