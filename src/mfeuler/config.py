"""Run configuration: structured-text (INI) parsing, validation, round-trip.

Every tunable lives in a named section; unknown sections or keys are rejected
with the offending name.  ``to_text`` emits a normalized form that parses back
to an identical configuration (floats are serialized with full round-trip
precision), which is what run manifests embed.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields as dc_fields

from .errors import ConfigError


@dataclass
class RunSection:
    master_seed: int = 12345
    output_dir: str = "mfeuler-out"
    threads: int = 1


@dataclass
class GridSection:
    dim: int = 1
    points_per_dim: int = 512
    period: float = 2.0 * math.pi


@dataclass
class KernelSection:
    family: str = "gaussian"
    width: float = 2.0
    beta: float = 0.5
    report_freq_window: float = 8.0
    report_space_window: float = 10.0
    report_ceiling: float = 1e3


@dataclass
class SigmaSection:
    family: str = "sinusoidal"
    base: float = 0.25
    modulation: float = 0.5


@dataclass
class InitSection:
    density_family: str = "bump"
    density_amplitude: float = 0.2
    density_concentration: float = 8.0
    velocity_family: str = "sine"
    velocity_amplitude: float = 0.1
    normalize: bool = True


@dataclass
class ParticlesSection:
    n: int = 1024
    init_scheme: str = "stratified"


@dataclass
class IntegratorSection:
    dt: float = 1e-3
    force_method: str = "particle_mesh"
    deposit_scheme: str = "linear"


@dataclass
class EulerSection:
    dealias_fraction: float = 2.0 / 3.0
    hyperviscosity_nu: float = 1e-8
    hyperviscosity_order: int = 4
    guard_s: float = 3.5
    guard_m: float = 50.0
    velocity_interpolation: str = "linear"


@dataclass
class StudySection:
    t_final: float = 0.2
    n_values: tuple = (256, 512, 1024, 2048, 4096, 8192)
    samples: int = 32
    alpha: float = 2.0
    freq_cutoff: int = 0  # 0 means grid Nyquist M/2


@dataclass
class OutputSection:
    q_stride: int = 1
    snapshot_stride: int = 0  # 0 means final snapshot only


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    grid: GridSection = field(default_factory=GridSection)
    kernel: KernelSection = field(default_factory=KernelSection)
    sigma: SigmaSection = field(default_factory=SigmaSection)
    init: InitSection = field(default_factory=InitSection)
    particles: ParticlesSection = field(default_factory=ParticlesSection)
    integrator: IntegratorSection = field(default_factory=IntegratorSection)
    euler: EulerSection = field(default_factory=EulerSection)
    study: StudySection = field(default_factory=StudySection)
    output: OutputSection = field(default_factory=OutputSection)

    def to_text(self) -> str:
        lines = []
        for section_name in _SECTION_ORDER:
            section = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            for f in dc_fields(section):
                lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
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
            if section_name not in _SECTION_ORDER:
                raise ConfigError(f"unknown config section: {section_name}")
            section = getattr(cfg, section_name)
            known = {f.name: f for f in dc_fields(section)}
            for key, raw in parser.items(section_name):
                if key not in known:
                    raise ConfigError(f"unknown config key: {section_name}.{key}")
                try:
                    value = _parse_value(raw, getattr(section, key))
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"bad value for {section_name}.{key}: {raw!r} ({exc})") from exc
                setattr(section, key, value)
        validate(cfg)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


_SECTION_ORDER = (
    "run",
    "grid",
    "kernel",
    "sigma",
    "init",
    "particles",
    "integrator",
    "euler",
    "study",
    "output",
)


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


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def validate(cfg: RunConfig) -> RunConfig:
    """Check every constraint, naming the offending key in the error."""
    from .kernels import FAMILIES
    from .noise import SIGMA_FAMILIES
    from .particles import FORCE_METHODS
    from .profiles import DENSITY_FAMILIES, VELOCITY_FAMILIES

    r = cfg.run
    _require(0 <= r.master_seed < 2**64, "run.master_seed must fit in 64 bits")
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
