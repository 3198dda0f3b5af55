"""The four benchmark workloads and how a workload seed becomes program inputs.

Each workload is the default ``RunConfig`` plus a few overrides.  Why each
workload exists and which layers it stresses is written up in README.md.

The workload seed picks one of ``REFERENCE_SEEDS`` recorded master seeds
(``seed % REFERENCE_SEEDS``), so every run's outputs can be compared with a
reference recorded when the benchmark was defined (see check.py).
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "study": coupling.monte_carlo_rate; "coupled": cli run-coupled
    overrides: dict
    smoke_overrides: dict
    seeds_per_run: int = 1  # run-coupled invocations per measured repetition

    def master_seeds(self, seed: int) -> list[int]:
        """Master seeds of the program runs one repetition makes for ``seed``."""
        base = int(seed) % REFERENCE_SEEDS
        return [base * self.seeds_per_run + j for j in range(self.seeds_per_run)]

    def config(self, seed: int, smoke: bool = False):
        """The validated ``RunConfig`` of this workload for a workload seed."""
        from mfeuler.config import RunConfig, validate

        cfg = RunConfig()
        edits = dict(self.overrides)
        if smoke:
            edits.update(self.smoke_overrides)
        for key, value in edits.items():
            section, name = key.split(".")
            setattr(getattr(cfg, section), name, value)
        cfg.run.master_seed = self.master_seeds(seed)[0]
        return validate(cfg)

    def particle_steps(self, cfg) -> int:
        """Sum over particle systems of N x steps x samples for one repetition.

        The output check requires that no run stopped early, so every system
        takes the nominal step count.
        """
        steps = int(round(cfg.study.t_final / cfg.integrator.dt))
        if self.kind == "study":
            return sum(cfg.study.n_values) * steps * cfg.study.samples
        return cfg.particles.n * steps * self.seeds_per_run


_SMOKE_1D = {"grid.points_per_dim": 128, "study.t_final": 0.005}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-1d",
            "study",
            {"study.samples": 1},
            {**_SMOKE_1D, "study.n_values": (64, 128, 256)},
        ),
        Workload(
            "coupled-1d",
            "coupled",
            {},
            {**_SMOKE_1D, "particles.n": 64},
            seeds_per_run=4,
        ),
        Workload(
            "study-2d",
            "study",
            {
                "grid.dim": 2,
                "grid.points_per_dim": 64,
                "kernel.width": 1.0,
                "particles.init_scheme": "iid",
                "study.alpha": 2.5,
                "study.n_values": (256, 1024, 2048),
                "study.samples": 1,
                "study.t_final": 0.02,
                "study.freq_cutoff": 16,
            },
            {"study.n_values": (256, 512, 1024), "study.t_final": 0.002, "study.freq_cutoff": 4},
        ),
        Workload(
            "coupled-bump",
            "coupled",
            {"kernel.family": "bump", "study.t_final": 0.04},
            {**_SMOKE_1D, "particles.n": 64},
        ),
    )
}
