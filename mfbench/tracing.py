"""Spans around mfeuler's public functions, installed from outside the package.

``Tracer.install`` replaces each public function named in ``LAYER_METRICS``
with a wrapper in every module namespace that calls it (a function imported
by name, such as ``fields.deposit`` inside ``particles``, is patched there
too), wraps ``numpy.fft`` and counts ``GridField`` constructions.  Spans are
kept in memory as ``[name, start, end, parent, amount]`` and written out by
``Tracer.dump``; ``layer_metrics`` turns a dump into the per-layer metrics.
The tracer keeps one span stack, so it assumes a single thread (every
workload uses ``run.threads = 1``).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (metric name, unit, span or counter name, aggregate)
LAYER_METRICS = [
    ("coupling.monte_carlo_rate.self_s", "s", "coupling.monte_carlo_rate", "self_s"),
    ("coupling.coupled_step.calls", "count", "coupling.coupled_step", "calls"),
    ("coupling.coupled_step.self_s", "s", "coupling.coupled_step", "self_s"),
    ("coupling.q_functional.calls", "count", "coupling.q_functional", "calls"),
    ("coupling.q_functional.s", "s", "coupling.q_functional", "s"),
    ("coupling.mollified_density.s", "s", "coupling.mollified_density", "s"),
    ("coupling.mean_field_distances.calls", "count", "coupling.mean_field_distances", "calls"),
    ("coupling.mean_field_distances.s", "s", "coupling.mean_field_distances", "s"),
    ("fields.measure_mode_coefficients.s", "s", "fields.measure_mode_coefficients", "s"),
    ("fields.measure_mode_coefficients.terms", "count", "fields.measure_mode_coefficients", "amount"),
    ("fields.measure_mode_coefficients.bytes", "B", "fields.measure_mode_coefficients", "bytes"),
    ("particles.step.calls", "count", "particles.step", "calls"),
    ("particles.step.self_s", "s", "particles.step", "self_s"),
    ("particles.force_particle_mesh.s", "s", "particles.force_particle_mesh", "s"),
    ("particles.deposit_spectrum.calls", "count", "particles.deposit_spectrum", "calls"),
    ("particles.deposit_spectrum.s", "s", "particles.deposit_spectrum", "s"),
    ("particles.gather.s", "s", "particles.gather", "s"),
    ("fields.deposit.calls", "count", "fields.deposit", "calls"),
    ("fields.deposit.s", "s", "fields.deposit", "s"),
    ("fields.deposit.points", "count", "fields.deposit", "amount"),
    ("fields.interpolate.s", "s", "fields.interpolate", "s"),
    ("fields.interpolate.points", "count", "fields.interpolate", "amount"),
    ("fields.sample_kernel.calls", "count", "fields.sample_kernel", "calls"),
    ("fields.sample_kernel.s", "s", "fields.sample_kernel", "s"),
    ("fields.sample_kernel.reuse_ratio", "ratio", "fields.sample_kernel", "reuse_ratio"),
    ("kernels.potential_gradient.calls", "count", "kernels.potential_gradient", "calls"),
    ("kernels.potential_gradient.points", "count", "kernels.potential_gradient", "amount"),
    ("kernels.potential_gradient.s", "s", "kernels.potential_gradient", "s"),
    ("fft.calls", "count", "fft", "calls"),
    ("fft.s", "s", "fft", "s"),
    ("fft.points", "count", "fft", "amount"),
    ("fields.GridField.constructions", "count", "fields.GridField.constructions", "counter"),
    ("fluid.step.calls", "count", "fluid.step", "calls"),
    ("fluid.step.s", "s", "fluid.step", "s"),
    ("fluid.step_drift.s", "s", "fluid.step_drift", "s"),
    ("fluid.noise_step.s", "s", "fluid.noise_step", "s"),
    ("fluid.stopping_guard.s", "s", "fluid.stopping_guard", "s"),
    ("fluid.sample_velocity.s", "s", "fluid.sample_velocity", "s"),
    ("particles.init_well_prepared.s", "s", "particles.init_well_prepared", "s"),
    ("noise.NoisePath.generate.s", "s", "noise.NoisePath.generate", "s"),
    ("config.validate.s", "s", "config.validate", "s"),
    ("artifacts.write.s", "s", "artifacts.write", "s"),
    ("artifacts.bytes", "B", "artifacts.write", "amount"),
]

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT_METRICS = [m for m, unit, _, _ in LAYER_METRICS if unit == "count"] + [
    "fields.measure_mode_coefficients.bytes",
    "fields.sample_kernel.reuse_ratio",
]

COMPLEX_BYTES = 16  # one complex128 entry of the modes x points phase matrix


def _n_rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.grid_fields = 0
        self.kernel_samples = set()

    def span(self, name, fn, amount=None):
        """``fn`` wrapped to record one span per call; ``amount(args, result)`` sizes the work."""

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if amount is not None:
                rec[4] = int(amount(args, result))
            return result

        return traced

    def _patch(self, name, namespaces, attr, amount=None):
        wrapper = self.span(name, getattr(namespaces[0], attr), amount)
        for ns in namespaces:
            setattr(ns, attr, wrapper)

    def _kernel_sampled(self, args, result):
        grid = args[0]
        digest = hashlib.blake2b(np.ascontiguousarray(result).tobytes(), digest_size=16).digest()
        self.kernel_samples.add((grid, digest))
        return 0

    def install(self):
        import numpy.fft

        from mfeuler import artifacts, cli, config, coupling, fields, fluid, kernels, noise, particles

        self._patch("config.validate", [config, cli], "validate")
        for fn in ("build_run", "coupled_step", "q_functional", "mollified_density", "mean_field_distances", "monte_carlo_rate"):
            self._patch(f"coupling.{fn}", [coupling], fn)
        for fn in ("step", "force_particle_mesh", "deposit_spectrum", "gather", "init_well_prepared"):
            self._patch(f"particles.{fn}", [particles], fn)
        for fn in ("step", "step_drift", "noise_step", "stopping_guard", "sample_velocity"):
            self._patch(f"fluid.{fn}", [fluid], fn)
        self._patch("fields.deposit", [fields, particles], "deposit", lambda a, r: a[0].n_points)
        self._patch("fields.interpolate", [fields, particles, fluid], "interpolate", lambda a, r: _n_rows(a[1]))
        self._patch("fields.sample_kernel", [fields, particles], "sample_kernel", self._kernel_sampled)
        self._patch(
            "fields.measure_mode_coefficients",
            [fields],
            "measure_mode_coefficients",
            lambda a, r: r.shape[0] * a[0].n_points,
        )
        self._patch("kernels.potential_gradient", [kernels.ScaledKernel], "potential_gradient", lambda a, r: _n_rows(a[1]))
        noise.NoisePath.generate = staticmethod(self.span("noise.NoisePath.generate", noise.NoisePath.generate))
        for fn in ("fftn", "ifftn", "rfftn", "irfftn"):
            self._patch("fft", [numpy.fft], fn, lambda a, r: np.size(a[0]))
        for fn in dir(artifacts):
            if fn.startswith("write_"):
                self._patch("artifacts.write", [artifacts], fn, lambda a, r: os.path.getsize(a[0]))

        post_init = fields.GridField.__post_init__

        def counted_post_init(obj):
            self.grid_fields += 1
            post_init(obj)

        fields.GridField.__post_init__ = counted_post_init
        return self

    def dump(self, path):
        counters = {
            "fields.GridField.constructions": self.grid_fields,
            "fields.sample_kernel.distinct": len(self.kernel_samples),
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def layer_metrics(doc) -> dict:
    """Per-layer metrics of one traced run from its span dump.

    A span's self time is its duration minus its direct children's
    durations; in one thread the children are disjoint, so that sum is the
    part of the span they cover.
    """
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
    for i, (name, start, end, _, amount) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += end - start - covered[i]
        a["amount"] += amount
    counters = doc["counters"]
    out = {}
    for metric, _, source, kind in LAYER_METRICS:
        a = agg[source]
        if kind == "counter":
            out[metric] = counters[source]
        elif kind == "bytes":
            out[metric] = a["amount"] * COMPLEX_BYTES
        elif kind == "reuse_ratio":
            out[metric] = counters["fields.sample_kernel.distinct"] / a["calls"] if a["calls"] else 0.0
        else:
            out[metric] = a[kind]
    return out
