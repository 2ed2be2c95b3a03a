"""Spans around polarvol's public functions, recorded from outside the package.

`Tracer.install()` (run in the benchmark's child process) wraps the
functions listed in WRAPPED and rebinds every wrapper in each `polarvol.*`
namespace that imported the name, so `volume.polar_contains` and
`geom.polar_contains` are both traced.  Spans are kept in memory and
written out when the child ends; nothing in the package is edited.

`summarize()` (run in run.py, which never imports polarvol) turns the
spans into the per-layer metrics.  Self time is attributed so that the
layers' self times add up to the traced wall time even though Monte Carlo
chunks run in pool threads:

- within one thread, a span's self segments are its interval minus its
  direct children's intervals;
- at each instant the wall time is split evenly among the threads whose
  innermost span is working; a thread blocked in the chunk pool (the
  `.pool` span) gets a share only when no other thread is working.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# layer -> public functions wrapped in the traced run
WRAPPED = {
    "geom": (
        "support_values", "gauge_support", "polar_contains", "polar_sampling_radius",
        "polar_bounding_radius", "hausdorff_estimate", "hpolytope_vertices",
    ),
    "measure": (
        "rho_eval", "level_radius", "total_mass", "radial_mass_in_ball", "check_condnu2",
        "sample_density", "sample_uniform_ball", "sample_radial_measure",
        "nu_plus_hyperplane", "rearrange_density",
    ),
    "volume": (
        "mc_polar_measure", "layer_cake_measure", "halfspace_volume",
        "exact_polar_volume_crosspoly",
    ),
    "analysis": (
        "shadow_profile", "convexity_even_check", "busemann_gauge", "ball_bobkov_gauge",
        "milman_pajor_gauge", "brunn_profile", "rbll_check_1d", "rearrange_step1d",
        "spot_check_neg_recip_concavity",
    ),
    "experiments": (
        "santalo_expectation_experiment", "stochastic_dominance_experiment",
        "convergence_experiment", "centroid_polar_experiment", "newsan_experiment",
        "centroid_body_oracle", "body_volume_exact",
    ),
}
RNG_METHODS = ("generator", "chunk_generator")
# experiment entry points whose spans carry process CPU time and trial counts
EXPERIMENT_RUNS = (
    "santalo_expectation_experiment", "stochastic_dominance_experiment",
    "convergence_experiment", "centroid_polar_experiment", "newsan_experiment",
)
SUPPORT_KINDS = {
    "MatrixImageBody": "matrix_image", "HPolytopeBody": "hpolytope",
    "SupportOracleBody": "oracle", "BallBody": "ball",
}

# span record layout: [id, parent id, thread id, key, site, start, end, extra]
ID, PARENT, TID, KEY, SITE, T0, T1, EXTRA = range(8)


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, key, site, fn, args, kwargs, parent=None, extra=None):
        """Call fn inside a span; `extra(args, kwargs, out)` returns its counts."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        timed_cpu = key.startswith("experiments.")
        cpu0 = time.process_time() if timed_cpu else 0.0
        t0 = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            counts = None
            if timed_cpu:
                counts = [time.process_time() - cpu0, _trials(key, args)]
            elif extra is not None and out is not None:
                counts = extra(args, kwargs, out)
            self.spans.append([sid, parent, threading.get_ident(), key, site, t0, t1, counts])

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def install(self) -> None:
        """Wrap WRAPPED, the RngStream methods and the chunk runner."""
        import polarvol.cli  # noqa: F401  (loads every polarvol module)
        from polarvol import rng, volume

        modules = [m for name, m in sys.modules.items() if name.startswith("polarvol")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"polarvol.{layer}"]
            for name in names:
                orig = getattr(home, name)
                key = f"{layer}.{name}"
                extra = _accepts if name == "polar_contains" else None
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            site = mod.__name__.rpartition(".")[2]
                            if name == "support_values":
                                wrapper = self._support_wrapper(orig, site)
                            else:
                                wrapper = self._wrapper(orig, key, site, extra)
                            setattr(mod, attr, wrapper)
        for name in RNG_METHODS:
            setattr(rng.RngStream, name, self._wrapper(getattr(rng.RngStream, name), f"rng.{name}", "rng", None))
        volume._run_chunks = self._chunk_runner(volume._run_chunks)

    def _wrapper(self, fn, key, site, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(key, site, fn, args, kwargs, extra=extra)

        return traced

    def _support_wrapper(self, fn, site):
        @functools.wraps(fn)
        def traced(body, Y, *args, **kwargs):
            kind = SUPPORT_KINDS.get(type(body).__name__, "other")
            return self.run(f"geom.support_values.{kind}", site, fn, (body, Y) + args, kwargs, extra=_rows)

        return traced

    def _chunk_runner(self, run_chunks):
        """Spans for the chunk pool (waiting) and for each chunk, in its own thread."""

        @functools.wraps(run_chunks)
        def traced(budget, worker, threads=1):
            pool = []

            def start(*args):
                pool.append(self.current())
                return run_chunks(*args)

            def chunk(k, size):
                # inline chunks nest under the pool span; pool threads name it as parent
                parent = None if self._stack() else pool[0]
                return self.run(
                    "volume.mc_polar_measure.chunk", "volume", worker, (k, size), {},
                    parent=parent, extra=_chunk_size,
                )

            return self.run("volume.mc_polar_measure.pool", "volume", start, (budget, chunk, threads), {})

        return traced


def _trials(key, args) -> int:
    cfg = args[0] if args else None
    return int(getattr(cfg, "trials", 0)) if key.endswith("_experiment") else 0


def _rows(args, kwargs, out):
    return [len(out)]


def _chunk_size(args, kwargs, out):
    return [args[1]]


def _accepts(args, kwargs, out):
    return [int(out.size), int(out.sum())]



# ---------------------------------------------------------------------------
# run.py side: spans -> per-layer metrics


def _self_segments(spans):
    """(start, end, key) pieces of each span not covered by a same-thread child."""
    children = defaultdict(list)
    for s in spans:
        children[(s[TID], s[PARENT])].append(s)
    segments = []
    for s in spans:
        cursor = s[T0]
        for c in sorted(children.get((s[TID], s[ID]), ()), key=lambda c: c[T0]):
            if c[T0] > cursor:
                segments.append((cursor, c[T0], s[KEY]))
            cursor = max(cursor, c[T1])
        if s[T1] > cursor:
            segments.append((cursor, s[T1], s[KEY]))
    return segments


def attributed_self_time(spans) -> dict:
    """key -> wall seconds, concurrent time split evenly among working threads."""
    segments = _self_segments(spans)
    events = []
    for i, (a, b, _) in enumerate(segments):
        events.append((a, 1, i))
        events.append((b, 0, i))
    events.sort()
    out = defaultdict(float)
    active = set()
    last = None
    for t, is_start, i in events:
        if active and last is not None and t > last:
            dt = t - last
            working = [j for j in active if not segments[j][2].endswith(".pool")]
            share = working or list(active)
            for j in share:
                out[segments[j][2]] += dt / len(share)
        if is_start:
            active.add(i)
        else:
            active.discard(i)
        last = t
    return out


LAYERS = ("cli", "experiments", "volume", "geom", "measure", "analysis", "rng")


def summarize(spans, wall_s: float, report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass over a workload's ops."""
    self_t = attributed_self_time(spans)
    calls = defaultdict(int)
    dur = defaultdict(float)
    sums = defaultdict(lambda: [0.0, 0.0])
    accept = [0, 0]
    for s in spans:
        key = s[KEY]
        calls[key] += 1
        dur[key] += s[T1] - s[T0]
        if s[EXTRA]:
            acc = sums[key]
            for j, v in enumerate(s[EXTRA][:2]):
                acc[j] += v
        if key == "geom.polar_contains" and s[SITE] == "volume" and s[EXTRA]:
            accept[0] += s[EXTRA][0]
            accept[1] += s[EXTRA][1]

    def self_of(prefix):
        return sum(v for k, v in self_t.items() if k == prefix or k.startswith(prefix + "."))

    def calls_of(*keys):
        return sum(calls[k] for k in keys)

    support_keys = [k for k in calls if k.startswith("geom.support_values.")]
    exp_runs = [f"experiments.{n}" for n in EXPERIMENT_RUNS]
    trial_runs = exp_runs[:2]
    exp_wall = sum(dur[k] for k in exp_runs)
    exp_cpu = sum(sums[k][0] for k in exp_runs)
    trial_wall = sum(dur[k] for k in trial_runs)
    trials = sum(sums[k][1] for k in trial_runs)
    mc_calls = calls["volume.mc_polar_measure"]
    mc_wall = dur["volume.mc_polar_measure"]
    samples = sums["volume.mc_polar_measure.chunk"][0]
    chunks = calls["volume.mc_polar_measure.chunk"]
    total_self = sum(self_t.values())

    m = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
    m.update({
        "cli.report_bytes": report_bytes,
        "experiments.trials_per_s": trials / trial_wall if trial_wall > 0 else 0.0,
        "experiments.cpu_per_wall": exp_cpu / exp_wall if exp_wall > 0 else 0.0,
        "rng.streams": calls_of("rng.generator", "rng.chunk_generator"),
        "geom.support_values.calls": calls_of(*support_keys),
        "geom.support_values.rows": sum(sums[k][0] for k in support_keys),
        "geom.support_values.matrix_image.self_s": self_of("geom.support_values.matrix_image"),
        "geom.support_values.hpolytope.self_s": self_of("geom.support_values.hpolytope"),
        "geom.support_values.oracle.self_s": self_of("geom.support_values.oracle"),
        "geom.hpolytope_vertices.calls": calls["geom.hpolytope_vertices"],
        "geom.polar_sampling_radius.calls": calls["geom.polar_sampling_radius"],
        "geom.polar_sampling_radius.self_s": self_of("geom.polar_sampling_radius"),
        "geom.hausdorff_estimate.self_s": self_of("geom.hausdorff_estimate"),
        "measure.rho_eval.calls": calls["measure.rho_eval"],
        "measure.rho_eval.self_s": self_of("measure.rho_eval"),
        "measure.level_radius.calls": calls["measure.level_radius"],
        "measure.level_radius.self_s": self_of("measure.level_radius"),
        "measure.sampling.self_s": sum(
            self_of(f"measure.{n}") for n in ("sample_density", "sample_uniform_ball", "sample_radial_measure")
        ),
        "measure.nu_plus_hyperplane.calls": calls["measure.nu_plus_hyperplane"],
        "measure.nu_plus_hyperplane.self_s": self_of("measure.nu_plus_hyperplane"),
        "measure.total_mass.self_s": self_of("measure.total_mass"),
        "volume.mc_polar_measure.calls": mc_calls,
        "volume.mc_polar_measure.self_s": self_of("volume.mc_polar_measure"),
        "volume.samples": samples,
        "volume.samples_per_s": samples / mc_wall if mc_wall > 0 else 0.0,
        "volume.chunks_per_call": chunks / mc_calls if mc_calls else 0.0,
        "volume.accept_ratio": accept[1] / accept[0] if accept[0] else 0.0,
        "volume.halfspace_volume.calls": calls["volume.halfspace_volume"],
        "volume.halfspace_volume.self_s": self_of("volume.halfspace_volume"),
        "volume.exact_polar_volume_crosspoly.self_s": self_of("volume.exact_polar_volume_crosspoly"),
        "analysis.rbll_check_1d.calls": calls["analysis.rbll_check_1d"],
        "analysis.rbll_check_1d.self_s": self_of("analysis.rbll_check_1d"),
        "analysis.busemann_gauge.self_s": self_of("analysis.busemann_gauge"),
        "analysis.shadow_profile.self_s": self_of("analysis.shadow_profile"),
        "analysis.ball_bobkov_gauge.self_s": self_of("analysis.ball_bobkov_gauge"),
        "trace.wall_s": wall_s,
        "trace.coverage": total_self / wall_s if wall_s > 0 else 0.0,
    })
    return m
