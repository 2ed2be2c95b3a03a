"""Estimators of ν(K°): Monte Carlo with honest error bars, a
layer-cake reduction to balls, and exact polytope volumes in any
dimension n >= 2 (qhull) plus a clip for general polygons.

Monte Carlo runs are chunked into fixed 2^16-sample blocks, chunk k
drawing from stream sub-key k, and merged in chunk order; the result is
bit-identical for a given (seed, stream, budget) no matter how many
workers execute the chunks.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from . import measure
from .geom import (
    Body,
    GeometryError,
    UnboundedBody,
    halfspace_vertices,
    polar_contains,
    polar_sampling_radius,
    unit_ball_volume,
)
from .measure import RadialMeasure, rho_eval, total_mass
from .rng import RngStream

__all__ = [
    "Estimate",
    "EstimationError",
    "mc_polar_measure",
    "layer_cake_measure",
    "exact_polar_volume_crosspoly",
    "halfspace_volume",
    "default_level_grid",
    "CHUNK",
]

CHUNK = 1 << 16


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _merge_chunks(chunks):
    """Welford combination of per-chunk (count, mean, M2), in order."""
    count, mean, m2 = 0, 0.0, 0.0
    for c, mu, s2 in chunks:
        if c == 0:
            continue
        delta = mu - mean
        tot = count + c
        mean += delta * c / tot
        m2 += s2 + delta * delta * count * c / tot
        count = tot
    return count, mean, m2


def _chunk_stats(values: np.ndarray):
    c = values.size
    mu = float(values.mean())
    m2 = float(((values - mu) ** 2).sum())
    return c, mu, m2


def _run_chunks(budget: int, worker, threads: int = 1):
    sizes = []
    left = int(budget)
    while left > 0:
        take = min(CHUNK, left)
        sizes.append(take)
        left -= take
    if threads <= 1 or len(sizes) == 1:
        results = [worker(k, sz) for k, sz in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(len(sizes)), sizes))
    count, mean, m2 = _merge_chunks(results)
    var = m2 / (count - 1) if count > 1 else 0.0
    stderr = math.sqrt(var / count) if count > 0 else math.inf
    return mean, stderr, count


def mc_polar_measure(
    body: Body,
    m: RadialMeasure,
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> "Estimate":
    """Monte Carlo estimate of ν(K°) with its standard error.

    Bounded polar: sample uniformly in a certified bounding ball and
    average ρ(|Y|)·1{Y ∈ K°} times the ball volume.  Unbounded polar
    with finite-mass ν: sample Y ~ ν/ν(R^n) and average the membership
    indicator times the total mass.  Refuses when neither applies.
    """
    if body.dim != m.dim:
        raise EstimationError("body and measure dimensions differ")
    if budget < 1:
        raise EstimationError("budget must be >= 1")
    n = body.dim
    try:
        rstar = polar_sampling_radius(body)
    except UnboundedBody:
        rstar = math.inf
    if math.isfinite(rstar):
        vol_box = unit_ball_volume(n) * rstar ** n
        draw = lambda gen, size: measure.ball_points(gen, size, n, rstar)
        weight = lambda Y: vol_box * rho_eval(m, np.linalg.norm(Y, axis=1))
    else:
        mass = total_mass(m)
        if math.isinf(mass):
            raise EstimationError(
                "polar is unbounded and the measure has infinite mass: "
                "no rigorous estimator applies to this configuration"
            )
        draw = measure.radial_sampler(m)
        weight = lambda Y: mass

    def worker(k: int, size: int):
        Y = draw(rng.chunk_generator(k), size)
        return _chunk_stats(weight(Y) * polar_contains(body, Y))

    return Estimate(*_run_chunks(budget, worker, threads), rng.seed)


def default_level_grid(m: RadialMeasure, levels: int = 64) -> np.ndarray:
    """Geometric grid of 64 levels between ρ(0) and ρ(0)·1e-6."""
    top = float(rho_eval(m, 0.0))
    return np.geomspace(top * 1e-6, top, levels)


def layer_cake_measure(
    body: Body,
    m: RadialMeasure,
    level_grid: np.ndarray,
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> Estimate:
    """ν(K°) via ν(A) = ∫_0^{ρ(0)} |A ∩ R(t)B_2^n| dt.

    Each level's ball intersection is estimated on shared sample
    points; the per-point estimator integrates the level indicator so
    the reported stderr is honest.
    """
    if body.dim != m.dim:
        raise EstimationError("body and measure dimensions differ")
    n = body.dim
    levels = np.sort(np.asarray(level_grid, dtype=float))
    top = float(rho_eval(m, 0.0))
    if not math.isfinite(top):
        raise EstimationError("layer cake needs finite rho(0)")
    if levels.size < 1 or levels[0] <= 0 or levels[-1] > top * (1 + 1e-12):
        raise EstimationError("level grid must lie in (0, rho(0)]")
    radii = np.array([measure.level_radius(m, float(t)) for t in levels])
    try:
        r_polar = polar_sampling_radius(body)
    except UnboundedBody:
        r_polar = math.inf
    r_box = min(r_polar, float(radii.max()))
    if math.isinf(r_box):
        raise EstimationError("both the polar and the top superlevel ball are unbounded")
    vol_box = unit_ball_volume(n) * r_box ** n

    # trapezoid weights over [0, top], approximating the head
    # [0, levels[0]] by the value at levels[0]
    grid_t = np.concatenate([[0.0], levels, [top]]) if levels[-1] < top else np.concatenate([[0.0], levels])
    grid_r = np.concatenate([[radii.max()], radii, [measure.level_radius(m, top)]]) if levels[-1] < top else np.concatenate([[radii.max()], radii])
    weights = np.zeros_like(grid_t)
    for j in range(len(grid_t) - 1):
        h = grid_t[j + 1] - grid_t[j]
        weights[j] += 0.5 * h
        weights[j + 1] += 0.5 * h

    def worker(k: int, size: int):
        Y = measure.ball_points(rng.chunk_generator(k), size, n, r_box)
        inside = polar_contains(body, Y)
        rY = np.linalg.norm(Y, axis=1)
        # tau(s) = quadrature weight of {t : R(t) >= s}
        in_levels = rY[:, None] <= np.minimum(grid_r, r_box)[None, :]
        tau = in_levels @ weights
        v = vol_box * inside * tau
        return _chunk_stats(v)

    return Estimate(*_run_chunks(budget, worker, threads), rng.seed)


# ---------------------------------------------------------------------------
# exact polytope volumes


def _clip_polygon(poly: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by {<a, y> <= b}.

    A half-plane that cuts nothing returns `poly` itself (the clip would
    copy every vertex).  Otherwise the walk runs on plain floats: the
    polygons have a handful of vertices, where per-element numpy
    indexing costs more than the arithmetic, which is the same either way.
    """
    if poly.shape[0] == 0:
        return poly
    d = (poly @ a - b).tolist()
    if all(di <= 1e-12 for di in d):
        return poly
    pts = poly.tolist()
    out = []
    k = len(pts)
    for i in range(k):
        j = (i + 1) % k
        (xi, yi), (xj, yj) = pts[i], pts[j]
        di, dj = d[i], d[j]
        if di <= 1e-12:
            out.append((xi, yi))
        if (di < -1e-12 and dj > 1e-12) or (di > 1e-12 and dj < -1e-12):
            t = di / (di - dj)
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return np.array(out) if out else np.empty((0, 2))


def _shoelace(poly: np.ndarray) -> float:
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    # np.roll(v, -1), without its general-axis bookkeeping
    x1, y1 = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y1) - np.dot(y, x1)))


def halfspace_volume(normals: np.ndarray, offsets: np.ndarray) -> float:
    """Exact volume of {y : <a_i, y> <= b_i}; raises GeometryError if unbounded.

    n = 1 intersects intervals; n >= 3 takes the hull of the qhull vertices.
    n = 2 clips a bounding square, then applies the shoelace formula: a
    general polygon has no known interior point, and an LP for one costs
    more than the clip.
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.asarray(offsets, dtype=float)
    n = A.shape[1]
    if n == 1:
        lo, hi = -math.inf, math.inf
        for ai, bi in zip(A[:, 0], b):
            if ai > 1e-15:
                hi = min(hi, bi / ai)
            elif ai < -1e-15:
                lo = max(lo, bi / ai)
            elif bi < 0:
                return 0.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise GeometryError("unbounded 1-D halfspace intersection")
        return max(0.0, hi - lo)
    if n >= 3:
        V = halfspace_vertices(A, b)
        return float(ConvexHull(V).volume) if len(V) else 0.0
    # bounding radius from the smallest singular value of the active rows
    sigma_min = float(np.linalg.svd(A, compute_uv=False).min()) if A.shape[0] >= n else 0.0
    if sigma_min < 1e-12:
        raise GeometryError("halfspace normals do not span; polytope unbounded")
    L = math.sqrt(A.shape[0]) * float(np.abs(b).max(initial=1.0)) / sigma_min + 1.0
    # grow the clipping square until no vertex touches it, so the
    # result is the true (bounded) intersection
    for _ in range(60):
        poly = np.array([[-L, -L], [L, -L], [L, L], [-L, L]])
        for ai, bi in zip(A, b):
            poly = _clip_polygon(poly, ai, float(bi))
            if poly.shape[0] == 0:
                return 0.0
        if np.abs(poly).max() < L - 1e-9:
            return _shoelace(poly)
        L *= 4.0
    raise GeometryError("2-D halfspace intersection appears unbounded")


def exact_polar_volume_crosspoly(points: np.ndarray) -> float:
    """Exact |K°| for K = conv{±x_1, ..., ±x_N} in R^n, n >= 2.

    K° = {y : |<x_i, y>| <= 1 for all i} holds the origin, so qhull needs
    no LP; rank-deficient point sets make the polar a slab of infinite
    volume and raise UnboundedBody.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = P.shape[1]
    if np.linalg.matrix_rank(P, tol=1e-10) < n:
        raise UnboundedBody("points do not span; polar volume is infinite")
    A = np.vstack([P, -P])
    return float(ConvexHull(halfspace_vertices(A, np.ones(A.shape[0]))).volume)
