"""Estimators of ν(K°): Monte Carlo with honest error bars, a
layer-cake reduction to balls, exact polytope volumes in any
dimension n >= 2 (qhull), and exact radial measures of planar polygon
polars, which `polar_measure` picks whenever they apply.

Monte Carlo runs are chunked into fixed 2^16-sample blocks, chunk k
drawing from stream sub-key k, and merged in chunk order; the result is
bit-identical for a given (seed, stream, budget) no matter how many
workers execute the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull
from scipy.special import owens_t

from . import measure
from .geom import (
    Body,
    MatrixImageBody,
    UnboundedBody,
    halfspace_vertices,
    polar_contains,
    polar_sampling_radius,
    row_norms,
    unit_ball_volume,
)
from .measure import GaussianLike, LebesgueRestricted, RadialMeasure, rho_eval, total_mass
from .rng import RngStream

__all__ = [
    "Estimate",
    "EstimationError",
    "polar_measure",
    "mc_polar_measure",
    "layer_cake_measure",
    "exact_polar_volume_crosspoly",
    "halfspace_volume",
    "CHUNK",
]

CHUNK = 1 << 16
# Gauss–Legendre rule on [-1, 1] for the part of a polar edge inside radius σ:
# 12 nodes integrate its (1 - e^(-x))/x, x <= 1/2, to rounding
GAUSS_NODES, GAUSS_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(12))


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
        weight = lambda Y: vol_box * rho_eval(m, row_norms(Y))
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


def polar_measure(
    body: Body,
    m: RadialMeasure,
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> Estimate:
    """ν(K°), exact where the polar is a polygon with closed-form edges.

    The exact branch runs for K = conv{±x_i} in the plane (a matrix image
    with q = 1 and r = 0) whose columns span R², under Lebesgue measure
    on a disk (any R, including inf) or a Gaussian.  It reports stderr 0
    and 0 samples and draws nothing from `rng`.  Every other input goes
    to `mc_polar_measure` unchanged.
    """
    if body.dim != m.dim:
        raise EstimationError("body and measure dimensions differ")
    if budget < 1:
        raise EstimationError("budget must be >= 1")
    if (isinstance(body, MatrixImageBody) and body.dim == 2 and body.gauge.q == 1 and body.rball == 0
            and isinstance(m, (LebesgueRestricted, GaussianLike))):
        try:
            V = _crosspoly_polar_vertices(body.matrix.T)
        except UnboundedBody:
            pass
        else:
            return Estimate(math.fsum(_edge_measure(m, *edge) for edge in _polar_polygon_edges(V)), 0.0, 0, rng.seed)
    return mc_polar_measure(body, m, budget, rng, threads)


def _polar_polygon_edges(V: np.ndarray):
    """(d, s0, s1) per edge of the convex polygon with vertices V around the origin.

    Taken in angle order the vertices walk the polygon counterclockwise.
    An edge lies on a line at distance d from the origin, and s0 < s1 are
    the tangent coordinates of its ends.  A polygon has 4 to 2N edges, so
    plain floats beat arrays here.
    """
    V = sorted(V.tolist(), key=lambda v: math.atan2(v[1], v[0]))
    edges = []
    for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
        length = math.hypot(bx - ax, by - ay)
        tx, ty = (bx - ax) / length, (by - ay) / length
        s0 = ax * tx + ay * ty
        edges.append((ax * ty - ay * tx, s0, s0 + length))
    return edges


def _edge_measure(m: RadialMeasure, d: float, s0: float, s1: float) -> float:
    """ν of the cone from the origin over one polar edge: ∫ Φ(d/cos ψ) dψ over
    ψ = atan2(s, d), s0 <= s <= s1, with Φ(t) = ∫_0^t ρ(r) r dr.

    The circle of radius R (Lebesgue) or σ (Gaussian) splits the edge: the
    part [lo, hi] with |s| <= c lies inside it.  Outside, Φ is R²/2
    (Lebesgue), and the Gaussian integral is σ²·[Δψ - 2π·ΔT(d/σ, s/d)], T
    Owen's function, whose integrand 1 - e^(-d²/2σ²cos²ψ) stays above
    1 - e^(-1/2) there, so no digits cancel.  Inside, Φ(d/cos ψ) dψ is
    (d/2)·ds times 1 (Lebesgue) or (1 - e^(-x))/x with x = (d² + s²)/2σ² <= 1/2
    (Gaussian), which Gauss–Legendre integrates to rounding.
    """
    R = m.sigma if isinstance(m, GaussianLike) else m.R
    if math.isinf(R * R):  # the whole plane, or a circle beyond any polygon in floats
        return 0.5 * d * (s1 - s0)
    c = math.sqrt(max(R * R - d * d, 0.0))
    lo, hi = min(max(s0, -c), c), min(max(s1, -c), c)
    angle = lambda a, b: math.atan2(d * (b - a), d * d + a * b)  # subtended from s = a to s = b
    outside = angle(hi, s1) + angle(s0, lo)
    if isinstance(m, LebesgueRestricted):
        return 0.5 * d * (hi - lo) + 0.5 * R * R * outside
    T = lambda s: owens_t(d / R, s / d)
    total = R * R * (outside - 2 * math.pi * float((T(s1) - T(hi)) + (T(lo) - T(s0))))
    if hi > lo:
        # x at the nodes in units of σ, so σ² never overflows; x underflows to 0
        # only where (1 - e^(-x))/x is 1 to rounding
        a, mid, half = d / R, 0.5 * (hi + lo) / R, 0.5 * (hi - lo) / R
        xs = [(a * a + (mid + half * t) ** 2) / 2 for t in GAUSS_NODES]
        g = math.fsum(w * (-math.expm1(-x) / x if x > 0 else 1.0) for w, x in zip(GAUSS_WEIGHTS, xs))
        total += 0.25 * d * (hi - lo) * g
    return total


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
        rY = row_norms(Y)
        # tau(s) = quadrature weight of {t : R(t) >= s}
        in_levels = rY[:, None] <= np.minimum(grid_r, r_box)[None, :]
        tau = in_levels @ weights
        v = vol_box * inside * tau
        return _chunk_stats(v)

    return Estimate(*_run_chunks(budget, worker, threads), rng.seed)


# ---------------------------------------------------------------------------
# exact polytope volumes


def halfspace_volume(normals: np.ndarray, offsets: np.ndarray) -> float:
    """Exact volume of {y : <a_i, y> <= b_i} in R^n, n >= 2: the hull of its
    qhull vertices, 0.0 when the set is empty or flat.

    Raises GeometryError when the set is unbounded or n = 1.
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    V = halfspace_vertices(A, np.asarray(offsets, dtype=float))
    return float(ConvexHull(V).volume) if len(V) else 0.0


def _crosspoly_polar_vertices(points: np.ndarray) -> np.ndarray:
    """Vertices of K° for K = conv{±x_1, ..., ±x_N} in R^n, n >= 2.

    K° = {y : |<x_i, y>| <= 1 for all i} holds the origin, so qhull needs
    no LP.  Points whose smallest singular value is at most 1e-10 of their
    largest, or that are flat to qhull, make K° a slab: UnboundedBody.
    """
    sigma = np.linalg.svd(points, compute_uv=False)  # descending
    if len(sigma) < points.shape[1] or sigma[-1] <= 1e-10 * sigma[0]:
        raise UnboundedBody("points do not span; polar volume is infinite")
    A = np.concatenate([points, -points])
    return halfspace_vertices(A, np.ones(A.shape[0]))


def exact_polar_volume_crosspoly(points: np.ndarray) -> float:
    """Exact |K°| for K = conv{±x_1, ..., ±x_N} in R^n, n >= 2: the hull
    volume of its vertices.  Raises UnboundedBody when K° is a slab.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return float(ConvexHull(_crosspoly_polar_vertices(P)).volume)
