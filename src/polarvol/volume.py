"""Estimators of ν(K°): Monte Carlo with honest error bars, a layer-cake
reduction to balls, exact polytope volumes in any dimension n >= 2 (a flag
sum over qhull's one dual hull), and exact radial measures of ball polars
and of planar polygon polars, which
`polar_measures` picks whenever they apply; planar polars take their
vertices from one hull scan batched across bodies.  Under a Gaussian, a
matrix image whose columns span only a subspace V is measured in V, the
factor over V⊥ in closed form.  `shadow` sends its grid through
`polar_measures`, except under Lebesgue R = inf, where it and `converge`
take those polytope volumes in every n >= 2.

Monte Carlo runs are chunked into fixed 2^16-sample blocks, chunk k
drawing from stream sub-key k, and merged in chunk order; the result is
bit-identical for a given (seed, stream, budget) no matter how many
workers execute the chunks.  `mc_polar_measure` picks one of two chunk
kernels per call: draw a point and test it with `polar_contains`; or, for
a polytope polar in its slab parallelepiped P under a constant weight or a
Gaussian, Genz's separation of variables, a product of interval masses
whose last factor integrates one coordinate exactly.  Where no factor can
move the product by more than the 64-ulp floor (`_spread`: in R¹, and for
a P equal to K° under a constant weight, or under a Gaussian where P's
rows are orthogonal) the product is computed once and nothing is drawn.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np
from scipy.special import owens_t

from . import measure
from .geom import (
    SCRATCH_ROWS,
    BallBody,
    Body,
    MatrixImageBody,
    Parallelepiped,
    UnboundedBody,
    _dual_hull,
    _pivoted_rows,
    column_basis,
    polar_bounding_radius,
    polar_contains,
    polar_parallelepiped,
    pivot_slabs,
    row_norms,
    spans,
    unit_ball_volume,
)
from .measure import GaussianLike, LebesgueRestricted, RadialMeasure, rho_eval, total_mass
from .rng import RngStream

__all__ = [
    "Estimate",
    "EstimationError",
    "polar_measure",
    "polar_measures",
    "mc_polar_measure",
    "layer_cake_measure",
    "exact_polar_volume_crosspoly",
    "halfspace_volume",
    "CHUNK",
]

CHUNK = 1 << 16
# least stderr of a Monte Carlo estimate, relative to its value: 64 ulps.  A
# region that equals K° under a measure constant on it gives a constant
# estimator, exact up to rounding, whose sample variance is 0
ROUNDING_FLOOR = 64 * np.finfo(float).eps
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
    """(count, mean, M2) of one chunk; a chunk of equal values returns the value
    itself, which `mean` can miss by a few ulps, and M2 = 0."""
    c = values.size
    if (values == values[0]).all():
        return c, float(values[0]), 0.0
    mu = float(values.mean())
    m2 = float(((values - mu) ** 2).sum())
    return c, mu, m2


def _run_chunks(budget: int, worker, threads: int = 1):
    """Run `worker(k, size)` on each chunk and merge; a pool of at most one
    thread per chunk and per core, which changes no result.  A budget below
    2 is refused: one sample has no spread, so its stderr would read the floor."""
    if budget < 2:
        raise EstimationError("budget must be >= 2: one sample has no spread for a stderr")
    sizes = []
    left = int(budget)
    while left > 0:
        take = min(CHUNK, left)
        sizes.append(take)
        left -= take
    if threads <= 1 or len(sizes) == 1:
        results = [worker(k, sz) for k, sz in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, len(sizes), os.cpu_count() or 1)) as pool:
            results = list(pool.map(worker, range(len(sizes)), sizes))
    count, mean, m2 = _merge_chunks(results)
    stderr = math.sqrt(m2 / (count - 1) / count)
    return mean, max(stderr, ROUNDING_FLOOR * abs(mean)), count


def mc_polar_measure(
    body: Body,
    m: RadialMeasure,
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> "Estimate":
    """Monte Carlo estimate of ν(K°) with its standard error.

    Under a Gaussian, a polytope polar (a body whose parallelepiped P of
    `polar_parallelepiped` carries `slabs`) takes the sections kernel
    below, whatever the rest of this rule would pick.  Otherwise two
    regions can hold K°: the ball R*·B, R* of `polar_bounding_radius`
    (inf when K° is unbounded or a support oracle carries no inradius),
    and P, cut from n of the body's own slabs (a matrix image whose
    columns span R^n, an H-polytope with 0 inside).  The one with the
    smaller volume V is sampled (the ball on a tie).  When ν(R^n) is
    finite and ρ(0)·V >= ν(R^n), Y ~ ν/ν(R^n) weighs the total mass;
    otherwise Y is uniform in the region and weighs ρ(|Y|)·V, the
    constant V under Lebesgue measure with R above R*, since K° ⊂ R*·B.
    Both are unbiased, and the rule picks the smaller second-moment bound:
    ν(R^n)·ν(K°) against ρ(0)·V·ν(K°).  A ball volume that overflows
    counts as >= ν(R^n); with infinite mass as well no estimator applies,
    and the call refuses.

    One of two chunk kernels is picked per call:
    1. Draw and test: Y from the mass sampler, in the ball, or in P (n
       uniforms u mapped in place to origin + edges·u) weighs its weight
       times `polar_contains`.
    2. Sections (`_sections`): a polytope polar in P under a constant
       weight V, or under a Gaussian, by Genz's separation of variables
       (Genz 1992): n - 1 uniforms a point, and the last coordinate
       integrated exactly.  Where P is K° and its frame provably moves no
       factor by more than the floor, the weight is computed once and no
       uniform is drawn.
    The stderr is at least 64 ulps of the value (`ROUNDING_FLOOR`): where
    the region is K° and the weight is constant, the estimate is exact up
    to rounding.  A budget below 2 is refused (`_run_chunks`).
    """
    if body.dim != m.dim:
        raise EstimationError("body and measure dimensions differ")
    kernel = _kernel(body, m)
    worker = lambda k, size: _chunk_stats(kernel(rng.chunk_generator(k), size))
    return Estimate(*_run_chunks(budget, worker, threads), rng.seed)


def _kernel(body: Body, m: RadialMeasure):
    """`mc_polar_measure`'s chunk kernel, `kernel(gen, size)`, by its rule: draw and
    test, or `_sections`."""
    box = polar_parallelepiped(body)
    if isinstance(m, GaussianLike) and box is not None and box.slabs is not None:
        return _sections(box, m)
    n = body.dim
    rstar = polar_bounding_radius(body)
    try:
        vol_box = unit_ball_volume(n) * rstar ** n
    except OverflowError:
        vol_box = math.inf
    if box is not None and box.volume < vol_box:  # P is sampled where it is smaller than the ball
        vol_box = box.volume
    else:
        box = None

    def draw_and_test(gen, size):
        Y = draw(gen, size)
        return weight(Y) * polar_contains(body, Y)

    mass = total_mass(m)
    if math.isfinite(mass) and float(rho_eval(m, 0.0)) * vol_box >= mass:
        draw, weight = measure.radial_sampler(m), lambda Y: mass
        return draw_and_test
    if not math.isfinite(vol_box):
        raise EstimationError(
            "polar has no finite sampling ball and the measure has infinite mass: "
            "no rigorous estimator applies to this configuration"
        )
    # every Y in K° has |Y| <= R* up to a few ulps, so ρ(|Y|) = 1 where the indicator is not 0
    constant = isinstance(m, LebesgueRestricted) and m.R > rstar * (1.0 + 1e-12)
    if constant and box is not None and box.slabs is not None:
        return _sections(box, m)
    weight = (lambda Y: vol_box) if constant else (lambda Y: vol_box * rho_eval(m, row_norms(Y)))
    if box is None:
        draw = lambda gen, size: measure.ball_points([gen], size, n, rstar)[0]
    else:
        draw = lambda gen, size: measure.parallelepiped_map(gen.random((size, n)), box.origin, box.edges)
    return draw_and_test


def _sections(box: Parallelepiped, m: RadialMeasure):
    """`mc_polar_measure`'s sections kernel, `kernel(gen, size)`: ν(K°) of a
    polytope K° inside its P by separation of variables (Genz 1992; Genz
    and Bretz 2009), under a Gaussian m, or under any other m the uniform
    law in P, each point weighing |P| (a constant weight).

    The law's n coordinates each have an interval that the earlier ones
    move.  Uniform: u, P's own coordinates, every interval [0, 1) of mass
    1; the coordinate u_j integrated last is the column of the slabs left
    on P with the largest Σ_k |W_kj| (`pivot_slabs`).  Gaussian: P's rows
    divided by their widths are 2^e·L·Q (`_pivoted_rows`, no LAPACK
    call), L lower triangular and Q orthogonal.  With y = σ·Qᵀt, t
    standard normal in R^n, row j of P bounds t_j to [c_j − h_j, c_j + h_j]
    less Σ_{k<j} (L_jk/L_jj)·t_k, the slabs left on P read G·t <= 1 with
    G = 2^e·σ·W·L, and ν(K°) = (2πσ²)^{n/2}·E[1{t ∈ K°}].

    A point's n − 1 uniforms draw the earlier coordinates in turn: the
    uniform itself, or the normal truncated to its interval
    (`measure.truncated_normal`), whose mass (`measure.normal_interval`)
    is a factor of the weight.  The last coordinate is not drawn.  Given
    the others, the slabs left (and under a Gaussian P's last row) bound
    it, and its factor is the mass of the interval they leave.
    `pivot_slabs` splits those rows once a call into upper, lower and
    undivided ones; one (rows, size) product T = b − C·t gives hi, the
    least upper bound, and lo, the greatest lower one.  The mass is
    max(0, min(1, hi) − max(0, lo)), P's own [0, 1) standing in for rows,
    or Φ(hi) − Φ(lo); it is 0 where an undivided row has T < 0.  Under a
    Gaussian with no slab left, P's last row alone bounds t_n.  The weight
    is E[ν(R^n)·1{t ∈ K°} | the draws], |P| in place of ν(R^n) under the
    uniform law: unbiased.

    The first interval's factor is folded into the base weight once a
    call.  Where no factor can vary, the weight is computed once, at every
    interval's center, and no uniform is drawn: in R¹, and for a
    certified P (no slab left) whose frame M = L/diag(L) moves no later
    interval enough to change the product by more than `ROUNDING_FLOOR`
    (`_spread`).  The uniform law's frame is P's own coordinates, M the
    identity, so its certified P always qualifies; under a Gaussian, P's
    rows must be orthogonal to within that bound.  The constant is then
    within the floor of every weight a draw could give, so the floor
    stderr that `_run_chunks` reports still holds.  A chunk works in
    blocks of SCRATCH_ROWS points, which stay in cache.
    """
    n = len(box.normals)
    last = n - 1
    gaussian = isinstance(m, GaussianLike)
    if gaussian:
        V = box.normals / box.width[:, None]
        e = math.frexp(float(np.abs(V).max()))[1]  # 2^-e·V is of unit scale, exactly: no square overflows
        picks, L, _ = _pivoted_rows(np.ldexp(V, -e))
        width, diag = box.width[picks], np.diag(L)
        scale = np.ldexp(m.sigma * width * diag, e)
        center, half = (box.lo[picks] + 0.5 * width) / scale, 0.5 * width / scale
        M = L / diag[:, None]
        G = np.ldexp(m.sigma * (box.slabs[0][:, picks] @ L), e)
        own = np.append(M[last, :last], 1.0)  # P's last row in t: |own·t − c| <= h
        rows = np.vstack([G, own, -own])
        bound = np.concatenate([np.ones(len(G)), [center[last] + half[last], half[last] - center[last]]])
        C, b, upper, lower = pivot_slabs((rows, bound), last)
        top, bottom = math.inf, -math.inf  # P's last row is among the rows
        base = total_mass(m)
        mass0, start0 = measure.normal_interval(center[:1], half[:1])
        first = base * mass0
    else:
        C, b, upper, lower = pivot_slabs(box.slabs)
        top, bottom = 1.0, 0.0  # u_j ∈ [0, 1)
        base = first = box.volume
        # P's own coordinates, each in [1/2 − 1/2, 1/2 + 1/2]: no interval moves with another
        M, center, half = np.eye(n), np.full(n, 0.5), np.full(n, 0.5)

    def shifted(j, t):
        """P's center for coordinate j given the earlier ones, c_j − Σ_{k<j} (L_jk/L_jj)·t_k."""
        if j == 0:
            return np.full(t.shape[1], center[0])
        c = center[j] - M[j, 0] * t[0]
        for k in range(1, j):
            c -= M[j, k] * t[k]
        return c

    def last_mass(t):
        """The last coordinate's factor, given the others t (a row each)."""
        if gaussian and not len(G):  # P's last row alone
            return measure.normal_interval(shifted(last, t), half[last])[0]
        T = C @ t
        np.subtract(b[:, None], T, out=T)
        hi, lo = T[:upper].min(axis=0, initial=top), T[upper:lower].max(axis=0, initial=bottom)
        mass = np.maximum(hi - lo, 0.0)
        if gaussian:
            mass = measure.normal_interval((hi + lo) * 0.5, mass * 0.5)[0]
        if lower < len(T):
            mass[(T[lower:] < 0).any(axis=0)] = 0.0
        return mass

    if not (last and len(box.slabs[0])) and _spread(M, center, half) <= ROUNDING_FLOOR:
        # no factor varies beyond rounding: the weight at the centers, and no uniform is drawn
        weight = base
        if gaussian:
            for mass in measure.normal_interval(center[:last], half[:last])[0]:
                weight *= mass
        weight = float(weight * last_mass(np.zeros((last, 1)))[0])
        return lambda gen, size: np.full(size, weight)

    def kernel(gen, size):
        X = gen.random((last, size))  # a row per coordinate
        out = np.empty(size)
        for s in range(0, size, SCRATCH_ROWS):
            t = X[:, s : s + SCRATCH_ROWS]
            w = out[s : s + t.shape[1]]
            w[:] = first
            if gaussian:
                measure.truncated_normal(t[0], center[0], mass0, start0)
                for j in range(1, last):
                    c = shifted(j, t)
                    mass, start = measure.normal_interval(c, half[j])
                    w *= mass
                    measure.truncated_normal(t[j], c, mass, start)
            w *= last_mass(t)
        return out

    return kernel


def _spread(M, center, half) -> float:
    """A bound on the relative spread of Π_j mass(c_j − Σ_{k<j} M_jk·t_k, h_j)
    about Π_j mass(c_j, h_j), mass the standard normal's, over every t whose
    coordinates each lie in their own interval: `_sections`' certificate
    that its weight is a constant.

    Factor j's center moves by at most δ_j = Σ_{k<j} |M_jk|·(|c_k| + δ_k +
    h_k), the largest |t_k| of its interval.  The mass's derivative along
    the center, φ(c + h) − φ(c − h), is at most φ at the end nearest 0,
    which the move brings at most δ_j closer; so the factor moves by a
    share r_j of its mass, and the product by at most e^(Σ r_j) − 1.  A
    frame whose M is diagonal (R¹, P's own coordinates) reads 0 under any
    law: no interval moves.
    """
    reach, shift = np.abs(center) + half, np.zeros(len(center))  # |t_k| <= |c_k| + δ_k + h_k
    for j in range(1, len(center)):
        shift[j] = np.abs(M[j, :j]) @ reach[:j]
        reach[j] += shift[j]
    near = np.maximum(np.minimum(np.abs(center - half), np.abs(center + half)) - shift, 0.0)
    slope = np.exp(-0.5 * near * near) / math.sqrt(2 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):  # a factor of mass 0 certifies nothing
        total = float((shift * slope / measure.normal_interval(center, half)[0]).sum())
    return math.expm1(total) if total < 1 else math.inf  # NaN, or past e − 1: no bound


def polar_measure(
    body: Body,
    m: RadialMeasure,
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> Estimate:
    """ν(K°) for one body: `polar_measures` on a one-element batch."""
    return polar_measures([body], m, budget, [rng], threads)[0]


def polar_measures(
    bodies: Sequence[Body],
    m: RadialMeasure,
    budget: int,
    rngs: Sequence[RngStream],
    threads: int = 1,
) -> list[Estimate]:
    """ν(K°) for each body, exact where a closed form applies, with its own stream.

    Two branches are exact: report stderr 0 and 0 samples, and draw
    nothing from their stream.
    - A ball R·B has the polar (1/R)·B, whose measure is
      `radial_mass_in_ball(m, 1/R)` under every measure kind; at R = 0,
      K = {0} has ν(R^n) for it wherever that is finite.
    - K = conv{±x_i} in the plane (a matrix image with q = 1 and r = 0)
      whose columns span R², under Lebesgue measure on a disk (any R,
      including inf) or a Gaussian, has a polygon for K°.  The bodies
      with the same N get their K° vertices from one batched hull scan,
      `_planar_polar_vertices`, and the edges of every polygon in the
      batch go through one array pass, `_polygon_measures`.
    A matrix image with no ball summand whose columns span only an
    r-dimensional V, with an orthonormal basis Q from `geom.column_basis`,
    has K° = K_V° ⊕ V⊥.  The Gaussian is a product over V and V⊥, so under
    one ν(K°) = (2πσ²)^{(n-r)/2}·ν_r(K_V°), where K_V is the image Qᵀ·A in
    V's coordinates, with the same gauge: this call measures it under the
    r-dimensional Gaussian, on the body's own stream, and scales the value
    and the stderr; a zero matrix, r = 0, reads (2πσ²)^{n/2} exactly.
    Lebesgue and PowerKernel measures do not split so.
    Every other body goes to `mc_polar_measure` in order, on its own
    stream, with the bits it would have alone.
    """
    if budget < 1:
        raise EstimationError("budget must be >= 1")
    if any(body.dim != m.dim for body in bodies):
        raise EstimationError("body and measure dimensions differ")
    gaussian = isinstance(m, GaussianLike)
    planar = m.dim == 2 and (gaussian or isinstance(m, LebesgueRestricted))
    out = [None] * len(bodies)
    groups = {}  # N -> batch indices of the planar conv{±x_1, ..., ±x_N}
    flat = []  # batch indices of Gaussian images with no ball summand whose columns may not span
    for i, (body, rng) in enumerate(zip(bodies, rngs, strict=True)):
        if isinstance(body, BallBody) and math.isfinite(
                value := float(measure.radial_mass_in_ball(m, 1.0 / body.R if body.R > 0 else math.inf))):
            out[i] = Estimate(value, 0.0, 0, rng.seed)
        elif planar and isinstance(body, MatrixImageBody) and body.gauge.q == 1 and body.rball == 0:
            groups.setdefault(body.matrix.shape[1], []).append(i)
        elif gaussian and isinstance(body, MatrixImageBody) and body.rball == 0:
            flat.append(i)
    exact, polygons, counts = [], [], []
    for batch in groups.values():
        spanning, V, c = _planar_polar_vertices(np.stack([bodies[i].matrix.T for i in batch]))
        exact += [i for i, s in zip(batch, spanning.tolist()) if s]
        flat += [i for i, s in zip(batch, spanning.tolist()) if gaussian and not s]
        polygons.append(V)
        counts.append(c)
    if exact:
        values = _polygon_measures(m, np.concatenate(polygons), np.concatenate(counts))
        for i, value in zip(exact, values):
            out[i] = Estimate(value, 0.0, 0, rngs[i].seed)
    ranks = {}  # r -> (batch index, K_V) of the images whose columns span an r-dimensional V
    for i in flat:
        Q = column_basis(bodies[i].matrix)
        if Q is not None:
            ranks.setdefault(len(Q), []).append((i, MatrixImageBody(Q @ bodies[i].matrix, bodies[i].gauge)))
    for r, images in ranks.items():
        factor = total_mass(GaussianLike(m.sigma, m.dim - r))  # ν(V⊥)
        if r == 0:  # K = {0}
            inner = [Estimate(1.0, 0.0, 0, rngs[i].seed) for i, _ in images]
        else:
            inner = polar_measures([K for _, K in images], GaussianLike(m.sigma, r), budget,
                                   [rngs[i] for i, _ in images], threads)
        for (i, _), e in zip(images, inner):
            out[i] = Estimate(factor * e.value, factor * e.stderr, e.samples, e.seed)
    for i, body in enumerate(bodies):
        if out[i] is None:
            out[i] = mc_polar_measure(body, m, budget, rngs[i], threads)
    return out


def _planar_polar_vertices(P: np.ndarray):
    """Vertices of K° for each K = conv{±x_1, ..., ±x_N} in a (T, N, 2) stack of point sets.

    Returns (spanning, V, counts).  spanning[t] is False where row t's
    points do not span R² by `geom.spans`: K° is then a slab.  V holds the
    K° vertices of the spanning rows one polygon after the other, counts[k]
    of them for the k-th, each polygon counterclockwise.

    K is the hull of the 2N points ±x_i.  Each row's points are sorted by
    angle, starting at its farthest point, which is a vertex of K, and
    breaking ties by decreasing radius.  One Graham scan (Graham 1972) runs
    across all rows at once; its Python loop runs over the 2N sorted
    positions, never over rows.  It pops on every turn that is not strictly
    left, so repeated and collinear points drop out.  The hull edge (a, b)
    gives the K° vertex (b_y - a_y, a_x - b_x)/(a × b), on both lines
    <a, y> = 1 and <b, y> = 1; a vertex that rounds onto the one after it
    is dropped, so no edge of K° has length 0.
    """
    spanning = spans(P)
    Q = np.concatenate([P[spanning], -P[spanning]], axis=1)
    x, y = Q[..., 0], Q[..., 1]
    r2 = x * x + y * y
    angle = np.arctan2(y, x)
    angle -= np.take_along_axis(angle, r2.argmax(axis=1)[:, None], 1)
    angle[angle < 0] += 2 * math.pi
    order = np.lexsort((-r2, angle))
    # the start again at the end closes the walk
    order = np.concatenate([order, order[:, :1]], axis=1)
    x, y = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    # the stack holds the hull so far in its first `top` places
    sx, sy = x.copy(), y.copy()
    top = np.ones(len(Q), dtype=np.intp)
    rows = np.arange(len(Q))
    for i in range(1, order.shape[1]):
        px, py = x[:, i], y[:, i]
        while True:
            a, b = top - 2, top - 1
            ax, ay, bx, by = sx[rows, a], sy[rows, a], sx[rows, b], sy[rows, b]
            pop = (top >= 2) & ((bx - ax) * (py - by) <= (by - ay) * (px - bx))
            if not pop.any():
                break
            top -= pop
        sx[rows, top], sy[rows, top] = px, py
        top += 1
    counts = top - 1  # the closing copy of the start is not a vertex
    keep = np.arange(order.shape[1]) < counts[:, None]
    ax, ay = sx[keep], sy[keep]
    ends = np.cumsum(counts)
    following = np.arange(1, len(ax) + 1)
    following[ends - 1] = ends - counts
    bx, by = ax[following], ay[following]
    cross = ax * by - ay * bx
    V = np.column_stack([(by - ay) / cross, (ax - bx) / cross])
    repeat = np.all(V == V[following], axis=1)
    group = np.repeat(np.arange(len(Q)), counts)
    return spanning, V[~repeat], counts - np.bincount(group[repeat], minlength=len(Q))


def _polygon_measures(m: RadialMeasure, V: np.ndarray, counts: np.ndarray) -> list[float]:
    """ν of each convex polygon around the origin, in one array pass.

    V holds the vertices of all polygons one after the other, counts[k] of
    them for the k-th, each polygon walked counterclockwise with no two
    consecutive vertices equal.  An edge lies on a line at distance d from
    the origin, and s0 < s1 are the tangent coordinates of its ends.  ν of the
    cone from the origin over the edge is ∫ Φ(d/cos ψ) dψ over
    ψ = atan2(s, d), s0 <= s <= s1, with Φ(t) = ∫_0^t ρ(r) r dr.

    The circle of radius R (Lebesgue) or σ (Gaussian) splits an edge: the
    part [lo, hi] with |s| <= c lies inside it.  Outside, Φ is R²/2
    (Lebesgue), and the Gaussian integral is σ²·[Δψ - 2π·ΔT(d/σ, s/d)], T
    Owen's function, whose integrand 1 - e^(-d²/2σ²cos²ψ) stays above
    1 - e^(-1/2) there, so no digits cancel.  Inside, Φ(d/cos ψ) dψ is
    (d/2)·ds times 1 (Lebesgue) or (1 - e^(-x))/x with x = (d² + s²)/2σ² <= 1/2
    (Gaussian), which Gauss–Legendre integrates to rounding.  Each
    polygon's edge terms are summed with `math.fsum`.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    following = np.arange(1, len(V) + 1)
    following[ends - 1] = starts
    ax, ay = V[:, 0], V[:, 1]
    dx, dy = V[following, 0] - ax, V[following, 1] - ay
    # math.hypot, not np.hypot: the two differ in the last bit now and then, and a
    # thin polygon's edge angles magnify a last-bit change in a length by its aspect
    length = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())])
    tx, ty = dx / length, dy / length
    s0 = ax * tx + ay * ty
    s1 = s0 + length
    d = ax * ty - ay * tx
    R = m.sigma if isinstance(m, GaussianLike) else m.R
    if math.isinf(R * R):  # the whole plane, or a circle beyond any polygon in floats
        terms = 0.5 * d * (s1 - s0)
    else:
        c = np.sqrt(np.maximum(R * R - d * d, 0.0))
        lo, hi = np.clip(s0, -c, c), np.clip(s1, -c, c)
        angle = lambda a, b: np.arctan2(d * (b - a), d * d + a * b)  # subtended from s = a to s = b
        outside = angle(hi, s1) + angle(s0, lo)
        if isinstance(m, LebesgueRestricted):
            terms = 0.5 * d * (hi - lo) + 0.5 * R * R * outside
        else:
            T = owens_t(np.tile(d / R, 4), np.concatenate([s1, hi, lo, s0]) / np.tile(d, 4)).reshape(4, -1)
            terms = R * R * (outside - 2 * math.pi * ((T[0] - T[1]) + (T[2] - T[3])))
            # on the edges that enter the circle: x at the nodes in units of σ, so σ²
            # never overflows; x underflows to 0 only where (1 - e^(-x))/x is 1 to rounding
            k = np.flatnonzero(hi > lo)
            d, lo, hi = d[k], lo[k], hi[k]
            a, mid, half = d / R, 0.5 * (hi + lo) / R, 0.5 * (hi - lo) / R
            g = np.zeros(len(k))
            for t, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
                x = (a * a + (mid + half * t) ** 2) / 2
                g += w * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0)
            terms[k] += 0.25 * d * (hi - lo) * g
    terms = terms.tolist()
    return [math.fsum(terms[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]


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
    r_box = min(polar_bounding_radius(body), float(radii.max()))
    if math.isinf(r_box):
        raise EstimationError("both the polar and the top superlevel ball are unbounded")
    try:
        vol_box = unit_ball_volume(n) * r_box ** n
    except OverflowError:
        vol_box = math.inf
    if math.isinf(vol_box):
        raise EstimationError("the sampling ball's volume overflows a float")

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
        Y = measure.ball_points([rng.chunk_generator(k)], size, n, r_box)[0]
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


# rows of chamber matrices per np.linalg.det call of `flag_volume`: at n = 5 a
# block holds 136 facets' 120 orderings, 3.3 MB of 5 x 5 matrices
FLAG_BLOCK = 1 << 14


@cache
def _flag_tables(n: int):
    """Index tables for the flags of the positions 0..n-1 of a simplex's vertices.

    Returns n! and, for k = 1..n-1, (last, prefix, first): the last position
    of each sorted k-subset, the index of its first k - 1 among the sorted
    (k-1)-subsets (the empty set for k = 1, index 0), and for each ordering
    of the n positions the index of the set of its first k.
    """
    orderings = list(itertools.permutations(range(n)))
    levels, shorter = [], [()]
    for k in range(1, n):
        subsets = list(itertools.combinations(range(n), k))
        last = np.array([s[-1] for s in subsets])
        prefix = np.array([shorter.index(s[:-1]) for s in subsets])
        first = np.array([subsets.index(tuple(sorted(o[:k]))) for o in orderings])
        levels.append((last, prefix, first))
        shorter = subsets
    return len(orderings), levels


def flag_volume(interior: np.ndarray, simplices: np.ndarray, Y: np.ndarray) -> float:
    """Exact volume of a polytope from its triangulated dual hull, `geom._dual_hull`'s
    (c, simplices, Y): 0.0 when there are no facets (an empty or flat polytope).

    A dual facet F, n halfspace indices, has the polytope vertex y_F.  For a
    set S of halfspaces within some facet, c_S is the mean of y_G over the
    facets G ⊇ S: a point of the face where the halfspaces of S meet.  Each
    ordering of F, with S_k its first k indices, gives the chamber simplex
    (c, c_{S_1}, ..., c_{S_{n-1}}, y_F), and

        |K| = Σ_F Σ_{orderings of F} |det(c_{S_1} - c, ..., c_{S_{n-1}} - c, y_F - c)| / n!.

    A chamber whose S_k meet in a face of dimension below n - k is flat and
    adds 0; the others run once through each flag facet ⊃ ridge ⊃ ... ⊃
    vertex and tile K by cones from c, however qhull splits a facet that
    has more than n vertices.  Each k-subset of a
    facet is keyed by the group of its first k - 1 and its last index, so
    one `np.unique` per k groups every subset once; one `np.linalg.det`
    runs per `FLAG_BLOCK` rows of (facet, ordering), whose |det| sums add
    up by `math.fsum`.
    """
    count, n = simplices.shape
    if count == 0:
        return 0.0
    Y = Y - interior
    S = np.sort(simplices, axis=1).astype(np.int64)
    m = int(S[:, -1].max()) + 1
    orderings, levels = _flag_tables(n)
    group = np.zeros((count, 1), dtype=np.int64)
    chains = []  # per k: (c_S for each group S of k-subsets, the group of each facet's k-subsets, first)
    for last, prefix, first in levels:
        _, inverse = np.unique((group[:, prefix] * m + S[:, last]).ravel(), return_inverse=True)
        group = inverse.reshape(count, len(last))
        totals = np.bincount((inverse[:, None] * n + np.arange(n)).ravel(), weights=np.repeat(Y, len(last), axis=0).ravel())
        chains.append((totals.reshape(-1, n) / np.bincount(inverse)[:, None], group, first))
    step = max(1, FLAG_BLOCK // orderings)
    sums = []
    for s in range(0, count, step):
        block = slice(s, s + step)
        M = np.empty((len(Y[block]), orderings, n, n))
        for k, (centres, group, first) in enumerate(chains):
            M[:, :, k] = centres[group[block][:, first]]
        M[:, :, -1] = Y[block, None]
        sums.append(float(np.abs(np.linalg.det(M)).sum()))
    return math.fsum(sums) / math.factorial(n)


def halfspace_volume(normals: np.ndarray, offsets: np.ndarray) -> float:
    """Exact volume of {y : <a_i, y> <= b_i} in R^n, n >= 2: `flag_volume` of
    its one qhull dual hull, 0.0 when the set is empty or flat.

    Raises GeometryError when the set is unbounded, when n = 1, or when
    qhull fails on a nearly degenerate dual set (`geom.qhull_failure`).
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    return flag_volume(*_dual_hull(A, np.asarray(offsets, dtype=float)))


def exact_polar_volume_crosspoly(points: np.ndarray) -> float:
    """Exact |K°| for K = conv{±x_1, ..., ±x_N} in R^n, n >= 2: K° is
    {y : |<x_i, y>| <= 1}, whose volume `halfspace_volume` gives from one
    qhull hull, that of the 2N points ±x_i.  Raises UnboundedBody when the
    points do not span R^n (`geom.spans`): K° is a slab.  A point inside K
    adds no facet, so it leaves |K°| unchanged.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if not spans(P):
        raise UnboundedBody("points do not span; polar volume is infinite")
    return halfspace_volume(np.concatenate([P, -P]), np.ones(2 * len(P)))
