"""Reference Monte Carlo chunk kernels for the tests: the library's earlier expressions.

Row norms are numpy's `np.linalg.norm(Y, axis=1)`, points are scaled
out of place, a parallelepiped's points are one broadcast product summed
over its edges, and the matrix-image support goes through
`gauge_support` on a fresh `|Y @ A|`.  A polytope polar in its
parallelepiped P under a constant weight, with slabs left on P, weighs
each point by the exact length of its section along one coordinate of P,
written out in `section_lengths`; `slabs_contain` is the indicator of
K° on P's uniforms, which `polar_contains` must equal on the mapped
points.  Under a Gaussian, a polytope polar weighs each point by Genz's
product of normal interval masses, written out in `gaussian_weights` on
a whole chunk at once.  The library's chunk
kernels must reproduce these estimates bit for bit; chunking, merging,
radii, parallelepipeds, the slabs left on P and masses (which give the
radial inverse-CDF table its node values) are the library's own, since
they are not what the kernels change.
"""

import math

import numpy as np
from scipy import special

from polarvol import geom, measure, volume


def ball_points(gen, size, n, R):
    dirs = gen.standard_normal((size, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs * (R * gen.random(size) ** (1.0 / n))[:, None]


def parallelepiped_points(gen, size, origin, edges):
    U = gen.random((size, len(origin)))
    return (U[:, :, None] * edges.T[None, :, :]).sum(axis=1) + origin


def radial_sampler(m):
    n = m.dim
    if isinstance(m, measure.LebesgueRestricted):
        return lambda gen, size: ball_points(gen, size, n, m.R)
    if isinstance(m, measure.GaussianLike):
        return lambda gen, size: m.sigma * gen.standard_normal((size, n))
    total = measure.total_mass(m)
    c = (total / (geom.unit_ball_volume(n) * float(measure.rho_eval(m, 0.0)))) ** (1.0 / n)
    vs = np.linspace(0.0, 1.0, 4097)
    cdf = np.append(measure.radial_mass_in_ball(m, c * vs[:-1] / (1.0 - vs[:-1])) / total, 1.0)

    def draw(gen, size):
        v = np.interp(gen.random(size), cdf, vs)
        dirs = gen.standard_normal((size, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return dirs * (c * v / (1.0 - v))[:, None]

    return draw


def gauge_support(gauge, U):
    qp = geom.dual_exponent(gauge.q)
    absU = np.abs(U)
    if qp == math.inf:
        return absU.max(axis=1)
    if qp == 1.0:
        return absU.sum(axis=1)
    return (absU ** qp).sum(axis=1) ** (1.0 / qp)


def support_values(body, Y):
    if isinstance(body, geom.BallBody):
        return body.R * np.linalg.norm(Y, axis=1)
    if isinstance(body, geom.MatrixImageBody):
        h = gauge_support(body.gauge, Y @ body.matrix)
        if body.rball > 0:
            h = h + body.rball * np.linalg.norm(Y, axis=1)
        return h
    if isinstance(body, geom.HPolytopeBody):
        return (Y @ body.vertices.T).max(axis=1)
    return np.asarray(body.evaluator(Y), dtype=float)


def slabs_contain(slabs, U):
    """Whether each row u of U satisfies W·u <= bound, for `geom.residual_slabs`' (W, bound):
    the indicator of K° on the uniforms of P, one (m, size) product."""
    W, bound = slabs
    return (W @ U.T <= bound[:, None]).all(axis=0)


def section_lengths(W, bound, U):
    """The length of {u_j in [0, 1) : W·u <= bound} at each row of U, the other
    coordinates, for the column j of W with the largest sum of |W_kj|."""
    j = int(np.abs(W).sum(axis=0).argmax())
    a, rest = W[:, j], np.delete(W, j, axis=1)
    up, down, flat = a > 0, a < 0, a == 0
    hi = np.min((bound[up] / a[up])[:, None] - (rest[up] / a[up][:, None]) @ U.T, axis=0, initial=1.0)
    lo = np.max((bound[down] / a[down])[:, None] - (rest[down] / a[down][:, None]) @ U.T, axis=0, initial=0.0)
    inside = (rest[flat] @ U.T <= bound[flat][:, None]).all(axis=0)
    return np.maximum(hi - lo, 0.0) * inside


def interval_mass(center, half):
    """(Φ(b) - Φ(a), Φ(a)) for [a, b] = [-|c| - h, -|c| + h], each interval mirrored to
    the side of 0 where Φ is small: from erf where it straddles 0, from erfc in the tail."""
    c = np.abs(center)
    xa, xb = (c + half) * math.sqrt(0.5), np.abs(half - c) * math.sqrt(0.5)
    straddle = half - c > 0
    fa = np.where(straddle, special.erf(xa), -special.erfc(xa))
    fb = np.where(straddle, special.erf(xb), special.erfc(xb))
    return (fb + fa) * 0.5, (straddle - fa) * 0.5


def gaussian_weights(box, sigma, X):
    """Genz's weight of each column of X, the n - 1 uniforms of a point, for a polytope
    polar under a Gaussian: ν(R^n) times the normal mass of each coordinate's interval
    in P's pivoted frame, t_j drawn from the normal truncated to its interval; the last
    interval is P's last row cut by the slabs left on P."""
    n = len(box.normals)
    V = box.normals / box.width[:, None]
    e = math.frexp(float(np.abs(V).max()))[1]
    picks, L, _ = geom._pivoted_rows(np.ldexp(V, -e))
    width, diag = box.width[picks], np.diag(L)
    scale = np.ldexp(sigma * width * diag, e)
    center, half = (box.lo[picks] + 0.5 * width) / scale, 0.5 * width / scale
    M = L / diag[:, None]
    G = np.ldexp(sigma * (box.slabs[0][:, picks] @ L), e)  # the slabs left on P: G·t <= 1
    t = []
    w = measure.total_mass(measure.GaussianLike(sigma, n))
    for j in range(n):
        c = np.full(X.shape[1], center[j])
        for k in range(j):
            c = c - M[j, k] * t[k]
        if j < n - 1:
            mass, start = interval_mass(c, half[j])
            x = special.ndtri(np.clip(X[j] * mass + start, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg))
            t.append(np.where(c > 0, -x, x))
        elif len(G):
            own = np.append(M[j, :j], 1.0)
            a = np.concatenate([G[:, j], [1.0, -1.0]])
            rest = np.vstack([G[:, :j], own[:j], -own[:j]])
            bound = np.concatenate([np.ones(len(G)), [center[j] + half[j], half[j] - center[j]]])
            up, down, flat = a > 0, a < 0, a == 0
            T = np.array(t).reshape(j, X.shape[1])
            hi = np.min((bound[up] / a[up])[:, None] - (rest[up] / a[up][:, None]) @ T, axis=0)
            lo = np.max((bound[down] / a[down])[:, None] - (rest[down] / a[down][:, None]) @ T, axis=0)
            inside = (rest[flat] @ T <= bound[flat][:, None]).all(axis=0)
            mass = interval_mass((hi + lo) * 0.5, np.maximum(hi - lo, 0.0) * 0.5)[0] * inside
        else:
            mass = interval_mass(c, half[j])[0]
        w = w * mass
    return w


def mc_polar_measure(body, m, budget, rng):
    """`volume.mc_polar_measure` at one thread, with the kernels above."""
    n = body.dim
    region = geom.polar_parallelepiped(body)
    if isinstance(m, measure.GaussianLike) and region is not None and region.slabs is not None:
        def genz(k, size):
            return volume._chunk_stats(gaussian_weights(region, m.sigma, rng.chunk_generator(k).random((n - 1, size))))

        return volume.Estimate(*volume._run_chunks(budget, genz, 1), rng.seed)
    try:
        rstar = geom.polar_sampling_radius(body)
    except geom.UnboundedBody:
        rstar = math.inf
    try:
        vol_box = geom.unit_ball_volume(n) * rstar ** n
    except OverflowError:
        vol_box = math.inf
    slabs = None  # the slabs left on P, where the weight is constant
    if region is not None and region.volume < vol_box:
        vol_box = region.volume
        draw = lambda gen, size: parallelepiped_points(gen, size, region.origin, region.edges)
        if region.slabs is not None and isinstance(m, measure.LebesgueRestricted) and m.R > rstar * (1.0 + 1e-12):
            slabs = region.slabs
    else:
        draw = lambda gen, size: ball_points(gen, size, n, rstar)
    mass = measure.total_mass(m)
    if math.isfinite(mass) and float(measure.rho_eval(m, 0.0)) * vol_box >= mass:
        draw = radial_sampler(m)
        weight = lambda Y: mass
        slabs = None
    else:
        weight = lambda Y: vol_box * measure.rho_eval(m, np.linalg.norm(Y, axis=1))

    def worker(k, size):
        if slabs is not None and len(slabs[0]):
            U = rng.chunk_generator(k).random((n - 1, size)).T
            return volume._chunk_stats(vol_box * section_lengths(*slabs, U))
        Y = draw(rng.chunk_generator(k), size)
        return volume._chunk_stats(weight(Y) * (support_values(body, Y) <= 1.0))

    return volume.Estimate(*volume._run_chunks(budget, worker, 1), rng.seed)
