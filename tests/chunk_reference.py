"""Reference Monte Carlo chunk kernels for the tests: the library's earlier expressions.

Row norms are numpy's `np.linalg.norm(Y, axis=1)`, points are scaled
out of place, a parallelepiped's points are one broadcast product summed
over its edges, and the matrix-image support goes through
`gauge_support` on a fresh `|Y @ A|`.  The library's chunk kernels must
reproduce these estimates bit for bit; chunking, merging, radii,
parallelepipeds and masses (which give the radial inverse-CDF table its
node values) are the library's own, since they are not what the kernels
change.
"""

import math

import numpy as np

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


def mc_polar_measure(body, m, budget, rng):
    """`volume.mc_polar_measure` at one thread, with the kernels above."""
    n = body.dim
    try:
        rstar = geom.polar_sampling_radius(body)
    except geom.UnboundedBody:
        rstar = math.inf
    try:
        vol_box = geom.unit_ball_volume(n) * rstar ** n
    except OverflowError:
        vol_box = math.inf
    region = geom.polar_parallelepiped(body)
    if region is not None and region.volume < vol_box:
        vol_box = region.volume
        draw = lambda gen, size: parallelepiped_points(gen, size, region.origin, region.edges)
    else:
        draw = lambda gen, size: ball_points(gen, size, n, rstar)
    mass = measure.total_mass(m)
    if math.isfinite(mass) and float(measure.rho_eval(m, 0.0)) * vol_box >= mass:
        draw = radial_sampler(m)
        weight = lambda Y: mass
    else:
        weight = lambda Y: vol_box * measure.rho_eval(m, np.linalg.norm(Y, axis=1))

    def worker(k, size):
        Y = draw(rng.chunk_generator(k), size)
        return volume._chunk_stats(weight(Y) * (support_values(body, Y) <= 1.0))

    return volume.Estimate(*volume._run_chunks(budget, worker, 1), rng.seed)
