"""Reference polytope oracles for the tests, independent of qhull.

`loop_vertices` intersects every n-subset of facets, one tuple at a time;
`face_volume` sums cones over the facets, recursing through the faces.
The library enumerates vertices with qhull, and so do the benchmark's
references, so these are what the tests compare the library against.

`exact_polar_polygon` gives the K° vertices of K = conv{±x_i} in exact
rationals, against which the library's planar hull scan is held.

`polygon_measure` is the scalar form of the library's planar polygon
measure: one edge at a time in plain floats, with the same closed forms,
against which the batched array pass is held.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import owens_t

from polarvol.measure import GaussianLike, LebesgueRestricted

GAUSS_NODES, GAUSS_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(12))


def loop_vertices(A, b):
    """Vertices of {y : Ay <= b}: one det, solve and product per facet tuple."""
    out = []
    for idx in itertools.combinations(range(A.shape[0]), A.shape[1]):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-9) and not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return out


def _affine_rank(P):
    return np.linalg.matrix_rank(P[1:] - P[0], tol=1e-9) if len(P) > 1 else 0


def _volume(V, face, dim, facets):
    """dim-volume of conv(V[face]), whose faces are its meets with the facets."""
    P = V[face]
    if dim == 1:
        return float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
    centre = P.mean(axis=0)
    total, seen = 0.0, set()
    for facet in facets:
        sub = tuple(sorted(set(face) & facet))
        if sub in seen or len(sub) < dim or _affine_rank(V[list(sub)]) != dim - 1:
            continue
        seen.add(sub)
        # height of the cone: distance from the centre to the sub-face's affine hull
        Q = V[list(sub)]
        basis = np.linalg.svd(Q[1:] - Q[0])[2][: dim - 1]
        w = centre - Q[0]
        height = float(np.linalg.norm(w - basis.T @ (basis @ w)))
        total += height * _volume(V, list(sub), dim - 1, facets) / dim
    return total


def face_volume(A, b):
    """Volume of the bounded, nonempty polytope {y : Ay <= b}."""
    V = np.array(loop_vertices(A, b))
    facets = [frozenset(np.flatnonzero(np.abs(V @ a - bi) <= 1e-9 * max(1.0, abs(bi))).tolist())
              for a, bi in zip(A, b)]
    return _volume(V, list(range(len(V))), A.shape[1], facets)


def exact_polar_polygon(P):
    """K° vertices, counterclockwise, of K = conv{±x_i} for planar float points P, in Fractions.

    The hull of the 2N points is a monotone chain (Andrew 1979) in exact
    arithmetic, which drops repeated and collinear points; each hull edge
    (a, b) gives the vertex y with <a, y> = <b, y> = 1.
    """
    pts = sorted({(s * Fraction(x), s * Fraction(y)) for x, y in np.asarray(P, dtype=float).tolist() for s in (1, -1)})
    turn = lambda o, a, b: (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    chains = []
    for walk in (pts, pts[::-1]):
        chain = []
        for p in walk:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    hull = chains[0] + chains[1]
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        det = a[0] * b[1] - a[1] * b[0]
        out.append(((b[1] - a[1]) / det, (a[0] - b[0]) / det))
    return out


def polar_polygon_edges(V):
    """(d, s0, s1) per edge of the convex polygon with vertices V around the origin.

    Taken in angle order the vertices walk the polygon counterclockwise.
    An edge lies on a line at distance d from the origin, and s0 < s1 are
    the tangent coordinates of its ends.
    """
    V = sorted(np.asarray(V).tolist(), key=lambda v: math.atan2(v[1], v[0]))
    edges = []
    for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
        length = math.hypot(bx - ax, by - ay)
        tx, ty = (bx - ax) / length, (by - ay) / length
        s0 = ax * tx + ay * ty
        edges.append((ax * ty - ay * tx, s0, s0 + length))
    return edges


def edge_measure(m, d, s0, s1):
    """ν of the cone from the origin over one polar edge, with Φ(t) = ∫_0^t ρ(r) r dr:
    Owen's T outside the circle of radius R or σ, Gauss–Legendre inside it.
    """
    R = m.sigma if isinstance(m, GaussianLike) else m.R
    if math.isinf(R * R):
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
        a, mid, half = d / R, 0.5 * (hi + lo) / R, 0.5 * (hi - lo) / R
        xs = [(a * a + (mid + half * t) ** 2) / 2 for t in GAUSS_NODES]
        g = math.fsum(w * (-math.expm1(-x) / x if x > 0 else 1.0) for w, x in zip(GAUSS_WEIGHTS, xs))
        total += 0.25 * d * (hi - lo) * g
    return total


def polygon_measure(m, V):
    """ν of the convex polygon with vertices V around the origin, summed edge by edge."""
    return math.fsum(edge_measure(m, *edge) for edge in polar_polygon_edges(V))
