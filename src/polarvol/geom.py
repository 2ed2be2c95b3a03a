"""Convex bodies of the form A·C + r·B and their support oracles.

A body is represented by what the estimators actually need: a support
function.  The canonical form is the matrix image of a coefficient
gauge plus a Euclidean ball; the support function then splits as
h(y) = h_C(Aᵀy) + r|y|, which makes polar membership an O(nN) test in
any dimension.  H-polytopes are supported in any n >= 2 through their
vertices, which qhull enumerates once per body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

__all__ = [
    "GeometryError",
    "DimensionMismatch",
    "UnboundedBody",
    "LqBall",
    "MatrixImageBody",
    "BallBody",
    "HPolytopeBody",
    "SupportOracleBody",
    "Body",
    "DirectionGrid",
    "dual_exponent",
    "row_norms",
    "gauge_support",
    "support_values",
    "polar_contains",
    "polar_bounding_radius",
    "polar_sampling_radius",
    "hausdorff_estimate",
    "unit_ball_volume",
]

DEGENERATE_TOL = 1e-12


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class UnboundedBody(GeometryError):
    pass


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the Euclidean unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def dual_exponent(q: float) -> float:
    """q' with 1/q + 1/q' = 1; the endpoints 1 and inf are explicit cases."""
    if q == 1:
        return math.inf
    if q == math.inf:
        return 1.0
    return q / (q - 1.0)


# ---------------------------------------------------------------------------
# coefficient gauges


@dataclass(frozen=True)
class LqBall:
    """Unit ball of l_q^N, q >= 1.  Always unconditional."""

    q: float
    dim: int

    def __post_init__(self):
        if not self.q >= 1:
            raise GeometryError(f"LqBall requires q >= 1, got {self.q}")
        if self.dim < 1:
            raise GeometryError("gauge dimension must be >= 1")


def _row_max(M: np.ndarray) -> np.ndarray:
    """M.max(axis=1) as a running column-wise maximum.

    Max is exact, so the result is the reduction's bit for bit (NaN
    propagates the same way), but on the 3 to 6 columns of the support
    kernels it is 4-20x faster than numpy's strided row reduction.
    """
    out = M[:, 0].copy()
    for j in range(1, M.shape[1]):
        np.maximum(out, M[:, j], out=out)
    return out


def row_norms(Y: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (m, n) array, as a new (m,) array.

    The squares are summed column by column into one buffer, left to
    right.  For n <= 7 this is the order of numpy's row reduction, so the
    result equals np.linalg.norm(Y, axis=1) bit for bit (numpy 2.4.6); from
    8 columns on numpy sums pairwise and the last bit can differ.  On the
    2 to 6 columns of the sampling kernels it is several times faster.
    """
    out = Y[:, 0] * Y[:, 0]
    for j in range(1, Y.shape[1]):
        out += Y[:, j] * Y[:, j]
    return np.sqrt(out, out=out)


def _dual_norm(qp: float, absU: np.ndarray) -> np.ndarray:
    """Row-wise l_{q'} norm of a nonnegative (m, N) array, which it may overwrite."""
    if qp == math.inf:
        return _row_max(absU)
    if qp == 1.0:
        return absU.sum(axis=1)
    absU **= qp
    return absU.sum(axis=1) ** (1.0 / qp)


def gauge_support(gauge: LqBall, U: np.ndarray) -> np.ndarray:
    """Support function h_C of the gauge's unit ball, batched.

    U has shape (m, N); returns shape (m,).  This is the dual-exponent
    norm; +inf never occurs since LqBall is bounded.  U is left unchanged.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return _dual_norm(dual_exponent(gauge.q), np.abs(U))


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True)
class MatrixImageBody:
    """K = [x_1 ... x_N] C + r B_2^n; columns of `matrix` are the x_i."""

    matrix: np.ndarray  # (n, N)
    gauge: LqBall
    rball: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2:
            raise GeometryError("matrix must be n x N")
        object.__setattr__(self, "matrix", A)
        if A.shape[1] != self.gauge.dim:
            raise DimensionMismatch(
                f"matrix has {A.shape[1]} columns but gauge lives in R^{self.gauge.dim}"
            )
        if not 0 <= self.rball < math.inf:
            raise GeometryError("rball must be finite and >= 0")
        if not np.all(np.isfinite(A)):
            raise GeometryError("matrix entries must be finite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BallBody:
    R: float
    dim: int

    def __post_init__(self):
        if not 0 <= self.R < math.inf:
            raise GeometryError("ball radius must be finite and >= 0")
        if self.dim < 1:
            raise GeometryError("ball dimension must be >= 1")


@dataclass(frozen=True)
class HPolytopeBody:
    """Intersection of halfspaces <a_i, y> <= b_i in n >= 2 dimensions.

    The vertices are enumerated on the first support call, not here, so an
    empty, flat or unbounded polytope constructs and raises only when it
    is used.
    """

    normals: np.ndarray  # (m, n)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float)
        if b.shape != (A.shape[0],):
            raise DimensionMismatch("offsets: need one number per normal")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise GeometryError("normals and offsets must be finite")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @cached_property
    def vertices(self) -> np.ndarray:
        """(k, n) vertex array, enumerated on first use and kept read-only."""
        V = hpolytope_vertices(self)
        V.flags.writeable = False
        return V


@dataclass(frozen=True)
class SupportOracleBody:
    """Body known only through a (vectorized) support function oracle."""

    evaluator: Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,)
    dim: int


Body = Union[MatrixImageBody, BallBody, HPolytopeBody, SupportOracleBody]


def halfspace_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of the polytope {y : Ay <= b}, n >= 2, from qhull's dual hull.

    qhull needs a point c strictly inside: the origin when every b_i > 0,
    otherwise the Chebyshev centre.  The polytope is bounded exactly when
    c lies strictly inside the hull of the dual points a_i/(b_i - <a_i, c>),
    and each facet <u, x> = -h of that hull gives the vertex c + u/h.  An
    empty or flat polytope gives a (0, n) array; an unbounded one raises
    UnboundedBody.
    """
    n = A.shape[1]
    if n < 2:
        raise GeometryError("qhull vertex enumeration needs n >= 2")
    interior = np.zeros(n)
    if not (b > 0).all():
        # Chebyshev centre c: maximise r subject to <a_i, c> + r|a_i| <= b_i, r >= 0
        res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.column_stack([A, np.linalg.norm(A, axis=1)]), b_ub=b,
                      bounds=[(None, None)] * n + [(0.0, None)], method="highs")
        if res.status == 3:
            raise UnboundedBody("halfspace intersection is unbounded")
        if res.status not in (0, 2):
            raise GeometryError(f"Chebyshev centre: {res.message}")
        if res.status == 2 or res.x[n] <= DEGENERATE_TOL * (1.0 + float(np.linalg.norm(res.x[:n]))):
            return np.empty((0, n))  # empty, or flat
        interior = res.x[:n]
    try:
        facets = ConvexHull(A / (b - A @ interior)[:, None]).equations
    except QhullError as e:
        raise UnboundedBody("halfspace normals do not span; polytope unbounded") from e
    # the dual hull must hold the origin strictly inside: offsets < 0
    if not (facets[:, -1] < 0).all():
        raise UnboundedBody("halfspace intersection is unbounded")
    V = facets[:, :-1] / -facets[:, -1:] + interior
    if n > 2:
        # ConvexHull triangulates (qhull's Qt), so a dual facet with more than n
        # vertices repeats its equation once per simplex; plane facets are segments
        V = np.array(list(dict.fromkeys(map(tuple, V.tolist()))))
    return V


def hpolytope_vertices(body: HPolytopeBody) -> np.ndarray:
    """Vertices of an H-polytope; GeometryError when it is empty, flat or unbounded."""
    V = halfspace_vertices(body.normals, body.offsets)
    if V.shape[0] == 0:
        raise GeometryError("H-polytope is empty or degenerate")
    return V


def support_values(body: Body, Y: np.ndarray) -> np.ndarray:
    """Support function h_K at a batch of points.  Y: (m, n) -> (m,)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != body.dim:
        raise DimensionMismatch(f"points have dim {Y.shape[1]}, body has dim {body.dim}")
    if isinstance(body, BallBody):
        return body.R * row_norms(Y)
    if isinstance(body, MatrixImageBody):
        U = Y @ body.matrix  # (m, N), ours to overwrite
        h = _dual_norm(dual_exponent(body.gauge.q), np.abs(U, out=U))
        if body.rball > 0:
            h += body.rball * row_norms(Y)
        return h
    if isinstance(body, HPolytopeBody):
        return _row_max(Y @ body.vertices.T)
    if isinstance(body, SupportOracleBody):
        return np.asarray(body.evaluator(Y), dtype=float)
    raise TypeError(f"unknown body type {type(body)!r}")


def polar_contains(body: Body, Y: np.ndarray) -> np.ndarray:
    """Membership of a batch of points in K° = {y : h_K(y) <= 1}."""
    return support_values(body, Y) <= 1.0


# ---------------------------------------------------------------------------
# direction grids


@dataclass(frozen=True)
class DirectionGrid:
    directions: np.ndarray  # (m, n), unit rows

    def __post_init__(self):
        D = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if D.shape[0] == 0:
            raise GeometryError("direction grid must be nonempty")
        norms = np.linalg.norm(D, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise GeometryError("direction grid entries must be unit vectors")
        object.__setattr__(self, "directions", D)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def lattice(cls, n: int, resolution: int = 720) -> "DirectionGrid":
        """Deterministic lattice on S^{n-1}, n <= 3."""
        if n == 1:
            return cls(np.array([[1.0], [-1.0]]))
        if n == 2:
            ang = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
            return cls(np.column_stack([np.cos(ang), np.sin(ang)]))
        if n == 3:
            # Fibonacci sphere
            k = np.arange(resolution)
            z = 1.0 - (2 * k + 1.0) / resolution
            phi = k * math.pi * (3.0 - math.sqrt(5.0))
            s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            D = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
            D /= np.linalg.norm(D, axis=1)[:, None]
            return cls(D)
        raise GeometryError("deterministic lattice only available for n <= 3")

    @classmethod
    def sampled(cls, n: int, count: int, rng: np.random.Generator) -> "DirectionGrid":
        """Seeded uniform sphere sample, any dimension."""
        D = rng.standard_normal((count, n))
        D /= np.linalg.norm(D, axis=1)[:, None]
        return cls(D)

    @classmethod
    def default(cls, n: int) -> "DirectionGrid":
        if n <= 3:
            return cls.lattice(n, 720 if n < 3 else 2048)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11, spawn_key=(n,))))
        return cls.sampled(n, 4096, rng)


def polar_bounding_radius(body: Body, grid: DirectionGrid):
    """Radius of a ball containing K°, or math.inf when degenerate.

    If the body carries a Euclidean-ball summand of radius r > 0 the
    answer is exactly 1/r; otherwise 1/min_grid h_K.  A minimum below
    1e-12 is classified as unbounded rather than returned as a huge
    radius.
    """
    if isinstance(body, BallBody):
        if body.R < DEGENERATE_TOL:
            return math.inf
        return 1.0 / body.R
    if isinstance(body, MatrixImageBody) and body.rball > 0:
        return 1.0 / body.rball
    h = support_values(body, grid.directions)
    hmin = float(h.min())
    if hmin < DEGENERATE_TOL:
        return math.inf
    return 1.0 / hmin


def polar_sampling_radius(body: Body) -> float:
    """Rigorous (conservative) radius of a ball containing K°.

    Unlike :func:`polar_bounding_radius` this never undershoots: for
    matrix-image bodies it uses
    h_K(θ) >= σ_min(A)·min(1, N^{1/q'-1/2}) + r; for H-polytopes the
    inradius bound; elsewhere a grid minimum with a safety factor.
    Raises UnboundedBody when no finite radius can be certified.
    """
    if isinstance(body, BallBody):
        if body.R < DEGENERATE_TOL:
            raise UnboundedBody("polar of a degenerate ball is unbounded")
        return 1.0 / body.R
    if isinstance(body, MatrixImageBody):
        s = np.linalg.svd(body.matrix, compute_uv=False)
        # fewer columns than rows means A^T has a kernel: h_C(A^T y) can vanish
        sigma_min = float(s.min()) if body.matrix.shape[1] >= body.dim else 0.0
        qp = dual_exponent(body.gauge.q)
        N = body.gauge.dim
        # q' = inf gives N^{-1/2}: ||u||_inf >= ||u||_2 / sqrt(N)
        factor = min(1.0, N ** (1.0 / qp - 0.5))
        lower = sigma_min * factor + body.rball
        if lower < DEGENERATE_TOL:
            raise UnboundedBody("rank-deficient matrix image with r = 0 has unbounded polar")
        return 1.0 / lower
    if isinstance(body, HPolytopeBody):
        scale = body.offsets / np.linalg.norm(body.normals, axis=1)
        if np.any(scale < DEGENERATE_TOL):
            raise UnboundedBody("H-polytope does not contain 0 in its interior")
        # K ⊇ ball of radius min_i b_i/|a_i| only if that ball satisfies all
        # constraints; it does since <a_i, y> <= |a_i||y| <= b_i.
        return 1.0 / float(scale.min())
    grid = DirectionGrid.default(body.dim)
    h = support_values(body, grid.directions)
    hmin = float(h.min())
    if hmin < DEGENERATE_TOL:
        raise UnboundedBody("support minimum degenerate; polar unbounded")
    return 1.0 / (0.95 * hmin)


def hausdorff_estimate(a: Body, b: Body, grid: DirectionGrid) -> float:
    """Grid estimate max_θ |h_a − h_b|; a lower bound of the true δ^H."""
    if a.dim != b.dim or grid.dim != a.dim:
        raise DimensionMismatch("bodies and grid must share a dimension")
    ha = support_values(a, grid.directions)
    hb = support_values(b, grid.directions)
    if not (np.all(np.isfinite(ha)) and np.all(np.isfinite(hb))):
        raise UnboundedBody("hausdorff_estimate requires bounded bodies")
    return float(np.abs(ha - hb).max())
