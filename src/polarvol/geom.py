"""Convex bodies of the form A·C + r·B and their support oracles.

A body is represented by what the estimators actually need: a support
function.  The canonical form is the matrix image of a coefficient
gauge plus a Euclidean ball; the support function then splits as
h(y) = h_C(Aᵀy) + r|y|, which makes polar membership an O(nN) test in
any dimension.  H-polytopes are supported in any n >= 2 through their
vertices, read off the one qhull dual hull that each body caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .rng import RngStream

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
    "spans",
    "sphere_directions",
    "dual_exponent",
    "row_norms",
    "gauge_support",
    "support_values",
    "polar_contains",
    "polar_bounding_radius",
    "polar_sampling_radius",
    "column_basis",
    "Parallelepiped",
    "polar_parallelepiped",
    "residual_slabs",
    "pivot_slabs",
    "hausdorff_estimate",
    "unit_ball_volume",
]


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


# rows of the scratch blocks of the column kernels (`row_norms` and
# `measure.parallelepiped_map`): a block of a few columns stays in cache
SCRATCH_ROWS = 8192

# widest M that `_row_max` walks column by column: the walk and numpy's row
# reduction cross between 24 and 48 columns (720 to 65536 rows, one thread;
# at 720 x 256 the walk took 0.39 ms against 0.08 ms)
ROW_MAX_COLUMNS = 32


def _row_max(M: np.ndarray) -> np.ndarray:
    """M.max(axis=1), as a running column-wise maximum up to ROW_MAX_COLUMNS columns.

    Max is exact, so the result is the reduction's bit for bit (NaN
    propagates the same way), but on the 3 to 6 columns of the support
    kernels the walk is 4-20x faster than numpy's strided row reduction.
    Each step of the walk reads a strided column of M, so wide M go to numpy.
    """
    if M.shape[1] > ROW_MAX_COLUMNS:
        return M.max(axis=1)
    out = M[:, 0].copy()
    for j in range(1, M.shape[1]):
        np.maximum(out, M[:, j], out=out)
    return out


def row_norms(Y: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (..., n) array, as a new (...) array.

    The squares are summed column by column into one buffer, left to
    right, each column squared into a scratch block of SCRATCH_ROWS rows.
    For n <= 7 this is the order of numpy's row reduction, so the result
    equals np.linalg.norm(Y, axis=1) bit for bit (numpy 2.4.6); from 8
    columns on numpy sums pairwise and the last bit can differ.  On the 2
    to 6 columns of the sampling kernels it is several times faster.
    """
    rows = Y.reshape(-1, Y.shape[-1])
    out = rows[:, 0] * rows[:, 0]
    square = np.empty(min(len(out), SCRATCH_ROWS))
    for start in range(0, len(out), SCRATCH_ROWS):
        block, sums = rows[start : start + SCRATCH_ROWS], out[start : start + SCRATCH_ROWS]
        s = square[: len(sums)]
        for j in range(1, rows.shape[1]):
            sums += np.multiply(block[:, j], block[:, j], out=s)
    return np.sqrt(out, out=out).reshape(Y.shape[:-1])


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
        if not np.isfinite(A).all():
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

    Its dual hull, and the vertices read off it, are built on first use (a
    support call or its volume), not here, so an empty, flat or unbounded
    polytope constructs and raises only when it is used.
    """

    normals: np.ndarray  # (m, n)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float)
        if b.shape != (A.shape[0],):
            raise DimensionMismatch("offsets: need one number per normal")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise GeometryError("normals and offsets must be finite")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @cached_property
    def dual_hull(self) -> tuple:
        """`_dual_hull` of the halfspaces, built on first use and kept read-only;
        GeometryError when the polytope is empty or flat."""
        hull = _dual_hull(self.normals, self.offsets)
        if len(hull[1]) == 0:
            raise GeometryError("H-polytope is empty or degenerate")
        for a in hull:
            a.flags.writeable = False
        return hull

    @cached_property
    def vertices(self) -> np.ndarray:
        """(k, n) vertex array, enumerated on first use and kept read-only."""
        V = hpolytope_vertices(self)
        V.flags.writeable = False
        return V


@dataclass(frozen=True)
class SupportOracleBody:
    """Body known only through a (vectorized) support function oracle.

    `inradius` is a certified c >= 0 with h(y) >= c·|y| for every y, so K
    holds c·B and K° lies in (1/c)·B; 0 when no such bound is known.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,)
    dim: int
    inradius: float

    def __post_init__(self):
        if not 0 <= self.inradius < math.inf:
            raise GeometryError("inradius must be finite and >= 0")


Body = Union[MatrixImageBody, BallBody, HPolytopeBody, SupportOracleBody]


def qhull_failure(e: QhullError) -> GeometryError:
    """GeometryError for a qhull failure on nearly degenerate input: qhull's
    first error line (QH6xxx), not the precision warnings that may precede it."""
    lines = str(e).splitlines() or ["qhull failed"]
    return GeometryError(next((line for line in lines if line.startswith("QH6")), lines[0]))


def _dual_hull(A: np.ndarray, b: np.ndarray):
    """qhull's dual hull of the polytope {y : Ay <= b}, n >= 2, as (c, simplices, Y).

    qhull needs a point c strictly inside: the origin when every b_i > 0,
    otherwise the Chebyshev centre.  The polytope is bounded exactly when
    c lies strictly inside the hull of the dual points a_i/(b_i - <a_i, c>).
    That hull comes triangulated (qhull's Qt): `simplices` holds each
    facet's n dual-point indices, which are rows of A, and each facet
    <u, x> = -h gives the polytope vertex Y = c + u/h, where those n
    halfspaces meet.  A dual facet with more than n vertices repeats its
    equation, hence its vertex, once per simplex.  An empty or flat
    polytope gives no facets; an unbounded one raises UnboundedBody, and a
    qhull failure on a nearly degenerate dual set `qhull_failure`.
    """
    n = A.shape[1]
    if n < 2:
        raise GeometryError("qhull vertex enumeration needs n >= 2")
    interior = np.zeros(n)
    if not (b > 0).all():
        # Chebyshev centre c: maximise r subject to <a_i, c> + r|a_i| <= b_i, r >= 0.
        # The LP sees b scaled by 2^-e to unit size, exactly, so HiGHS's absolute
        # tolerances and the flat test act at the polytope's own scale
        from scipy.optimize import linprog  # local: a 0.13 s import that only offsets <= 0 need

        e = math.frexp(float(np.abs(b).max()))[1]
        res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.column_stack([A, np.linalg.norm(A, axis=1)]),
                      b_ub=np.ldexp(b, -e), bounds=[(None, None)] * n + [(0.0, None)], method="highs")
        if res.status == 3:
            raise UnboundedBody("halfspace intersection is unbounded")
        if res.status not in (0, 2):
            raise GeometryError(f"Chebyshev centre: {res.message}")
        if res.status == 2 or res.x[n] <= 1e-12 * (1.0 + float(np.linalg.norm(res.x[:n]))):
            return interior, np.empty((0, n), dtype=np.intc), np.empty((0, n))  # empty, or flat
        interior = np.ldexp(res.x[:n], e)
    D = A / (b - A @ interior)[:, None]
    try:
        hull = ConvexHull(D)
    except QhullError as e:
        # a flat dual set cannot hold c inside; a full one failed on qhull's precision
        if not spans(D[1:] - D[0]):
            raise UnboundedBody("halfspace normals do not span; polytope unbounded") from e
        raise qhull_failure(e) from e
    facets = hull.equations
    # the dual hull must hold the origin strictly inside: offsets < 0
    if not (facets[:, -1] < 0).all():
        raise UnboundedBody("halfspace intersection is unbounded")
    return interior, hull.simplices, facets[:, :-1] / -facets[:, -1:] + interior


def hpolytope_vertices(body: HPolytopeBody) -> np.ndarray:
    """Vertices of an H-polytope, one per distinct facet of its cached `dual_hull`, in
    facet order; GeometryError when it is empty, flat or unbounded."""
    V = body.dual_hull[2]
    if V.shape[1] > 2:
        # plane facets are segments, so only n > 2 repeats a vertex
        V = np.array(list(dict.fromkeys(map(tuple, V.tolist()))))
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
# boundedness of K° and radii that hold it


def _spanning_sigma(P: np.ndarray) -> np.ndarray:
    """σ_n of each point set in a (..., N, n) stack, or 0.0 where the set does not span R^n.

    A set spans when N >= n and σ_n > 1e-10·σ_1: a relative test, so λP gets
    the same answer at every scale λ > 0.  The SVD runs on the (n, N) matrix
    whose columns are the points, the matrix of a MatrixImageBody.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape[-2:]
    if N < n:
        return np.zeros(P.shape[:-2])
    s = np.linalg.svd(np.swapaxes(P, -1, -2), compute_uv=False)  # descending
    return np.where(s[..., -1] > 1e-10 * s[..., 0], s[..., -1], 0.0)


def spans(P: np.ndarray) -> np.ndarray:
    """Whether each point set in a (..., N, n) stack spans R^n, so that
    conv{±x_i} has a bounded polar; False when N < n.
    """
    return _spanning_sigma(P) > 0


@cache
def sphere_directions(n: int) -> np.ndarray:
    """The fixed direction set on S^{n-1} of the grid estimates, read-only.

    ±1 for n = 1, 720 equal angles for n = 2, a 2048-point Fibonacci sphere
    for n = 3 and 4096 seeded Gaussian directions for n >= 4.
    """
    if n == 1:
        D = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        D = np.column_stack([np.cos(ang), np.sin(ang)])
    elif n == 3:
        k = np.arange(2048)
        z = 1.0 - (2 * k + 1.0) / 2048
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        D = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
        D /= np.linalg.norm(D, axis=1)[:, None]
    else:
        gen = RngStream(11, n).generator()
        D = gen.standard_normal((4096, n))
        D /= np.linalg.norm(D, axis=1)[:, None]
    D.flags.writeable = False
    return D


def polar_bounding_radius(body: Body):
    """Radius of a ball containing K°: :func:`polar_sampling_radius`, or math.inf when K° is unbounded."""
    try:
        return polar_sampling_radius(body)
    except UnboundedBody:
        return math.inf


def polar_sampling_radius(body: Body) -> float:
    """Radius of a ball containing K°, for the sampler of `mc_polar_measure`.

    The ball is one of its two sampling regions, the other being the
    `polar_parallelepiped` of a matrix image or an H-polytope, which is
    often much smaller (the ball of a σ_min bound is loose for a polytope
    polar).  K° ⊂ R*·B holds whichever region is drawn from, so it also
    bounds |Y| on K° for the sampler's Lebesgue shortcut.

    Exact for a ball (1/R).  Certified for a matrix image, by
    h_K(θ) >= σ_min(A)·min(1, N^{1/q'-1/2}) + r, for an H-polytope, by
    its inradius bound, and for a support oracle, by the inradius c it
    carries: 1/c.

    Whether K° is bounded is decided without a scale: R > 0 for a ball,
    r > 0 or `spans` for a matrix image, every b_i > 0 for an H-polytope
    and c > 0 for an oracle.  Raises UnboundedBody when K° is not known
    to be bounded.
    """
    if isinstance(body, BallBody):
        if not body.R > 0:
            raise UnboundedBody("polar of a degenerate ball is unbounded")
        return 1.0 / body.R
    if isinstance(body, MatrixImageBody):
        qp = dual_exponent(body.gauge.q)
        N = body.gauge.dim
        # q' = inf gives N^{-1/2}: ||u||_inf >= ||u||_2 / sqrt(N)
        factor = min(1.0, N ** (1.0 / qp - 0.5))
        lower = float(_spanning_sigma(body.matrix.T)) * factor + body.rball
        if lower == 0:
            raise UnboundedBody("matrix image with r = 0 whose columns do not span has unbounded polar")
        return 1.0 / lower
    if isinstance(body, HPolytopeBody):
        if not (body.offsets > 0).all():
            raise UnboundedBody("H-polytope does not contain 0 in its interior")
        # K ⊇ ball of radius min_i b_i/|a_i| only if that ball satisfies all
        # constraints; it does since <a_i, y> <= |a_i||y| <= b_i.
        return 1.0 / float((body.offsets / np.linalg.norm(body.normals, axis=1)).min())
    if not body.inradius > 0:
        raise UnboundedBody("support oracle without a certified inradius; polar not known to be bounded")
    return 1.0 / body.inradius


@dataclass(frozen=True)
class Parallelepiped:
    """P = {y : lo_j <= <v_j, y> <= lo_j + width_j, j = 1..n}, the v_j the rows of `normals`.

    P = origin + edges·[0, 1)^n, and `volume` is |P| = Π width_j / |det V|.
    Where K° is a polytope, `slabs` holds the (W, bound) of `residual_slabs`
    for its rows, and None where it is not.
    """

    normals: np.ndarray  # (n, n)
    lo: np.ndarray
    width: np.ndarray
    origin: np.ndarray
    edges: np.ndarray  # (n, n), the edge vectors in its columns
    volume: float
    slabs: tuple | None = None


def _pivoted_rows(U: np.ndarray, steps: int | None = None):
    """`steps` rows of U (n by default) by greedy pivoted Gram–Schmidt, as
    (picks, L, Q) with U[picks] = L·Q.

    Each step takes the row farthest from the span of those taken before
    (the first on a tie) and adds its unit residual to Q's orthonormal
    rows; L is lower triangular, and at steps = n its diagonal, the
    distances taken, has the product |det U[picks]|.  None when a step
    finds no row farther than 1e-10 of U's longest: at steps = n the rows
    do not span R^n, by a test that does not depend on their scale.
    """
    R = U.copy()
    n = U.shape[1]
    steps = n if steps is None else steps
    floor = 1e-10 * float(row_norms(U).max())
    picks, C, Q = [], np.empty((len(U), steps)), np.empty((steps, n))
    for k in range(steps):
        d = row_norms(R)
        j = int(d.argmax())
        if not d[j] > floor:
            return None
        picks.append(j)
        Q[k] = R[j] / d[j]
        C[:, k] = (R * Q[k]).sum(axis=1)
        R -= np.outer(C[:, k], Q[k])
    return picks, np.tril(C[picks]), Q


def column_basis(A: np.ndarray):
    """An orthonormal basis of the span V of an (n, N) matrix's columns, as the
    rows of an (r, n) array; None where the columns span R^n.

    r counts the singular values above 1e-10·σ_1, the relative test of
    `spans`.  The rows are r steps of `_pivoted_rows` over the columns,
    scaled by a power of two to unit size, which is exact: no LAPACK call
    writes them, so their bits do not depend on the BLAS threads.  Also
    None where a step finds no column farther than 1e-10 of the longest,
    though σ_r passes the test (a greedy pick can fall short of σ_r only
    by a factor that grows with N): V is then not built.
    """
    s = np.linalg.svd(A, compute_uv=False)
    r = int(np.count_nonzero(s > 1e-10 * s[0]))
    if r == A.shape[0]:
        return None
    U = A.T
    e = math.frexp(float(np.abs(U).max()))[1]  # 2^-e·U is of unit scale: no square overflows
    pivoted = _pivoted_rows(np.ldexp(U, -e), r)
    return None if pivoted is None else pivoted[2]


def polar_parallelepiped(body: Body):
    """A parallelepiped P ⊇ K° cut from n of the body's own slabs, or None.

    - A matrix image, any q and r: h_K(y) >= |<x_i, y>| + r|y| >= |<x_i', y>|
      with x_i' = (1 + r/|x_i|)·x_i, so K° lies in every slab -1 <= <x_i', y>
      <= 1.  A zero column stays zero and cuts no slab.
    - An H-polytope with 0 inside: for a vertex v, h_K(y) >= <v, y> and,
      with c_v·(-v) the point where the ray along -v leaves K, h_K(y) >=
      -c_v·<v, y>; so K° lies in -1/c_v <= <v, y> <= 1.  1/c_v is the gauge
      max_i <a_i, -v>/b_i of K at -v, one pass over the facets.
    Of the candidate slabs, one greedy pivoted Gram–Schmidt over the normals
    divided by their widths (`_pivoted_rows`) picks n with a large |det|,
    hence a small |P|, without enumerating subsets.  Its factors L·Q give
    the edges Qᵀ·L⁻¹ by back substitution, with no LAPACK call (the first
    `np.linalg.inv` maps 0.4 MB of code and buffers).  None for the other
    bodies, for a matrix image whose columns do not span R^n and for an
    H-polytope without 0 in its interior: their K° has no such P.  Where
    K° = {y : <a_k, y> <= 1} is a polytope, P carries the `residual_slabs`
    of its rows: ±x_i for q = 1 and r = 0, whose h_K(y) is max_i |<x_i, y>|,
    and an H-polytope's vertices v, whose h_K(y) is max_v <v, y>.
    """
    if isinstance(body, MatrixImageBody):
        V = body.matrix.T
        rows = np.concatenate([V, -V]) if body.gauge.q == 1 and body.rball == 0 else None  # K°'s a_k
        if body.rball > 0:
            norms = np.hypot.reduce(V, axis=1)[:, None]  # hypot: no square overflows
            V = V + body.rball * (V / np.where(norms > 0, norms, 1.0))
        g = np.ones(len(V))
    elif isinstance(body, HPolytopeBody) and (body.offsets > 0).all():
        V = rows = body.vertices
        g = _row_max(-V @ (body.normals / body.offsets[:, None]).T)
    else:
        return None
    width = 1.0 + g
    U = V / width[:, None]
    e = math.frexp(float(np.abs(U).max()))[1]  # 2^-e·U is of unit scale, exactly: no square overflows
    pivoted = _pivoted_rows(np.ldexp(U, -e))
    if pivoted is None:
        return None
    picks, L, Q = pivoted
    # the rescaled rows u_j = v_j/width_j cut P as lo_j/width_j <= <u_j, y> <= lo_j/width_j + 1, and
    # their matrix 2^e·L·Q has the inverse edges = 2^-e·Qᵀ·L⁻¹, where Qᵀ·L⁻¹ solves Lᵀ·Xᵀ = Q
    edges_t = np.empty_like(Q)
    for k in reversed(range(len(Q))):
        edges_t[k] = (Q[k] - L[k + 1 :, k] @ edges_t[k + 1 :]) / L[k, k]
    edges = np.ldexp(edges_t.T, -e)
    try:
        volume = math.ldexp(1.0 / float(np.prod(np.diag(L))), -e * len(Q))
    except OverflowError:
        volume = math.inf
    lo, width = -g[picks], width[picks]
    box = Parallelepiped(V[picks], lo, width, edges @ (lo / width), edges, volume)
    return box if rows is None else replace(box, slabs=residual_slabs(box, rows))


def residual_slabs(box: Parallelepiped, rows: np.ndarray):
    """The rows of K° = {y : <a_k, y> <= 1} that P ⊇ K° does not already satisfy, in P's coordinates.

    At y = origin + edges·u, <a_k, y> = c_k + <w_k, u> with c_k = <a_k, origin>
    and w_k = edgesᵀa_k, whose maximum over P's corners u ∈ {0, 1}^n is
    c_k + Σ_j max(0, w_kj).  A row where that is at most 1 plus a rounding
    slack of 16·eps·(|c_k| + Σ_j |w_kj|) holds on all of P and is dropped.
    A row equal to ± a normal of P is one of the slabs P is cut from, or a
    looser one, and is dropped as such: its corner maximum lands a few ulps
    from 1 where P is well conditioned, but 1e-13 off where it is not.
    Returns (W, bound), the kept w_k as rows and their 1 - c_k, so that a
    point u of [0, 1)^n maps into K° when W·u <= bound row by row; no rows
    left certify P = K°.  `polar_parallelepiped` keeps them as P's `slabs`.
    """
    W = rows @ box.edges
    c = rows @ box.origin
    corner = c + np.maximum(W, 0.0).sum(axis=1)
    slack = 16 * np.finfo(float).eps * (np.abs(c) + np.abs(W).sum(axis=1))
    own = (rows[:, None, :] == np.concatenate([box.normals, -box.normals])).all(axis=2).any(axis=1)
    keep = (corner > 1.0 + slack) & ~own
    return W[keep], 1.0 - c[keep]


def pivot_slabs(slabs, j: int | None = None):
    """`residual_slabs`' (W, bound) solved for one coordinate u_j, for `volume._sections`.

    j is the given column, or the one with the largest Σ_k |W_kj| (the first
    on a tie).  A row with W_kj > 0 bounds u_j above, at
    (b_k - Σ_{i≠j} W_ki·u_i)/W_kj, and one
    with W_kj < 0 bounds it below; each such row is divided by W_kj here,
    once.  A row whose quotients are not all finite (W_kj = 0, or so small
    that one overflows) is kept as it is and tests the other coordinates
    alone.  Returns (C, b, upper, lower): the rows of C (without column j)
    and b are the upper bounds, then from `upper` on the lower bounds, then
    from `lower` on the undivided rows.
    """
    W, bound = slabs
    if j is None:
        j = int(np.abs(W).sum(axis=0).argmax())
    a = W[:, j : j + 1]
    rows = np.column_stack([np.delete(W, j, axis=1), bound])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = rows / a
    flat = ~np.isfinite(scaled).all(axis=1)
    up, down = (a[:, 0] > 0) & ~flat, (a[:, 0] < 0) & ~flat
    C = np.concatenate([scaled[up], scaled[down], rows[flat]])
    return C[:, :-1], C[:, -1], int(up.sum()), int(up.sum() + down.sum())


def hausdorff_estimate(a: Body, b: Body) -> float:
    """Estimate max_θ |h_a − h_b| over `sphere_directions`; a lower bound of the true δ^H."""
    if a.dim != b.dim:
        raise DimensionMismatch("bodies must share a dimension")
    D = sphere_directions(a.dim)
    ha = support_values(a, D)
    hb = support_values(b, D)
    if not (np.all(np.isfinite(ha)) and np.all(np.isfinite(hb))):
        raise UnboundedBody("hausdorff_estimate requires bounded bodies")
    return float(np.abs(ha - hb).max())
