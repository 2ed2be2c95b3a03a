"""Numerical gauge constructions, shadow-system profiles and the 1-D
rearrangement-inequality oracle.

Convexity of a profile is always certified by midpoint checks on a
grid, never by derivative estimation: Monte Carlo noise makes second
derivatives meaningless, while midpoint checks with a 3-sigma tolerance
are statistically sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise, product
from typing import Callable, Optional, Sequence

import numpy as np

from .geom import (
    GeometryError,
    LqBall,
    MatrixImageBody,
    UnboundedBody,
)
from .measure import (
    LebesgueRestricted,
    MeasureError,
    RadialMeasure,
    _gauss_kronrod,
    nu_plus_hyperplane,
    psi_values,
)
from .rng import RngStream
from .volume import EstimationError, exact_polar_volume_crosspoly, polar_measures

__all__ = [
    "ShadowConfig",
    "ProfileReport",
    "shadow_profile",
    "convexity_even_check",
    "busemann_gauge",
    "milman_pajor_gauge",
    "ball_bobkov_gauge",
    "brunn_profile",
    "Step1D",
    "rearrange_step1d",
    "rbll_check_1d",
]


# ---------------------------------------------------------------------------
# profiles


@dataclass
class ProfileReport:
    grid: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    tol: float
    even: Optional[bool] = None
    midpoint_convex: Optional[bool] = None
    worst_violation: float = 0.0

    def to_csv(self) -> str:
        lines = ["t,value,stderr"]
        for t, v, s in zip(self.grid, self.values, self.stderrs):
            lines.append(f"{float(t)!r},{float(v)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"

    def verdict(self) -> dict:
        return {
            "even": self.even,
            "midpoint_convex": self.midpoint_convex,
            "worst_violation": self.worst_violation,
            "tol": self.tol,
        }


def convexity_even_check(p: ProfileReport, tol: float, check_even: bool = True) -> dict:
    """Midpoint convexity and evenness of a sampled profile.

    For every pair of grid points whose midpoint is itself a grid
    point: g(mid) <= (g(a) + g(c))/2 + tol.  Evenness: |g(t) - g(-t)|
    <= tol wherever -t is on the grid.  Reports the worst violation; a
    profile with a non-finite value fails both checks, with worst
    violation inf.
    """
    t = np.asarray(p.grid, dtype=float)
    g = np.asarray(p.values, dtype=float)
    if not (np.isfinite(t).all() and np.all(np.diff(t) > 0)):
        raise ValueError("profile grid must be finite and sorted increasing")
    if not np.isfinite(g).all():  # a gap with a NaN or an inf in it compares as no violation
        p.even, p.midpoint_convex, p.worst_violation = (False if check_even else None), False, math.inf
        return {"even": p.even, "midpoint_convex": False, "worst_violation": math.inf}
    worst = 0.0
    convex = True
    m = len(t)
    span = max(1.0, float(np.abs(t).max()))
    for i in range(m):
        for j in range(i + 2, m):
            mid = 0.5 * (t[i] + t[j])
            k = int(np.argmin(np.abs(t - mid)))
            if abs(t[k] - mid) > 1e-12 * span:
                continue
            gap = g[k] - 0.5 * (g[i] + g[j])
            if gap > tol:
                convex = False
            worst = max(worst, gap)
    even = None
    if check_even:
        even = True
        for i in range(m):
            k = int(np.argmin(np.abs(t + t[i])))
            if abs(t[k] + t[i]) > 1e-12 * span:
                continue
            gap = abs(g[i] - g[k])
            if gap > tol:
                even = False
            worst = max(worst, gap)
    verdict = {"even": even, "midpoint_convex": convex, "worst_violation": worst}
    p.even, p.midpoint_convex, p.worst_violation = even, convex, max(p.worst_violation, worst)
    return verdict


# ---------------------------------------------------------------------------
# shadow systems


@dataclass(frozen=True)
class ShadowConfig:
    """Line configuration for the perturbed-columns profile
    t -> nu(([y_1 + t d_1 theta ... y_N + t d_N theta] C + r B)°)^{-1}."""

    theta: np.ndarray  # unit vector in R^n
    base_positions: np.ndarray  # (N, n), rows y_i in theta-perp
    gauge: LqBall
    rball: float
    m: RadialMeasure

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        Y = np.atleast_2d(np.asarray(self.base_positions, dtype=float))
        if not (np.isfinite(th).all() and np.isfinite(Y).all()):
            raise GeometryError("theta and base positions must be finite")
        if abs(np.linalg.norm(th) - 1.0) > 1e-12:
            raise GeometryError("theta must be a unit vector")
        if Y.shape[1] != th.size:
            raise GeometryError("base positions must live in the same R^n as theta")
        if np.any(np.abs(Y @ th) > 1e-12):
            raise GeometryError("base positions must be orthogonal to theta")
        if Y.shape[0] != self.gauge.dim:
            raise GeometryError("need one base position per gauge coordinate")
        if self.m.dim != th.size:
            raise GeometryError("the measure must live in the same R^n as theta")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "base_positions", Y)

    @property
    def n(self) -> int:
        return self.theta.size

    def body_at(self, t: np.ndarray) -> MatrixImageBody:
        """Body for parameter vector t in R^N."""
        t = np.asarray(t, dtype=float)
        cols = self.base_positions + t[:, None] * self.theta[None, :]
        return MatrixImageBody(cols.T, self.gauge, self.rball)


def shadow_profile(
    cfg: ShadowConfig,
    direction: np.ndarray,
    t_grid: Sequence[float],
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> ProfileReport:
    """Profile g(t) = 1 / nu(body(t·direction)°) along a line in R^N.

    A cross-polytope (q = 1, r = 0) under Lebesgue measure with R = inf, n >= 2,
    takes exact volumes from the qhull oracle; an unbounded polar gives g = 0.
    Any other line sends its grid through one `polar_measures` call, point i
    on stream `rng.stream + i`: exact where that dispatcher is (a spanning
    planar q = 1, r = 0 line under a Gaussian or a Lebesgue R < inf), Monte
    Carlo elsewhere, as at a t where the points lie on theta-perp.  The
    verdict tolerance is max(1e-9·max g, 3·max stderr): g scales as s^n with
    the system, and a sampled g carries its propagated stderr.
    """
    d = np.asarray(direction, dtype=float)
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if t_grid.size < 5:
        raise ValueError("t grid needs >= 5 points")
    bodies = [cfg.body_at(t * d) for t in t_grid]
    lebesgue_inf = isinstance(cfg.m, LebesgueRestricted) and math.isinf(cfg.m.R)
    if lebesgue_inf and cfg.n >= 2 and cfg.gauge.q == 1.0 and cfg.rball == 0.0:
        values, stderrs = np.zeros_like(t_grid), np.zeros_like(t_grid)
        for i, body in enumerate(bodies):
            try:
                values[i] = 1.0 / exact_polar_volume_crosspoly(body.matrix.T)
            except UnboundedBody:
                pass  # g = 0
    else:
        rngs = [RngStream(rng.seed, rng.stream + i) for i in range(len(bodies))]
        ests = polar_measures(bodies, cfg.m, budget, rngs, threads)
        nu = np.array([est.value for est in ests])
        if not nu.all():
            raise EstimationError(f"no sample fell in the polar at t = {t_grid[nu == 0][0]:g}: raise the budget")
        values, stderrs = 1.0 / nu, np.array([est.stderr for est in ests]) / nu ** 2
    tol = max(1e-9 * float(values.max()), 3.0 * float(stderrs.max()))
    report = ProfileReport(t_grid, values, stderrs, tol=tol)
    convexity_even_check(report, tol, check_even=True)
    return report


# ---------------------------------------------------------------------------
# gauge constructions


def busemann_gauge(
    psi: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    support_radius: float = 50.0,
) -> np.ndarray:
    """Gauge z -> |z| / ∫_{z⊥} ψ at each row of a (K, 2) stack z, for an even, -1/2-concave ψ.

    ψ maps an (m, 2) batch to shape (m,), as in `nu_plus_hyperplane`, which
    integrates every nonzero row in one call and refuses n != 2
    (MeasureError).  ψ(0) must be > 0 (MeasureError otherwise); a
    -1/2-concave ψ is then positive and continuous on a convex set holding
    0 and zero outside it.  A zero row gets 0 by convention.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    norms = np.sqrt(np.vecdot(z, z))  # the dot kernel of np.linalg.norm on one row
    out = np.zeros(len(z))
    some = norms != 0
    if some.any():
        mass = nu_plus_hyperplane(psi, z[some], support_radius=support_radius)
        if np.any(mass <= 0):
            raise MeasureError("hyperplane mass is zero")
        out[some] = norms[some] / mass
    return out


def spot_check_neg_recip_concavity(
    psi: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: RngStream,
    segments: int = 50,
    radius: float = 1.0,
) -> bool:
    """Midpoint check of ψ^{-1/n} convexity on random segments.

    ψ maps an (m, n) batch to shape (m,); the endpoints and midpoints of
    all segments go to it in one batch.  The segments are drawn in
    [-radius, radius]^n, and one counts only if ψ > 0 at both ends; False
    when none counts, as nothing was checked.  A violation does not raise:
    callers demote the run to hypothesis-unverified status instead.
    """
    # the draws of segment k are a_k then b_k, as in one draw per endpoint
    ends = rng.generator().uniform(-radius, radius, size=(segments, 2, n))
    a, b = ends[:, 0], ends[:, 1]
    vals = psi_values(psi, np.concatenate([a, b, 0.5 * (a + b)]))
    def inv(v):
        return math.inf if v <= 0 else v ** (-1.0 / n)
    checked = False
    for va, vb, vm in zip(*vals.reshape(3, segments).tolist()):
        ka, kb, km = inv(va), inv(vb), inv(vm)
        if math.isinf(ka) or math.isinf(kb):
            continue
        if km > 0.5 * (ka + kb) + 1e-9 * (1 + abs(ka) + abs(kb)):
            return False
        checked = True
    return checked


def ball_bobkov_gauge(
    psi: Callable[[np.ndarray], np.ndarray],
    p: float,
    x: np.ndarray,
    upper,
    scale: float = 1.0,
) -> np.ndarray:
    """F(x) = (∫_0^upper ψ(rx) r^{p-1} dr)^{-1/p} at each row of a (K, n) stack x.

    ψ maps an (m, n) batch to shape (m,); `upper` is a finite bound on r,
    one for all rows or one per row.  With r = r0·t and r0 = min(scale/|x|,
    upper), the integral is r0^p times ∫_0^1 in u = t^p/p, where the weight
    t^{p-1} is absorbed, plus ∫_1^{upper/r0} ψ(t·r0·x) t^{p-1} dt in t.  No
    fixed substitution serves every p: in r alone small p does not converge,
    and in u alone large p puts every node past the mass of ψ, so `scale`
    should be the radius where ψ falls off.  All 2K integrals run in one
    `_gauss_kronrod` to 1e-13 relative.  MeasureError unless every F is
    finite and > 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    K = len(x)
    if not 0 < p < math.inf:
        raise ValueError("p must be finite and > 0")
    norms = np.sqrt(np.vecdot(x, x))
    if np.any(norms == 0):
        raise ValueError("x must be nonzero")
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (K,))
    if not np.all((upper > 0) & (upper < math.inf)):
        raise ValueError("upper must be finite and > 0")
    r0 = np.minimum(scale / norms, upper)
    y = r0[:, None] * x  # ψ(rx) = ψ(t·y)
    ends = upper / r0
    breaks = [np.array([0.0, 1.0 / p])] * K + [np.array([1.0, e]) for e in ends]

    def g(k, s):
        # integral k < K is the u half of row k, integral K + k its t half
        u_half = k < K
        t, weight = s.copy(), np.ones_like(s)
        t[u_half] = (p * s[u_half]) ** (1.0 / p)
        weight[~u_half] = s[~u_half] ** (p - 1.0)
        points = t[:, :, None] * y[k % K][:, None, :]
        return psi_values(psi, points.reshape(-1, x.shape[1])).reshape(s.shape) * weight

    J = _gauss_kronrod(g, breaks, epsabs=0.0, epsrel=1e-13)
    with np.errstate(divide="ignore", over="ignore"):
        F = (J[:K] + J[K:]) ** (-1.0 / p) / r0
    if not np.all((F > 0) & (F < math.inf)):
        raise MeasureError("radial integral is zero or divergent, or F is not a positive float")
    return F


def milman_pajor_gauge(
    phi: Callable[[np.ndarray], float],
    e_basis: np.ndarray,
    p: float,
    v: np.ndarray,
    support_radius: float = 50.0,
) -> float:
    """Gauge |v|^{(2p-1)/p} (∫_{E ⊕ R₊v} <x,v>^{p-1} φ(x) dx)^{-1/p}.

    `e_basis` is a (k, n) orthonormal basis of E, k <= 2 and total
    dimension <= 3 (nested quadrature).  v must lie in E-perp.
    """
    v = np.asarray(v, dtype=float)
    E = np.atleast_2d(np.asarray(e_basis, dtype=float)) if np.size(e_basis) else np.empty((0, v.size))
    k = E.shape[0]
    vn = float(np.linalg.norm(v))
    if vn == 0:
        raise ValueError("v must be nonzero")
    if k and np.any(np.abs(E @ v) > 1e-10 * vn):
        raise ValueError("v must be orthogonal to E")
    if v.size > 3:
        raise ValueError("quadrature limited to total dimension <= 3")
    vhat = v / vn
    S = support_radius
    from scipy import integrate  # local: a 0.05 s import, and no command runs this gauge

    if k == 0:
        integrand = lambda s: phi(s * vhat) * (s * vn) ** (p - 1.0)
        val, _ = integrate.quad(integrand, 0.0, S, limit=400)
    elif k == 1:
        u = E[0]
        val, _ = integrate.dblquad(
            lambda e, s: phi(s * vhat + e * u) * (s * vn) ** (p - 1.0),
            0.0, S, -S, S, epsabs=1e-10, epsrel=1e-8,
        )
    elif k == 2:
        u1, u2 = E[0], E[1]
        val, _ = integrate.tplquad(
            lambda e2, e1, s: phi(s * vhat + e1 * u1 + e2 * u2) * (s * vn) ** (p - 1.0),
            0.0, S, -S, S, -S, S, epsabs=1e-9, epsrel=1e-7,
        )
    else:
        raise ValueError("E may have dimension at most 2")
    if val <= 0 or not math.isfinite(val):
        raise MeasureError("milman-pajor integral is zero or divergent")
    return vn ** ((2.0 * p - 1.0) / p) * val ** (-1.0 / p)


def brunn_profile(
    varphi: Callable[[float, np.ndarray], float],
    alpha: float,
    n: int,
    t_grid: Sequence[float],
    domain_radius: float = math.inf,
) -> ProfileReport:
    """Profile t -> (∫ φ(t, x)^{-n-α} dx)^{-1/α} for positive convex φ.

    Quadrature only (n <= 2); the convexity verdict uses a 1e-6
    tolerance matching the quadrature accuracy.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not domain_radius > 0:
        raise ValueError("domain_radius must be > 0 (inf allowed)")
    if n not in (1, 2):
        raise ValueError("brunn profile implemented for n in {1, 2}")
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if not np.isfinite(t_grid).all():
        raise ValueError("t grid must be finite")
    from scipy import integrate  # local: a 0.05 s import that only `brunn` needs

    L = domain_radius
    lo, hi = (-L, L) if math.isfinite(L) else (-math.inf, math.inf)
    vals = np.zeros_like(t_grid)
    for i, t in enumerate(t_grid):
        if n == 1:
            I, _ = integrate.quad(lambda x: varphi(t, np.array([x])) ** (-n - alpha), lo, hi, limit=400)
        else:
            I, _ = integrate.dblquad(
                lambda y, x: varphi(t, np.array([x, y])) ** (-n - alpha),
                lo, hi, lo, hi, epsabs=1e-10, epsrel=1e-8,
            )
        if not math.isfinite(I) or I <= 0:
            raise MeasureError(f"brunn integrand diverges at t={t}")
        vals[i] = I ** (-1.0 / alpha)
    report = ProfileReport(t_grid, vals, np.zeros_like(vals), tol=1e-6)
    convexity_even_check(report, 1e-6, check_even=False)
    return report


# ---------------------------------------------------------------------------
# 1-D step functions and the rearrangement-inequality oracle


@dataclass(frozen=True)
class Step1D:
    """Step function on R: values[j] on [breaks[j], breaks[j+1]), 0 outside."""

    breaks: np.ndarray  # (m+1,), strictly increasing
    values: np.ndarray  # (m,), >= 0

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1:
            raise ValueError("need m+1 breaks for m values")
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise ValueError("breaks and values must be finite")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breaks must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("values must be >= 0")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)

    def __call__(self, x: float) -> float:
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        if idx < 0 or idx >= self.values.size:
            return 0.0
        return float(self.values[idx])

    def integral(self) -> float:
        return float(np.dot(self.values, np.diff(self.breaks)))


def rearrange_step1d(g: Step1D) -> Step1D:
    """Symmetric decreasing rearrangement of a 1-D step function.

    Exact: each level set {g >= v} maps to the centered interval of
    equal length.
    """
    distinct = sorted({float(v) for v in g.values if v > 0}, reverse=True)
    if not distinct:
        return Step1D(np.array([-0.5, 0.5]), np.array([0.0]))
    lengths = []  # |{g >= v_k}|, increasing in k since level sets nest
    for v in distinct:
        mask = g.values >= v
        lengths.append(float(np.dot(mask, np.diff(g.breaks))))
    half = [0.5 * L for L in lengths]
    breaks = np.array([-h for h in reversed(half)] + half)
    # distinct = [v1 > v2 > ...]; value layout is [vK..v2, v1, v2..vK]
    values = np.array(distinct[:0:-1] + [distinct[0]] + distinct[1:])
    return Step1D(breaks, values)


def _clip_polygons(verts: np.ndarray, count: np.ndarray, a: np.ndarray, b, tol):
    """Sutherland-Hodgman clip of a stack of convex polygons, row r by {<a_r, y> <= b}.

    `verts` is (M, W, 2), row r's polygon in its first count[r] slots; `a`
    is (M, 2), and `b` and `tol` are one per row or one for all.  A vertex
    within tol of the line counts as on it.  Each row's walk emits, in
    order, every vertex on the kept side and the crossing point of every
    edge whose ends lie strictly on opposite sides; a cumulative sum of
    those flags gives each emitted point its slot.  Returns the clipped
    (verts, count).  The offsets come from one stacked matmul, which gives
    each row the bits of its own `poly @ a`; an elementwise x·a0 + y·a1
    does not, since BLAS uses FMA.
    """
    M, W, _ = verts.shape
    d = np.matmul(verts, a[:, :, None])[:, :, 0] - np.reshape(b, (-1, 1))
    tol = np.reshape(tol, (-1, 1))
    j = np.arange(W)
    nxt = np.where(j + 1 < count[:, None], j + 1, 0)
    dn = np.take_along_axis(d, nxt, axis=1)
    valid = j < count[:, None]
    keep = valid & (d <= tol)
    cross = valid & (((d < -tol) & (dn > tol)) | ((d > tol) & (dn < -tol)))
    emitted = keep.astype(np.intp) + cross
    end = np.cumsum(emitted, axis=1)
    out = np.zeros((M, max(int(end[:, -1].max(initial=0)), 1), 2))
    rows, cols = np.nonzero(keep)
    out[rows, end[rows, cols] - emitted[rows, cols]] = verts[rows, cols]
    rows, cols = np.nonzero(cross)
    di, dj = d[rows, cols], dn[rows, cols]
    vi, vj = verts[rows, cols], verts[rows, nxt[rows, cols]]
    out[rows, end[rows, cols] - 1] = vi + (di / (di - dj))[:, None] * (vj - vi)
    return out, end[:, -1]


def _shoelace_areas(verts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace area of each row's polygon; 0 below three vertices.

    Rows go in groups of equal vertex count, so each row's two dot
    products are BLAS calls of its own length and strides, as for a lone
    polygon: zero padding would regroup OpenBLAS's partial sums.
    """
    area = np.zeros(count.shape)
    for m in np.unique(count[count >= 3]).tolist():
        rows = np.flatnonzero(count == m)
        v = verts[rows, :m]
        x, y = v[:, :, 0], v[:, :, 1]
        x1 = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
        y1 = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
        twice = np.matmul(x[:, None, :], y1[:, :, None]) - np.matmul(y[:, None, :], x1[:, :, None])
        area[rows] = 0.5 * np.abs(twice[:, 0, 0])
    return area


def _slab_box_areas(constraints, coeffs: np.ndarray, box_halfwidth: float) -> np.ndarray:
    """Exact area of {s in [-L, L]^2 : <c_i, s> in [lo_i, hi_i)} for each
    (k, 2) matrix c of the stack `coeffs`, one cell for the whole stack.

    Clips the square by each slab's two half-planes, with a tolerance of
    1e-12·L·|c_i|_1 per row, the scale of <c_i, s> on the box.  A zero
    coefficient row reduces to the point condition 0 in [lo, hi), checked
    exactly: the clip's tolerance would keep a slab that ends at 0.  When
    the condition holds, the clip keeps the whole polygon (offsets -hi < 0
    and lo <= 0 against a tolerance of 0), so those rows need no mask.
    """
    L = box_halfwidth
    verts = np.tile(np.array([[-L, -L], [L, -L], [L, L], [-L, L]]), (coeffs.shape[0], 1, 1))
    count = np.full(coeffs.shape[0], 4)
    for i, (lo, hi) in enumerate(constraints):
        c = coeffs[:, i]
        if not lo <= 0.0 < hi:
            count[~c.any(axis=1)] = 0
        tol = 1e-12 * L * (np.abs(c[:, 0]) + np.abs(c[:, 1]))
        verts, count = _clip_polygons(verts, count, c, hi, tol)
        verts, count = _clip_polygons(verts, count, -c, -lo, tol)
    return _shoelace_areas(verts, count)


def _cell_integral(gs: Sequence[Step1D], coeffs: np.ndarray, box_halfwidth: float) -> np.ndarray:
    """∫_{[-L,L]^2} Π_i g_i(<c_i, s>) ds for each matrix c of the stack, as
    a sum over step cells: each choice of one step [b_j, b_{j+1}) with
    value v_j > 0 from every g_i adds Π v_j times the area of its cell.
    Exact; a g_i with no positive step gives 0."""
    steps = [[(v, cell) for v, cell in zip(g.values.tolist(), pairwise(g.breaks.tolist())) if v > 0] for g in gs]
    total = np.zeros(coeffs.shape[0])
    for choice in product(*steps):
        weight = math.prod(v for v, _ in choice)
        total += weight * _slab_box_areas([cell for _, cell in choice], coeffs, box_halfwidth)
    return total


def rbll_check_1d(
    gs: Sequence[Step1D],
    coeffs: np.ndarray,
    box_halfwidth: float = 10.0,
) -> dict:
    """Both sides of the 1-D rearrangement inequality for step functions in the plane.

    `coeffs` is a stack of (k, 2) coefficient matrices, one per case.
    For each, lhs = ∫ Π g_i(<c_i, s>) ds over the box and rhs the same
    with every g_i replaced by its symmetric decreasing rearrangement;
    the contract is lhs <= rhs up to fp round-off.  Each g_i is
    rearranged once for the whole stack.  Restricting to a symmetric
    box is harmless: the box indicator factors as symmetric decreasing
    functions of the coordinates.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[1] != len(gs):
        raise ValueError("need a stack of coefficient matrices with one row per function")
    if coeffs.shape[2] != 2:
        raise ValueError("exact oracle works in the plane: N must be 2")
    if len(gs) > 3:
        raise ValueError("exact oracle limited to k <= 3")
    if not (math.isfinite(box_halfwidth) and box_halfwidth > 0):
        raise ValueError("box_halfwidth must be a finite number > 0")
    return {
        "lhs": _cell_integral(gs, coeffs, box_halfwidth).tolist(),
        "rhs": _cell_integral([rearrange_step1d(g) for g in gs], coeffs, box_halfwidth).tolist(),
    }
