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
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .geom import (
    GeometryError,
    LqBall,
    MatrixImageBody,
    UnboundedBody,
)
from .measure import LebesgueRestricted, MeasureError, RadialMeasure, nu_plus_hyperplane, psi_values
from .rng import RngStream
from .volume import EstimationError, exact_polar_volume_crosspoly, mc_polar_measure

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
    <= tol wherever -t is on the grid.  Reports the worst violation.
    """
    t = np.asarray(p.grid, dtype=float)
    g = np.asarray(p.values, dtype=float)
    if np.any(np.diff(t) <= 0):
        raise ValueError("profile grid must be sorted increasing")
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


def _exact_oracle_eligible(cfg: ShadowConfig) -> bool:
    return (
        cfg.n >= 2
        and cfg.rball == 0.0
        and cfg.gauge.q == 1.0
        and isinstance(cfg.m, LebesgueRestricted)
        and math.isinf(cfg.m.R)
    )


def shadow_profile(
    cfg: ShadowConfig,
    direction: np.ndarray,
    t_grid: Sequence[float],
    budget: int,
    rng: RngStream,
    threads: int = 1,
) -> ProfileReport:
    """Profile g(t) = 1 / nu(body(t·direction)°) along a line in R^N.

    Uses the exact qhull oracle when the configuration is a
    cross-polytope under Lebesgue measure; Monte Carlo otherwise, with
    the tolerance for the verdicts set to 3x the propagated stderr.
    An unbounded polar under Lebesgue measure contributes g = 0.
    """
    d = np.asarray(direction, dtype=float)
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if t_grid.size < 5:
        raise ValueError("t grid needs >= 5 points")
    exact = _exact_oracle_eligible(cfg)
    values = np.zeros_like(t_grid)
    stderrs = np.zeros_like(t_grid)
    for i, t in enumerate(t_grid):
        body = cfg.body_at(t * d)
        if exact:
            try:
                vol = exact_polar_volume_crosspoly(body.matrix.T)
            except UnboundedBody:
                vol = math.inf
            values[i] = 0.0 if math.isinf(vol) else 1.0 / vol
            stderrs[i] = 0.0
        else:
            est = mc_polar_measure(body, cfg.m, budget, RngStream(rng.seed, rng.stream + i), threads)
            if est.value == 0:
                raise EstimationError(f"no sample fell in the polar at t = {t:g}: raise the budget")
            values[i] = 1.0 / est.value
            stderrs[i] = est.stderr / est.value ** 2
    tol = 1e-9 if exact else 3.0 * float(stderrs.max(initial=0.0))
    report = ProfileReport(t_grid, values, stderrs, tol=tol)
    convexity_even_check(report, tol, check_even=True)
    return report


# ---------------------------------------------------------------------------
# gauge constructions


def busemann_gauge(
    psi: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    support_radius: float = 50.0,
) -> float:
    """Gauge z -> |z| / ∫_{z⊥} ψ for an even, -1/n-concave density ψ.

    ψ maps an (m, n) batch to shape (m,), as in `nu_plus_hyperplane`.
    Returns 0 at z = 0 by convention.
    """
    z = np.asarray(z, dtype=float)
    if np.linalg.norm(z) == 0:
        return 0.0
    mass = nu_plus_hyperplane(psi, z, support_radius=support_radius)
    if mass <= 0 or not math.isfinite(mass):
        raise MeasureError("hyperplane mass is zero or non-finite")
    return float(np.linalg.norm(z)) / mass


def spot_check_neg_recip_concavity(
    psi: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: RngStream,
    segments: int = 50,
    radius: float = 1.0,
) -> bool:
    """Midpoint check of ψ^{-1/n} convexity on random segments.

    ψ maps an (m, n) batch to shape (m,); the endpoints and midpoints of
    all segments go to it in one batch.  A violation does not raise:
    callers demote the run to hypothesis-unverified status instead.
    """
    # the draws of segment k are a_k then b_k, as in one draw per endpoint
    ends = rng.generator().uniform(-radius, radius, size=(segments, 2, n))
    a, b = ends[:, 0], ends[:, 1]
    vals = psi_values(psi, np.concatenate([a, b, 0.5 * (a + b)]))
    def inv(v):
        return math.inf if v <= 0 else v ** (-1.0 / n)
    for va, vb, vm in zip(*vals.reshape(3, segments).tolist()):
        ka, kb, km = inv(va), inv(vb), inv(vm)
        if math.isinf(ka) or math.isinf(kb):
            continue
        if km > 0.5 * (ka + kb) + 1e-9 * (1 + abs(ka) + abs(kb)):
            return False
    return True


def ball_bobkov_gauge(
    f: Callable[[np.ndarray], float],
    p: float,
    x: np.ndarray,
    upper: float = math.inf,
) -> float:
    """F(x) = (∫_0^∞ f(rx) r^{p-1} dr)^{-1/p} by adaptive quadrature."""
    x = np.asarray(x, dtype=float)
    if not 0 < p < math.inf:
        raise ValueError("p must be finite and > 0")
    if np.linalg.norm(x) == 0:
        raise ValueError("x must be nonzero")
    val, _ = integrate.quad(lambda r: f(r * x) * r ** (p - 1.0), 0.0, upper, limit=400)
    if val <= 0 or not math.isfinite(val):
        raise MeasureError("radial integral is zero or divergent")
    return val ** (-1.0 / p)


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

    def layers(self):
        """Layer-cake decomposition: list of (weight, list of (lo, hi)).

        g = Σ_k w_k 1_{U_k} with U_k = {g >= v_k} for the distinct
        positive values v_1 > v_2 > ... ; exact.
        """
        vals = self.values
        distinct = sorted({float(v) for v in vals if v > 0}, reverse=True)
        out = []
        for idx, v in enumerate(distinct):
            w = v - (distinct[idx + 1] if idx + 1 < len(distinct) else 0.0)
            intervals = []
            j = 0
            m = vals.size
            while j < m:
                if vals[j] >= v:
                    lo = self.breaks[j]
                    while j < m and vals[j] >= v:
                        j += 1
                    intervals.append((float(lo), float(self.breaks[j])))
                else:
                    j += 1
            out.append((w, intervals))
        return out


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


def _slab_box_volume(constraints, coeffs: np.ndarray, box_halfwidth: float) -> float:
    """Exact area of {s in [-L, L]^2 : <c_i, s> in [lo_i, hi_i)}.

    Clips the square by each slab's two half-planes.  Zero coefficient
    rows reduce to the point condition 0 in [lo, hi), checked exactly:
    the clip's 1e-12 tolerance would keep a slab that ends at 0.
    """
    L = box_halfwidth
    poly = np.array([[-L, -L], [L, -L], [L, L], [-L, L]])
    for (lo, hi), c in zip(constraints, coeffs):
        if not c.any():
            if not (lo <= 0.0 < hi):
                return 0.0
            continue
        poly = _clip_polygon(_clip_polygon(poly, c, hi), -c, -lo)
    return _shoelace(poly)


def _layered_integral(per_fn_layers, coeffs: np.ndarray, box_halfwidth: float) -> float:
    """∫_{[-L,L]^2} Π_i g_i(<c_i, s>) ds by exact cell decomposition, from
    the layer-cake decompositions of the g_i; a g_i with no layers gives 0."""
    total = 0.0
    for combo in product(*per_fn_layers):
        weight = math.prod(w for w, _ in combo)
        for choice in product(*[intervals for _, intervals in combo]):
            total += weight * _slab_box_volume(list(choice), coeffs, box_halfwidth)
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
    layers = [g.layers() for g in gs]
    star_layers = [rearrange_step1d(g).layers() for g in gs]
    return {
        "lhs": [_layered_integral(layers, c, box_halfwidth) for c in coeffs],
        "rhs": [_layered_integral(star_layers, c, box_halfwidth) for c in coeffs],
    }
