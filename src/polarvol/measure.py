"""Radial measures, bounded densities, rearrangement, and samplers.

The canonical discretization everywhere is the radial step function
(`RadialStepFn`, and the radial P_n law `RadialStepDensity` is one): its
rearrangement and level sets are exact, which keeps quadrature error out
of the core inequality checks.

Every random point of a law or a measure is drawn in this module,
including the Monte Carlo samples of `volume`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np
from scipy import special

from .geom import row_norms, unit_ball_volume
from .rng import RngStream

__all__ = [
    "MeasureError",
    "InfiniteMass",
    "LebesgueRestricted",
    "GaussianLike",
    "PowerKernel",
    "RadialMeasure",
    "RadialStepFn",
    "UniformBodyDensity",
    "RadialStepDensity",
    "PnDensity",
    "rho_eval",
    "check_condnu2",
    "total_mass",
    "radial_mass_in_ball",
    "level_radius",
    "rearrange_density",
    "ball_points",
    "parallelepiped_points",
    "radial_sampler",
    "sample_uniform_ball",
    "sample_density",
    "density_points",
    "sample_radial_measure",
    "psi_values",
    "nu_plus_hyperplane",
    "dn_radius",
]

# rows of a parallelepiped draw mapped at a time: the copied block stays in cache
PARALLELEPIPED_BLOCK = 8192


class MeasureError(ValueError):
    pass


class InfiniteMass(MeasureError):
    pass


def dn_radius(n: int) -> float:
    """Radius r_n of D_n, the Euclidean ball of volume one."""
    return unit_ball_volume(n) ** (-1.0 / n)


# ---------------------------------------------------------------------------
# radial measures dν = ρ(|x|) dx with decreasing ρ


@dataclass(frozen=True)
class LebesgueRestricted:
    """Lebesgue measure restricted to the ball of radius R (R = inf allowed)."""

    R: float
    dim: int

    def __post_init__(self):
        if not self.R > 0:
            raise MeasureError("LebesgueRestricted needs R > 0")


@dataclass(frozen=True)
class GaussianLike:
    """dν = exp(-t²/2σ²) dx (unnormalized Gaussian factor)."""

    sigma: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise MeasureError("GaussianLike needs a finite sigma > 0")


@dataclass(frozen=True)
class PowerKernel:
    """ρ = k(t)^{-(n+1)} for a piecewise linear k given as a table.

    `k_table` is a (m, 2) array of (t, k(t)) pairs with increasing t;
    k is extended linearly beyond the last knot.  k(t) <= 0 would make
    ρ infinite, so a knot with k <= 0, a slope that overflows and a
    falling last piece are refused.  `check_condnu2` decides the rest:
    `santalo` refuses a k that falls on [0, ∞), `dominance` also a non-convex k.
    """

    k_table: np.ndarray
    dim: int

    def __post_init__(self):
        tab = np.asarray(self.k_table, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
            raise MeasureError("k_table must be an (m, 2) array with m >= 2")
        if not np.all(np.isfinite(tab)):
            raise MeasureError("k_table entries must be finite")
        dt = np.diff(tab[:, 0])
        if np.any(dt <= 0):
            raise MeasureError("k_table abscissae must be strictly increasing")
        if np.any(tab[:, 1] <= 0):
            raise MeasureError("k must be positive (rho finite)")
        with np.errstate(over="ignore"):
            slopes = np.diff(tab[:, 1]) / dt
        if not np.all(np.isfinite(slopes)):
            raise MeasureError("k_table slopes must be finite")
        if slopes[-1] < 0:
            raise MeasureError("k must not fall past the last knot (rho would turn infinite, then negative)")
        object.__setattr__(self, "k_table", tab)

    def k_eval(self, t: np.ndarray) -> np.ndarray:
        ts, ks = self.k_table[:, 0], self.k_table[:, 1]
        # past the last knot k keeps its last slope
        slope = (ks[-1] - ks[-2]) / (ts[-1] - ts[-2])
        return np.interp(t, ts, ks) + slope * np.maximum(t - ts[-1], 0.0)


RadialMeasure = Union[LebesgueRestricted, GaussianLike, PowerKernel]


def rho_eval(m: RadialMeasure, t) -> np.ndarray:
    """Radial density ρ(t) for t >= 0 (vectorized)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise MeasureError("rho_eval requires t >= 0")
    if isinstance(m, LebesgueRestricted):
        return np.where(t <= m.R, 1.0, 0.0)
    if isinstance(m, GaussianLike):
        return np.exp(-(t ** 2) / (2.0 * m.sigma ** 2))
    if isinstance(m, PowerKernel):
        return m.k_eval(t) ** (-(m.dim + 1.0))
    raise TypeError(f"unknown measure type {type(m)!r}")


def check_condnu2(m: RadialMeasure) -> dict:
    """The two measure classes the theorems use, decided from the measure itself.

    `decreasing`: ρ nonincreasing on [0, ∞).  `condnu2`: ρ^{-1/(n+1)} convex
    there.  Lebesgue and Gaussian meet both by their form.  A PowerKernel has
    ρ^{-1/(n+1)} = k: flat before a first knot above 0 (`np.interp`), then
    linear between knots and on past the last.  ρ decreases iff every slope of
    k on [0, ∞) is >= 0, and condν2 holds iff those slopes never fall, both up
    to 1e-10 of the steepest slope (rounding of the table).
    """
    if not isinstance(m, PowerKernel):
        return {"decreasing": True, "condnu2": True}
    ts, ks = m.k_table.T
    slopes = np.diff(ks) / np.diff(ts)
    s = np.concatenate([np.zeros(int(ts[0] > 0)), slopes[ts[1:] > 0], slopes[-1:]])
    slack = 1e-10 * np.abs(s).max()
    return {"decreasing": bool(s.min() >= -slack), "condnu2": bool(np.all(np.diff(s) >= -slack))}


def total_mass(m: RadialMeasure) -> float:
    """ν(R^n); math.inf when divergent."""
    return radial_mass_in_ball(m, math.inf)


def radial_mass_in_ball(m: RadialMeasure, R):
    """ν(R·B_2^n) in closed form, for a radius or an array of radii (R = inf allowed).

    The one routine that knows a measure's radial law: Φ(R) = ∫_0^R ρ(t) t^{n-1} dt
    is this mass over n·ω_n.  A PowerKernel's k is linear between knots and past
    the last one; with u = t/k(t), a piece [t0, t1] holds Δt/(n·k0·k1)·Σ_i u1^i·u0^{n-1-i}
    of Φ, and as t1 → ∞ both Δt/k1 and u1 tend to 1/slope (a flat tail diverges).
    """
    n = m.dim
    R = np.asarray(R, dtype=float)
    if isinstance(m, LebesgueRestricted):
        mass = unit_ball_volume(n) * np.minimum(R, m.R) ** n
    elif isinstance(m, GaussianLike):
        s2 = 2.0 * m.sigma ** 2
        mass = (math.pi * s2) ** (n / 2) * special.gammainc(n / 2, R ** 2 / s2)
    elif isinstance(m, PowerKernel):
        def piece(t0, k0, w, u1):  # w = Δt/k1
            return w / (n * k0) * sum(u1 ** i * (t0 / k0) ** (n - 1 - i) for i in range(n))

        ts, ks = m.k_table.T
        knots = np.append(0.0, ts[ts > 0])
        k = m.k_eval(knots)
        cum = np.append(0.0, np.cumsum(piece(knots[:-1], k[:-1], np.diff(knots) / k[1:], knots[1:] / k[1:])))
        slope = (ks[-1] - ks[-2]) / (ts[-1] - ts[-2])
        tail = piece(knots[-1], k[-1], 1.0 / slope, 1.0 / slope) if slope > 0 else math.inf
        far = np.isinf(R)
        j = np.searchsorted(knots, R, side="right") - 1
        t1 = np.where(far, knots[j], R)
        k1 = m.k_eval(t1)
        phi = np.where(far, cum[-1] + tail, cum[j] + piece(knots[j], k[j], (t1 - knots[j]) / k1, t1 / k1))
        mass = n * unit_ball_volume(n) * phi
    else:
        raise TypeError(f"unknown measure type {type(m)!r}")
    return float(mass) if np.ndim(mass) == 0 else mass


def level_radius(m: RadialMeasure, t: float) -> float:
    """R(t) = sup{s : ρ(s) >= t}, the radius of the superlevel ball."""
    if t <= 0:
        raise MeasureError("level_radius needs t > 0")
    if isinstance(m, LebesgueRestricted):
        return m.R if t <= 1.0 else 0.0
    if isinstance(m, GaussianLike):
        if t > 1.0:
            return 0.0
        return m.sigma * math.sqrt(max(0.0, 2.0 * math.log(1.0 / t)))
    # monotone ρ: bisection after doubling out to find the crossing
    if float(rho_eval(m, 0.0)) < t:
        return 0.0
    hi = 1.0
    while float(rho_eval(m, hi)) >= t:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(rho_eval(m, mid)) >= t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# radial step functions and the class P_n of bounded densities


@dataclass(frozen=True)
class RadialStepFn:
    """Right-continuous radial step: value[j] on [break[j-1], break[j]).

    break[-1] is implicitly 0; the function vanishes beyond the last
    breakpoint.  Used for densities, ρ-profiles and ψ-profiles alike,
    so values are any nonnegative reals.
    """

    breaks: np.ndarray  # increasing, positive
    values: np.ndarray  # same length, >= 0
    dim: int

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.ndim != 1 or b.shape != v.shape or b.size == 0:
            raise MeasureError("breaks and values must be equal-length 1-D arrays")
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise MeasureError("breaks and values must be finite")
        if b[0] <= 0 or np.any(np.diff(b) <= 0):
            raise MeasureError("breaks must be positive and strictly increasing")
        if np.any(v < 0):
            raise MeasureError("step values must be >= 0")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)

    def eval_radius(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right")
        padded = np.append(self.values, 0.0)
        return padded[idx]

    def annulus_volumes(self) -> np.ndarray:
        """Lebesgue volume of each annulus cell in R^dim."""
        w = unit_ball_volume(self.dim)
        outer = w * self.breaks ** self.dim
        inner = np.concatenate([[0.0], outer[:-1]])
        return outer - inner

    def integral(self) -> float:
        return float(np.dot(self.values, self.annulus_volumes()))

    def level_set_volume(self, alpha: float) -> float:
        """|{f > alpha}| from closed-form annulus volumes."""
        return float(self.annulus_volumes()[self.values > alpha].sum())

    def lp_norm(self, p: float) -> float:
        if p == math.inf:
            return float(self.values.max(initial=0.0))
        return float(np.dot(self.values ** p, self.annulus_volumes())) ** (1.0 / p)


@dataclass(frozen=True)
class UniformBodyDensity:
    """Uniform law on a volume-one body: D_n, the unit cube, or a simplex."""

    shape: str  # "Dn" | "cube" | "simplex"
    dim: int

    def __post_init__(self):
        if self.shape not in ("Dn", "cube", "simplex"):
            raise MeasureError(f"unknown uniform body {self.shape!r}")


@dataclass(frozen=True)
class RadialStepDensity(RadialStepFn):
    """Radial step density in P_n: 0 <= f <= 1 and ∫ f = 1."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values > 1.0 + 1e-12):
            raise MeasureError("P_n density must be bounded by 1")
        if abs(self.integral() - 1.0) > 1e-9:
            raise MeasureError(f"density integrates to {self.integral():.12g}, not 1")


PnDensity = Union[UniformBodyDensity, RadialStepDensity]


# ---------------------------------------------------------------------------
# symmetric decreasing rearrangement (exact on steps)


def rearrange_density(f: Union[PnDensity, RadialStepFn]) -> RadialStepFn:
    """Symmetric decreasing rearrangement f* as a radial step function.

    Exact: each level set maps to the centered ball of equal volume, so
    |{f > α}| = |{f* > α}| for every α, by construction.
    """
    if isinstance(f, UniformBodyDensity):
        # |body| = 1, so the rearrangement is the indicator of D_n
        return RadialStepFn(np.array([dn_radius(f.dim)]), np.array([1.0]), f.dim)
    if not isinstance(f, RadialStepFn):
        raise TypeError(f"cannot rearrange {type(f)!r}")
    if not math.isfinite(f.integral()):
        raise MeasureError("rearrangement requires a finite integral")
    n = f.dim
    pos = f.values > 0
    if not pos.any():
        return RadialStepFn(np.array([1.0]), np.array([0.0]), n)
    # one cell per distinct value, largest first; its annuli add up in radial order
    neg, cell = np.unique(-f.values[pos], return_inverse=True)
    merged = np.bincount(cell, weights=f.annulus_volumes()[pos])
    return RadialStepFn((np.cumsum(merged) / unit_ball_volume(n)) ** (1.0 / n), -neg, n)


# ---------------------------------------------------------------------------
# samplers


def _stacked(gens: Iterable[np.random.Generator], draw) -> list:
    """`draw(gen)`'s arrays for each generator in turn, each stacked over the generators.

    One generator's arrays gain a leading axis of 1 without a copy: the
    chunk kernels draw 2^16 points a call.
    """
    draws = [draw(gen) for gen in gens]
    if len(draws) == 1:
        return [a[None] for a in draws[0]]
    return [np.stack(a) for a in zip(*draws)]


def _radial_points(gens: Iterable[np.random.Generator], size: int, n: int, radius) -> np.ndarray:
    """`size` points from each generator, shape (T, size, n): unit directions times `radius(U)`.

    Each generator draws `size` Gaussian directions, then `size` uniforms
    U; `radius` maps the (T, size) stack of U to radii, in place if it
    likes, and the transform runs once on the stack.
    """
    dirs, u = _stacked(gens, lambda gen: (gen.standard_normal((size, n)), gen.random(size)))
    dirs /= row_norms(dirs)[..., None]
    dirs *= radius(u)[..., None]
    return dirs


def ball_points(gens: Iterable[np.random.Generator], size: int, n: int, R: float) -> np.ndarray:
    """`size` points uniform in R·B_2^n from each generator, shape (T, size, n): radii R·U^{1/n}."""
    return _radial_points(gens, size, n, lambda u: np.multiply(np.power(u, 1.0 / n, out=u), R, out=u))


def parallelepiped_points(gen: np.random.Generator, size: int, origin: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`size` points uniform in origin + edges·[0, 1)^n, shape (size, n).

    Row k of the result holds point k's n uniforms U, drawn in place, and
    becomes origin + edges·U.  The map runs in blocks of PARALLELEPIPED_BLOCK
    rows: a block's uniforms are copied out, and column i is
    Σ_j edges[i, j]·U_j + origin_i, summed in j order through one scratch
    column.  So a chunk needs no second (size, n) buffer, and no BLAS call
    touches the draws, which do not depend on the BLAS build or its threads.
    """
    n = len(origin)
    Y = gen.random((size, n))
    U = np.empty((min(size, PARALLELEPIPED_BLOCK), n))
    term = np.empty(len(U))
    for start in range(0, size, PARALLELEPIPED_BLOCK):
        rows = Y[start : start + PARALLELEPIPED_BLOCK]
        u, t = U[: len(rows)], term[: len(rows)]
        np.copyto(u, rows)
        for i in range(n):
            col = rows[:, i]
            np.multiply(u[:, 0], edges[i, 0], out=col)
            for j in range(1, n):
                col += np.multiply(u[:, j], edges[i, j], out=t)
            col += origin[i]
    return Y


def radial_sampler(m: RadialMeasure) -> Callable[[np.random.Generator, int], np.ndarray]:
    """`draw(gen, size)`: points of law ν/ν(R^n), for ν of finite mass.

    Lebesgue draws uniformly in its ball and the Gaussian draws σ·N(0, I),
    both exact.  A PowerKernel draws its radius by inverse CDF on one
    4097-node table of `radial_mass_in_ball`, built here, once.  Its
    nodes are uniform in v = t/(c + t) up to t = inf at v = 1, where c is
    the radius of the ball that holds the total mass at density ρ(0).
    """
    n = m.dim
    total = total_mass(m)
    if math.isinf(total):
        raise InfiniteMass("cannot sample a measure of infinite total mass")
    if isinstance(m, LebesgueRestricted):
        return lambda gen, size: ball_points([gen], size, n, m.R)[0]
    if isinstance(m, GaussianLike):
        return lambda gen, size: gen.normal(scale=m.sigma, size=(size, n))
    c = (total / (unit_ball_volume(n) * float(rho_eval(m, 0.0)))) ** (1.0 / n)
    vs = np.linspace(0.0, 1.0, 4097)
    cdf = np.append(radial_mass_in_ball(m, c * vs[:-1] / (1.0 - vs[:-1])) / total, 1.0)

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        v = np.interp(gen.random(size), cdf, vs)
        dirs = gen.standard_normal((size, n))
        dirs /= row_norms(dirs)[:, None]
        dirs *= (c * v / (1.0 - v))[:, None]
        return dirs

    return draw


def sample_uniform_ball(n: int, R: float, rng: RngStream, size: int) -> np.ndarray:
    """Uniform law on R·B_2^n, shape (size, n)."""
    if n < 1 or R <= 0:
        raise MeasureError("need n >= 1 and R > 0")
    return ball_points([rng.generator()], size, n, R)[0]


def sample_density(f: PnDensity, rng: RngStream, size: int) -> np.ndarray:
    """Exact sampling from a P_n density, shape (size, n): `density_points` on one stream."""
    return density_points(f, [rng.generator()], size)[0]


def density_points(f: PnDensity, gens: Iterable[np.random.Generator], size: int) -> np.ndarray:
    """`size` points of the P_n law f from each generator, shape (T, size, n).

    Each generator makes its raw draws, a fixed number per point, before
    the transform runs once on the stack.  A radial step law draws what
    D_n draws, a direction and a uniform U, and takes its radius by exact
    inverse CDF: inside cell j, r^n is linear in the mass, so with F the
    normalised cumulative cell masses and b the breaks,
    r^n = b_{j-1}^n + (U - F_{j-1})/(F_j - F_{j-1})·(b_j^n - b_{j-1}^n).
    A cell of value 0 has F_j = F_{j-1} and is never picked.
    """
    n = f.dim
    if isinstance(f, UniformBodyDensity):
        if f.shape == "Dn":
            return ball_points(gens, size, n, dn_radius(n))
        if f.shape == "cube":
            (u,) = _stacked(gens, lambda gen: (gen.random((size, n)),))
            u -= 0.5
            return u
        # simplex: ordered uniform spacings scaled to volume one
        (e,) = _stacked(gens, lambda gen: (gen.random((size, n + 1)),))
        e = -np.log(e)
        return math.factorial(n) ** (1.0 / n) * (e[..., :n] / e.sum(axis=-1)[..., None])
    bn = np.append(0.0, f.breaks ** n)
    F = np.append(0.0, np.cumsum(f.values * np.diff(bn)))
    F /= F[-1]

    def radius(u):
        j = np.searchsorted(F, u, side="right")
        return (bn[j - 1] + (u - F[j - 1]) / (F[j] - F[j - 1]) * (bn[j] - bn[j - 1])) ** (1.0 / n)

    return _radial_points(gens, size, n, radius)


def sample_radial_measure(m: RadialMeasure, rng: RngStream, size: int):
    """Sample from ν/ν(R^n); returns (points of shape (size, n), total mass)."""
    return radial_sampler(m)(rng.generator(), size), total_mass(m)


# ---------------------------------------------------------------------------
# hyperplane mass


def psi_values(psi: Callable[[np.ndarray], np.ndarray], P: np.ndarray) -> np.ndarray:
    """ψ at the rows of an (m, n) batch P; MeasureError unless ψ returns shape (m,)."""
    vals = np.asarray(psi(P), dtype=float)
    if vals.shape != (P.shape[0],):
        raise MeasureError(f"psi must map an (m, n) batch to shape (m,); got {vals.shape} for {P.shape}")
    return vals


# G10K21, QUADPACK's qk21: the Kronrod abscissae from the largest down to the
# centre, with their weights; abscissae 1, 3, ..., 9 are the 10-point Gauss ones
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980972294, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes of a panel as multiples of its half-length: the centre, then c - h·x_j, then c + h·x_j
_NODES = np.concatenate([[0.0], -_XGK[:10], _XGK[:10]])


def _kronrod_panels(fv: np.ndarray, half: np.ndarray):
    """qk21's integral and error estimate of each panel from its (m, 21) node values and half-length.

    The sums run node by node over whole columns, in qk21's order, so each
    panel's bits depend on its own values only (a gemv would regroup them).
    Also returns which estimates sit at qk21's round-off floor, 50·eps·∫|f|,
    where halving the panel cannot lower them.
    """
    fc, minus, plus = fv[:, 0], fv[:, 1:11], fv[:, 11:]
    resg = np.zeros(len(fv))
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        fsum = minus[:, j] + plus[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(minus[:, j]) + np.abs(plus[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(minus[:, j] - reskh) + np.abs(plus[:, j] - reskh))
    resabs, resasc = resabs * half, resasc * half
    err = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    floor = 50.0 * np.finfo(float).eps * resabs
    return resk * half, np.maximum(err, floor), err <= floor


def _gauss_kronrod(g, breaks, epsabs: float, epsrel: float) -> np.ndarray:
    """K integrals at once by adaptive G10K21 (QUADPACK's default panel rule).

    `breaks[k]` is integral k's interval in ascending order, with any
    breakpoints inside it; a repeated breakpoint makes an empty panel,
    which is dropped.  g(index, x) gets the integral index of each of
    m panels and their (m, 21) abscissae, and returns the (m, 21) integrand
    values: one call a round, for every panel made in that round.  A panel
    is bisected while its integral's error estimate is over
    tol = max(epsabs, epsrel·|value|) and its own estimate is over its
    length's share of tol and above the round-off floor.  Each integral's
    panels stay in ascending order and are summed in that order, so its
    bits do not depend on which other integrals share the batch.
    MeasureError if an integral would need more than 400 panels.
    """
    K = len(breaks)
    edges = [np.asarray(b, dtype=float) for b in breaks]
    owner = np.repeat(np.arange(K), [len(b) - 1 for b in edges])
    lo = np.concatenate([np.zeros(0), *(b[:-1] for b in edges)])
    hi = np.concatenate([np.zeros(0), *(b[1:] for b in edges)])
    length = np.array([b[-1] - b[0] for b in edges])
    keep = hi > lo
    owner, lo, hi = owner[keep], lo[keep], hi[keep]
    res, err, settled = np.zeros(len(lo)), np.zeros(len(lo)), np.zeros(len(lo), dtype=bool)
    fresh = np.ones(len(lo), dtype=bool)
    while True:
        if fresh.any():
            centre, half = 0.5 * (lo[fresh] + hi[fresh]), 0.5 * (hi[fresh] - lo[fresh])
            fv = np.asarray(g(owner[fresh], centre[:, None] + half[:, None] * _NODES), dtype=float)
            res[fresh], err[fresh], settled[fresh] = _kronrod_panels(fv, half)
        value = np.bincount(owner, weights=res, minlength=K)
        tol = np.maximum(epsabs, epsrel * np.abs(value))
        over = np.bincount(owner, weights=err, minlength=K) > tol
        split = over[owner] & ~settled & (err > tol[owner] * (hi - lo) / length[owner])
        if not split.any():
            return value
        # each split panel becomes its two halves, in its place
        at = np.repeat(np.arange(len(lo)), 1 + split)
        first = (np.cumsum(1 + split) - 1 - split)[split]
        mid = 0.5 * (lo[split] + hi[split])
        owner, lo, hi, res, err, settled = owner[at], lo[at], hi[at], res[at], err[at], settled[at]
        hi[first], lo[first + 1] = mid, mid
        if np.bincount(owner).max() > 400:
            raise MeasureError("quadrature did not converge within 400 panels")
        fresh = np.zeros(len(lo), dtype=bool)
        fresh[first], fresh[first + 1] = True, True


def nu_plus_hyperplane(
    psi: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    support_radius: float = 50.0,
) -> np.ndarray:
    """ν⁺(z⊥) = ∫_{z⊥} ψ for each row of a (K, 2) stack z: the planar lines z⊥.

    `psi` maps an (m, 2) batch of points to their m densities; anything
    but shape (m,) raises MeasureError.  `support_radius` bounds the
    integration domain; ψ must be negligible beyond it.  ψ must be
    -1/2-concave with ψ(0) > 0 (MeasureError otherwise): then on each line
    through 0 it is positive and continuous on an interval holding 0 and
    zero outside it, so the two ends of that interval are the only
    breakpoints.  One `_gauss_kronrod` runs for the whole stack.  A stack
    in n != 2 raises MeasureError: there z⊥ is a hyperplane, and a rule
    without the kinks of ψ's sections as breakpoints cannot integrate an
    indicator ψ.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    K, n = z.shape
    if n != 2:
        raise MeasureError("hyperplane quadrature implemented for n = 2 only")
    norms = np.sqrt(np.vecdot(z, z))  # the dot kernel of np.linalg.norm on one row
    if np.any(norms == 0):
        raise MeasureError("z must be nonzero")
    if not psi_values(psi, np.zeros((1, n)))[0] > 0:
        raise MeasureError("psi(0) must be > 0")
    zhat = z / norms[:, None]
    S = support_radius
    u = np.stack([-zhat[:, 1], zhat[:, 0]], axis=1)
    # the end of ψ's support on each ray ±u_k, by one bisection for all
    # rays until each bracket is two adjacent floats; ψ > 0 at lo, and
    # a ray still inside the support at S ends there
    rays = np.concatenate([u, -u])
    lo = np.where(psi_values(psi, S * rays) > 0, S, 0.0)
    hi = np.full(2 * K, S)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        inside = psi_values(psi, mid[:, None] * rays) > 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    # each ray's end is its last mid, one of its two adjacent floats; an
    # end at S makes an empty panel, which `_gauss_kronrod` drops
    breaks = np.stack([np.full(K, -S), -mid[K:], mid[:K], np.full(K, S)], axis=1)
    g = lambda k, s: psi_values(psi, (s[:, :, None] * u[k][:, None, :]).reshape(-1, 2)).reshape(s.shape)
    val = _gauss_kronrod(g, breaks, epsabs=1e-9, epsrel=1e-10)
    if not np.all(np.isfinite(val)):
        raise MeasureError("hyperplane quadrature diverged")
    return val
