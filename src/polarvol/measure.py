"""Radial measures, bounded densities, rearrangement, and samplers.

The canonical discretization everywhere is the radial step function:
rearrangement and layer-cake manipulations are exact on steps, which
keeps quadrature error out of the core inequality checks.

Every random point of a law or a measure is drawn in this module,
including the Monte Carlo samples of `volume`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import integrate

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
    "radial_sampler",
    "sample_uniform_ball",
    "sample_density",
    "sample_radial_measure",
    "psi_values",
    "nu_plus_hyperplane",
    "dn_radius",
]

REJECTION_CAP = 10 ** 6


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
    """ρ = k(t)^{-(n+1)} for a convex increasing k given as a linear table.

    `k_table` is a (m, 2) array of (t, k(t)) pairs with increasing t;
    k is extended linearly beyond the last knot.  k(t) = 0 maps to
    ρ = +inf which is rejected at construction.
    """

    k_table: np.ndarray
    dim: int

    def __post_init__(self):
        tab = np.asarray(self.k_table, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
            raise MeasureError("k_table must be an (m, 2) array with m >= 2")
        if not np.all(np.isfinite(tab)):
            raise MeasureError("k_table entries must be finite")
        if np.any(np.diff(tab[:, 0]) <= 0):
            raise MeasureError("k_table abscissae must be strictly increasing")
        if np.any(tab[:, 1] <= 0):
            raise MeasureError("k must be positive (rho finite)")
        object.__setattr__(self, "k_table", tab)

    def k_eval(self, t: np.ndarray) -> np.ndarray:
        ts, ks = self.k_table[:, 0], self.k_table[:, 1]
        # linear extrapolation on the right keeps k convex increasing
        out = np.interp(t, ts, ks)
        right = t > ts[-1]
        if np.any(right):
            slope = (ks[-1] - ks[-2]) / (ts[-1] - ts[-2])
            out = np.where(right, ks[-1] + slope * (t - ts[-1]), out)
        return out


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


def check_condnu2(m: RadialMeasure, grid: np.ndarray) -> dict:
    """Grid checks of the two measure classes the theorems use.

    `decreasing`: ρ nonincreasing on the grid.  `condnu2`: midpoint
    convexity of ρ^{-1/(n+1)} with ρ = 0 treated as +inf (absorbing:
    any finite midpoint below +inf endpoints passes).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise MeasureError("grid must be increasing with >= 3 points")
    rho = rho_eval(m, grid)
    decreasing = bool(np.all(np.diff(rho) <= 1e-10 * (1.0 + np.abs(rho[:-1]))))
    with np.errstate(divide="ignore"):
        k = np.where(rho > 0, rho ** (-1.0 / (m.dim + 1.0)), np.inf)
    condnu2 = True
    for i in range(len(grid) - 2):
        a, b, c = k[i], k[i + 1], k[i + 2]
        if math.isinf(a) or math.isinf(c):
            continue  # +inf endpoints absorb any midpoint
        if math.isinf(b):
            condnu2 = False
            break
        mid_bound = 0.5 * (a + c)
        if b > mid_bound + 1e-10 * (1.0 + abs(mid_bound)):
            condnu2 = False
            break
    return {"decreasing": decreasing, "condnu2": condnu2}


def total_mass(m: RadialMeasure) -> float:
    """ν(R^n) = n·ω_n ∫ ρ(t) t^{n-1} dt; math.inf when divergent."""
    n = m.dim
    surface = n * unit_ball_volume(n)
    if isinstance(m, LebesgueRestricted):
        if math.isinf(m.R):
            return math.inf
        return unit_ball_volume(n) * m.R ** n
    if isinstance(m, GaussianLike):
        val, _ = integrate.quad(lambda t: math.exp(-t * t / (2 * m.sigma ** 2)) * t ** (n - 1), 0, math.inf)
        return surface * val
    if isinstance(m, PowerKernel):
        # rho ~ t^{-(n+1)} for linearly growing k, so the tail integrand
        # decays like t^{-2}: finite.  Flat k beyond the last knot would
        # diverge; PowerKernel extrapolates linearly with the last slope.
        ts = m.k_table[:, 0]
        slope = (m.k_table[-1, 1] - m.k_table[-2, 1]) / (ts[-1] - ts[-2])
        if slope <= 0:
            return math.inf
        val, _ = integrate.quad(
            lambda t: float(rho_eval(m, t)) * t ** (n - 1), 0, math.inf, limit=200
        )
        return surface * val
    raise TypeError(f"unknown measure type {type(m)!r}")


def radial_mass_in_ball(m: RadialMeasure, R: float) -> float:
    """ν(R·B_2^n), by closed form or radial quadrature."""
    n = m.dim
    if isinstance(m, LebesgueRestricted):
        r = min(R, m.R)
        return unit_ball_volume(n) * r ** n
    val, _ = integrate.quad(lambda t: float(rho_eval(m, t)) * t ** (n - 1), 0, R, limit=200)
    return n * unit_ball_volume(n) * val


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
class RadialStepDensity:
    """Radial step density in P_n: 0 <= f <= 1 and ∫ f = 1."""

    breaks: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        step = RadialStepFn(self.breaks, self.values, self.dim)
        object.__setattr__(self, "breaks", step.breaks)
        object.__setattr__(self, "values", step.values)
        if np.any(step.values > 1.0 + 1e-12):
            raise MeasureError("P_n density must be bounded by 1")
        if abs(step.integral() - 1.0) > 1e-9:
            raise MeasureError(f"density integrates to {step.integral():.12g}, not 1")

    def as_step(self) -> RadialStepFn:
        return RadialStepFn(self.breaks, self.values, self.dim)


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
    if isinstance(f, RadialStepDensity):
        f = f.as_step()
    if not isinstance(f, RadialStepFn):
        raise TypeError(f"cannot rearrange {type(f)!r}")
    if not math.isfinite(f.integral()):
        raise MeasureError("rearrangement requires a finite integral")
    n = f.dim
    w = unit_ball_volume(n)
    cells = f.annulus_volumes()
    pos = f.values > 0
    vals = f.values[pos]
    vols = cells[pos]
    if vals.size == 0:
        return RadialStepFn(np.array([1.0]), np.array([0.0]), n)
    order = np.argsort(-vals, kind="stable")
    vals, vols = vals[order], vols[order]
    # merge equal values
    distinct, merged = [], []
    for v, a in zip(vals, vols):
        if distinct and math.isclose(v, distinct[-1], rel_tol=0, abs_tol=0):
            merged[-1] += a
        else:
            distinct.append(v)
            merged.append(a)
    cum = np.cumsum(merged)
    radii = (cum / w) ** (1.0 / n)
    return RadialStepFn(radii, np.array(distinct), n)


# ---------------------------------------------------------------------------
# samplers


def ball_points(gen: np.random.Generator, size: int, n: int, R: float) -> np.ndarray:
    """`size` points uniform in R·B_2^n: a Gaussian direction, then radius R·U^{1/n}."""
    dirs = gen.standard_normal((size, n))
    dirs /= row_norms(dirs)[:, None]
    dirs *= (R * gen.random(size) ** (1.0 / n))[:, None]
    return dirs


def radial_sampler(m: RadialMeasure) -> Callable[[np.random.Generator, int], np.ndarray]:
    """`draw(gen, size)`: points of law ν/ν(R^n), for ν of finite mass.

    Lebesgue draws uniformly in its ball.  Otherwise the radius law
    ∝ ρ(t)·t^{n-1} is drawn by inverse CDF on a 4096-point log-spaced
    table with linear interpolation; the table is built here, once.
    """
    n = m.dim
    if isinstance(m, LebesgueRestricted):
        return lambda gen, size: ball_points(gen, size, n, m.R)
    # support radius: where the radial mass has essentially saturated
    hi = level_radius(m, float(rho_eval(m, 0.0)) * 1e-12)
    if math.isinf(hi):
        hi = 1e6
    ts = np.concatenate([[0.0], np.geomspace(hi * 1e-6, hi, 4095)])
    dens = rho_eval(m, ts) * ts ** (n - 1)
    cdf = integrate.cumulative_trapezoid(dens, ts, initial=0.0)
    cdf /= cdf[-1]

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        radii = np.interp(gen.random(size), cdf, ts)
        dirs = gen.standard_normal((size, n))
        dirs /= row_norms(dirs)[:, None]
        dirs *= radii[:, None]
        return dirs

    return draw


def sample_uniform_ball(n: int, R: float, rng: RngStream, size: int) -> np.ndarray:
    """Uniform law on R·B_2^n, shape (size, n)."""
    if n < 1 or R <= 0:
        raise MeasureError("need n >= 1 and R > 0")
    return ball_points(rng.generator(), size, n, R)


def sample_density(f: PnDensity, rng: RngStream, size: int) -> np.ndarray:
    """Exact sampling from a P_n density, shape (size, n).

    Direct for the uniform-body kinds; rejection from the support's
    bounding ball with envelope ||f||_inf <= 1 for radial steps.
    """
    gen = rng.generator()
    n = f.dim
    if isinstance(f, UniformBodyDensity):
        if f.shape == "cube":
            return gen.random((size, n)) - 0.5
        if f.shape == "Dn":
            return ball_points(gen, size, n, dn_radius(n))
        # simplex: ordered uniform spacings scaled to volume one
        c = math.factorial(n) ** (1.0 / n)
        e = -np.log(gen.random((size, n + 1)))
        return c * (e[:, :n] / e.sum(axis=1)[:, None])
    # radial step: rejection with envelope 1 on the support's ball
    Rs = float(f.breaks[-1])
    step = f.as_step()
    out = np.empty((size, n))
    filled = 0
    iters = 0
    while filled < size:
        batch = max(4 * (size - filled), 1024)
        cand = ball_points(gen, batch, n, Rs)
        u = gen.random(batch)
        accept = u < step.eval_radius(row_norms(cand))
        take = cand[accept][: size - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
        iters += batch
        if iters > REJECTION_CAP * size:
            raise MeasureError("rejection sampler exceeded iteration cap; density mis-specified?")
    return out


def sample_radial_measure(m: RadialMeasure, rng: RngStream, size: int):
    """Sample from ν/ν(R^n); returns (points of shape (size, n), total mass)."""
    mass = total_mass(m)
    if math.isinf(mass):
        raise InfiniteMass("cannot sample a measure of infinite total mass")
    return radial_sampler(m)(rng.generator(), size), mass


# ---------------------------------------------------------------------------
# hyperplane mass


def psi_values(psi: Callable[[np.ndarray], np.ndarray], P: np.ndarray) -> np.ndarray:
    """ψ at the rows of an (m, n) batch P; MeasureError unless ψ returns shape (m,)."""
    vals = np.asarray(psi(P), dtype=float)
    if vals.shape != (P.shape[0],):
        raise MeasureError(f"psi must map an (m, n) batch to shape (m,); got {vals.shape} for {P.shape}")
    return vals


def nu_plus_hyperplane(
    psi: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    support_radius: float = 50.0,
    tol: float = 1e-9,
) -> float:
    """ν⁺(z⊥) = ∫_{z⊥} ψ, by quadrature over the hyperplane (n in {2, 3}).

    `psi` maps an (m, n) batch of points to their m densities; anything
    but shape (m,) raises MeasureError.  The jump scan is one batch; the
    bisection and the quadrature integrand evaluate one-row batches.
    `support_radius` bounds the integration domain; ψ must be
    negligible beyond it.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if np.linalg.norm(z) == 0:
        raise MeasureError("z must be nonzero")
    if n not in (2, 3):
        raise MeasureError("hyperplane quadrature implemented for n in {2, 3}")
    zhat = z / np.linalg.norm(z)
    if n == 2:
        u = np.array([-zhat[1], zhat[0]])
        g = lambda s: float(psi_values(psi, (s * u)[None, :])[0])
        # adaptive quad silently mis-integrates jump densities (indicators);
        # locate the jumps by bisection and hand them to quad as breakpoints
        S = support_radius
        grid = np.linspace(-S, S, 4097)
        gv = psi_values(psi, grid[:, None] * u[None, :])
        spread = float(gv.max() - gv.min())
        jumps = []
        if spread > 0:
            for j in np.flatnonzero(np.abs(np.diff(gv)) > 0.05 * spread):
                lo, hi = grid[j], grid[j + 1]
                glo = gv[j]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if abs(g(mid) - glo) <= 0.05 * spread:
                        lo = mid
                    else:
                        hi = mid
                jumps.append(0.5 * (lo + hi))
        val, err = integrate.quad(
            g, -S, S, limit=400, epsabs=tol, epsrel=1e-10, points=jumps or None
        )
    else:
        # orthonormal basis of z⊥
        a = np.array([1.0, 0.0, 0.0]) if abs(zhat[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(zhat, a)
        u /= np.linalg.norm(u)
        v = np.cross(zhat, u)
        val, err = integrate.dblquad(
            lambda s, t: float(psi_values(psi, (s * u + t * v)[None, :])[0]),
            -support_radius,
            support_radius,
            -support_radius,
            support_radius,
            epsabs=tol,
            epsrel=1e-8,
        )
    if not math.isfinite(val):
        raise MeasureError("hyperplane quadrature diverged")
    return float(val)
