"""Reproducible statistical experiments on measures of random polars.

Every experiment is driven by a single seed; X-side and Z-side trials
use disjoint streams.  The statements are inequalities in expectation or
in distribution, certified up to noise: a one-sided 3-sigma margin on the
means, and an exact one-sided two-sample Smirnov test at level `ALPHA`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import special
from scipy.spatial import ConvexHull, QhullError

from .geom import (
    Body,
    BallBody,
    GeometryError,
    HPolytopeBody,
    LqBall,
    MatrixImageBody,
    SupportOracleBody,
    hausdorff_estimate,
    qhull_failure,
    spans,
    unit_ball_volume,
)
from .measure import (
    LebesgueRestricted,
    PnDensity,
    RadialMeasure,
    RadialStepDensity,
    RadialStepFn,
    UniformBodyDensity,
    check_condnu2,
    density_points,
    radial_mass_in_ball,
    rearrange_density,
    sample_density,
)
from .rng import RngStream, generators
from .volume import ROUNDING_FLOOR, exact_polar_volume_crosspoly, flag_volume, polar_measure, polar_measures

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ConfigError",
    "santalo_expectation_experiment",
    "stochastic_dominance_experiment",
    "convergence_experiment",
    "centroid_polar_experiment",
    "newsan_experiment",
    "centroid_body_oracle",
    "body_volume_exact",
]

# level of the one-sided two-sample Smirnov test behind the dominance verdict
ALPHA = 0.01
# the cube's Z_p costs 2^(n-1) terms a direction; past p = 1e15, |x|^p rounds to 0 at |x| = 1 - ulp
CUBE_MAX_DIM, CUBE_MAX_P = 8, 1e15
# e_i of log(sinh s / s) = Σ_i e_i s^2i, the log-MGF of the uniform law on [-1, 1] (`_taylor_factor`)
_LOG_SINHC = [1 / 6, -1 / 180, 1 / 2835, -1 / 37800, 1 / 467775, -691 / 3831077250, 2 / 127702575, -3617 / 2605132530000]
TAYLOR_TERMS = len(_LOG_SINHC)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    N: int
    gauge: LqBall
    rball: float
    law_x: PnDensity
    m: RadialMeasure
    trials: int
    budget_per_trial: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ConfigError("n, N: must be >= 1")
        if self.trials < 1 or self.budget_per_trial < 1:
            raise ConfigError("trials, budget: must be >= 1")
        if self.law_x.dim != self.n or self.m.dim != self.n:
            raise ConfigError("law/measure: dimension must equal n")
        if self.gauge.dim != self.N:
            raise ConfigError("gauge: dimension must equal N")


@dataclass
class ExperimentReport:
    verdict: bool
    summary: dict
    trials_x: list = field(default_factory=list)
    trials_z: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["trial_index,side,value,stderr"]
        for i, (v, s) in enumerate(self.trials_x):
            lines.append(f"{i},X,{v!r},{s!r}")
        for i, (v, s) in enumerate(self.trials_z):
            lines.append(f"{i},Z,{v!r},{s!r}")
        return "\n".join(lines) + "\n"


def _trial_values(cfg: ExperimentConfig, threads: int = 1):
    """Per-trial ν(polar) draws for the X side and the Z side.

    Stream layout: trial i uses streams 4i..4i+3 (X points, X
    estimator, Z points, Z estimator), so the two sides and any subset
    of trials are reproducible in isolation.  Each side's points come
    from one stacked sampler call over its streams, and its bodies go
    through one `polar_measures` call; an exact value leaves its
    estimator stream unused and reports stderr 0.
    """
    seed, trials = cfg.seed, range(cfg.trials)
    pts_x = density_points(cfg.law_x, generators(seed, range(0, 4 * cfg.trials, 4)), cfg.N)
    pts_z = density_points(UniformBodyDensity("Dn", cfg.n), generators(seed, range(2, 4 * cfg.trials, 4)), cfg.N)

    def side(points, stream):
        bodies = [MatrixImageBody(P.T, cfg.gauge, cfg.rball) for P in points]
        rngs = [RngStream(seed, 4 * i + stream) for i in trials]
        return [(e.value, e.stderr) for e in polar_measures(bodies, cfg.m, cfg.budget_per_trial, rngs, threads)]

    return side(pts_x, 1), side(pts_z, 3)


def santalo_expectation_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Compare E[ν(polar)] for columns drawn from law_x vs uniform(D_n).

    PASS iff mean_Z - mean_X >= -3·(combined stderr of the two means).
    The stderr of a mean is read from the spread of the trials, so one
    trial is refused; so is a ρ that is not decreasing.  So is N <= n + 1
    under Lebesgue measure on all of R^n with r = 0: N points lie within ε
    of a common hyperplane with probability ~ε^(N-n+1), and then |K°| ~ 1/ε,
    on the D_n side too, so P(|K_N°| > t) ~ t^-(N-n+1).  For N <= n the mean
    is infinite, and for N = n + 1 the variance behind the 3-sigma margin.
    """
    if cfg.trials < 2:
        raise ConfigError("trials: the expectation comparison needs >= 2 trials for a spread")
    if not check_condnu2(cfg.m)["decreasing"]:
        raise ConfigError("measure: the expectation comparison needs a decreasing rho")
    if isinstance(cfg.m, LebesgueRestricted) and cfg.m.R == math.inf and cfg.rball == 0 and cfg.N <= cfg.n + 1:
        raise ConfigError("N: under Lebesgue measure with R = inf and r = 0, Var nu(K°) is infinite for N <= n + 1")
    vx, vz = _trial_values(cfg, threads)
    ax = np.array([v for v, _ in vx])
    az = np.array([v for v, _ in vz])
    mean_x, mean_z = float(ax.mean()), float(az.mean())
    se_x = float(ax.std(ddof=1) / math.sqrt(len(ax)))
    se_z = float(az.std(ddof=1) / math.sqrt(len(az)))
    combined = math.sqrt(se_x ** 2 + se_z ** 2)
    verdict = (mean_z - mean_x) >= -3.0 * combined
    return ExperimentReport(
        verdict=bool(verdict),
        summary={
            "mean_x": mean_x,
            "mean_z": mean_z,
            "stderr_x": se_x,
            "stderr_z": se_z,
            "margin": mean_z - mean_x,
            "threshold": -3.0 * combined,
            "trials": cfg.trials,
        },
        trials_x=vx,
        trials_z=vz,
    )


def _smirnov_pvalue(k: int, T: int) -> float:
    """P(D⁺ >= k/T) for two samples of T values each, equal in law: C(2T, T - k)/C(2T, T)."""
    return math.prod((T - i + 1) / (T + i) for i in range(1, k + 1))


def stochastic_dominance_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """ν(K_X°) stochastically below ν(K_Z°), by one exact one-sided Smirnov test.

    k = max_t (#{X >= t} - #{Z >= t}) over the pooled trial values, and
    PASS iff P(D⁺ >= k/T) >= ALPHA under X = Z in law (Gnedenko & Korolyuk
    1951).  T trials reach p = 1/C(2T, T) at the least, so a T whose least
    p is not below ALPHA could never FAIL and is refused.  The measure must
    be decreasing and meet condν2 (checked before any trial).
    """
    T = cfg.trials
    if _smirnov_pvalue(T, T) >= ALPHA:
        raise ConfigError(f"trials: {T} trials cannot reach a p-value below {ALPHA}")
    flags = check_condnu2(cfg.m)
    if not (flags["decreasing"] and flags["condnu2"]):
        raise ConfigError("measure: dominance needs a decreasing rho with convex rho^(-1/(n+1))")
    vx, vz = _trial_values(cfg, threads)
    xs = np.sort([v for v, _ in vx])
    zs = np.sort([v for v, _ in vz])
    pooled = np.concatenate([xs, zs])
    k = max(0, int((np.searchsorted(zs, pooled) - np.searchsorted(xs, pooled)).max()))
    p = _smirnov_pvalue(k, T)
    return ExperimentReport(p >= ALPHA, {"statistic": k / T, "pvalue": p, "trials": T}, vx, vz)


def convergence_experiment(
    n: int,
    seed: int,
    schedule: Sequence[int],
    band: float,
) -> ExperimentReport:
    """Exact polar volumes along one seeded path of D_n samples.

    The polar volume of conv{±Z_1..±Z_N} is pathwise nonincreasing in N
    (set inclusion) and approaches |D_n°| = ω_n²; PASS iff both hold,
    the limit within the given relative band at the final N.
    """
    # the flag sum pays n! chambers a facet: 0.34-0.51 s a volume at n = 5, N = 256, and
    # already 70-125 ms at n = 6, N = 8 (README, "Exact oracles")
    if not 2 <= n <= 5:
        raise ConfigError("n: exact convergence oracle needs 2 <= n <= 5")
    if not (math.isfinite(band) and band >= 0):
        raise ConfigError("band: must be a finite number >= 0")
    schedule = sorted(schedule)
    if not schedule:
        raise ConfigError("schedule: must list at least one N")
    pts = sample_density(UniformBodyDensity("Dn", n), RngStream(seed, 0), schedule[-1])
    values, dists = [], []
    prev_body = None
    for N in schedule:
        sub = pts[:N]
        values.append(exact_polar_volume_crosspoly(sub))
        body = MatrixImageBody(sub.T, LqBall(1.0, N), 0.0)
        if prev_body is not None:
            dists.append(hausdorff_estimate(prev_body, body))
        prev_body = body
    target = unit_ball_volume(n) ** 2
    monotone = all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
    rel_err = abs(values[-1] - target) / target
    verdict = monotone and rel_err <= band
    return ExperimentReport(
        verdict=bool(verdict),
        summary={
            "values": values,
            "target": target,
            "relative_error": rel_err,
            "monotone": monotone,
            "hausdorff_steps": dists,
        },
        trials_x=[(v, 0.0) for v in values],
    )


# ---------------------------------------------------------------------------
# centroid bodies


def _radial_centroid_radius(step: RadialStepFn, p: float) -> float:
    """c_p with Z_p(μ) = c_p·B_2^n, for μ of radial step density `step`.

    A rotation-invariant μ has a ball for Z_p(μ) (Lutwak–Zhang 1997), of
    radius c_p = (∫ |x_1|^p dμ)^{1/p}.  The integral is a sphere moment
    times a radial one:
    2π^{(n-1)/2} Γ((p+1)/2)/Γ((n+p)/2) · Σ_j v_j (b_j^{n+p} - b_{j-1}^{n+p})/(n+p).
    The Gamma ratio is a Pochhammer symbol, and the breaks are taken
    relative to the last one, so no power overflows at large n + p.  A
    sphere moment out of floating-point range (n = 300 with p = 1000)
    is refused rather than read as a radius of 0.
    """
    n = step.dim
    top = float(step.breaks[-1])
    outer = (step.breaks / top) ** (n + p)
    radial = float(np.dot(step.values, outer - np.append(0.0, outer[:-1]))) / (n + p)
    sphere = 2.0 * math.pi ** ((n - 1) / 2) / special.poch((p + 1) / 2, (n - 1) / 2)
    c = top * float(sphere * top ** n * radial) ** (1.0 / p)
    if not 0 < c < math.inf:
        raise ConfigError(f"p: the centroid radius at n = {n}, p = {p:g} is out of floating-point range")
    return c


def centroid_body_oracle(mu: PnDensity, p: float) -> Body:
    """The moment body Z_p(μ), h(y) = (∫ |<x,y>|^p dμ)^{1/p}.

    For D_n and radial step laws it is the ball of radius
    `_radial_centroid_radius`; for the cube, `_cube_support` in closed form,
    with the exact inradius min(h(e_1), h((1, ..., 1)/√n)): over unit θ,
    E|<U, θ>|^p is smallest on an axis for p >= 2 and on the diagonal for
    p <= 2 (Latała and Oleszkiewicz, Colloq. Math. 68, 1995).
    """
    if not (math.isfinite(p) and p >= 1):
        raise ConfigError("p: must be a finite number >= 1")
    if isinstance(mu, RadialStepDensity):
        return BallBody(_radial_centroid_radius(mu, p), mu.dim)
    if mu.shape == "Dn":
        return BallBody(_radial_centroid_radius(rearrange_density(mu), p), mu.dim)
    if mu.shape != "cube":
        raise ConfigError("centroid oracle supports cube, Dn and radial_step laws")
    if mu.dim > CUBE_MAX_DIM or p > CUBE_MAX_P:
        raise ConfigError(f"n, p: the cube's centroid body needs n <= {CUBE_MAX_DIM} and p <= {CUBE_MAX_P:g}")
    n = mu.dim
    inradius = float(_cube_support(np.vstack([np.eye(1, n), np.full((1, n), 1.0 / math.sqrt(n))]), p).min())
    return SupportOracleBody(lambda Y: _cube_support(np.atleast_2d(np.asarray(Y, dtype=float)), p), n, inradius)


def _cube_support(Y: np.ndarray, p: float) -> np.ndarray:
    """(E|<U, y>|^p)^{1/p} for each row y, U uniform on [-1/2, 1/2]^n.

    With a_1 >= ... >= a_k the nonzero |y_i| and G_l(x) = |x|^{p+l} sgn(x)^l /
    ((p+1)...(p+l)), E|<U, y>|^p = (Π a_i)^{-1} Σ_{ε∈{±1}^k} (Π ε_i) G_k(Σ ε_i a_i/2),
    built one coordinate at a time: a term w G_l(x) takes coordinate l+1 as
    w (G_{l+1}(x + a/2) - G_{l+1}(x - a/2))/a or, where that would cancel as the
    coordinates left are small beside |x|, ends as w G_l(x) `_taylor_factor`.
    Rows are scaled to Σ a_i = 2; a coordinate below 2^-100 of the largest counts
    as 0 (h moves by ~2^-200).  Each step is elementwise or sums rows in order,
    so a row's bits do not depend on its place in the call.
    """
    m, n = Y.shape
    rows = max(1, (1 << 16) >> (n - 1))  # 2^16 terms a block: 512 KB a temporary
    if m > rows:
        return np.concatenate([_cube_support(Y[i : i + rows], p) for i in range(0, m, rows)])
    A = np.ascontiguousarray(np.abs(Y).T)
    s = 0.5 * sum(A)  # sum() adds the rows in order; numpy's pairwise sum would not for one column
    zero = s == 0
    A[:, zero], s[zero] = 1.0, 1.0
    A /= s
    for r in range(n):  # odd-even transposition sort: each column descending
        for i in range(r % 2, n - 1, 2):
            A[i], A[i + 1] = np.maximum(A[i], A[i + 1]), np.minimum(A[i], A[i + 1])
    A[A < A[0] * 2.0**-100] = 0.0
    H = 0.5 * A
    tail = np.cumsum(H[::-1], axis=0)[::-1]  # tail[l]: the half-widths of coordinates l.. summed
    # ε and -ε give the same term, so the first coordinate enters at +a_1/2 with weight 2/a_1
    X, W, acc, den = H[:1], 2.0 / A[:1], np.zeros(m), 1.0
    for l in range(1, n):
        q = p + l
        den *= q
        far = (W != 0) & ((q + 2 * TAYLOR_TERMS) * tail[l] <= np.abs(X))
        t, r = np.nonzero(far)
        x = X[t, r]
        g = np.copysign(np.abs(x) ** q, x if l % 2 else 1.0) / den
        acc += np.bincount(r, W[t, r] * g * _taylor_factor(H[l:, r], x, q), minlength=m)
        W = np.where(far, 0.0, W) / np.where(A[l] > 0, A[l], 1.0)  # a zero coordinate has ended every term
        X, W = np.concatenate([X + H[l], X - H[l]]), np.concatenate([W, -W])
    acc += sum(W * np.copysign(np.abs(X) ** (p + n), X if n % 2 else 1.0)) / (den * (p + n))
    return np.where(zero, 0.0, s * acc ** (1.0 / p))


def _taylor_factor(H: np.ndarray, x: np.ndarray, q: float) -> np.ndarray:
    """E(1 + T/x)^q for T = Σ_i H_i V_i, V_i uniform on [-1, 1], column by column.

    The series Σ_j q(q-1)...(q-2j+1) P_j x^{-2j} reads the moments P_j =
    E T^{2j}/(2j)! off E e^{sT} = exp(Σ_i e_i Σ H^{2i} s^{2i}), e_i = 2^2i B_2i /
    (2i (2i)!).  When (q + 2 TAYLOR_TERMS) Σ H <= |x|, the terms past
    TAYLOR_TERMS are below 1e-16 of the sum.
    """
    sums = [sum(H ** (2 * i)) for i in range(1, TAYLOR_TERMS + 1)]
    moments, factor, fall = [np.ones(len(x))], np.ones(len(x)), 1.0
    u = np.divide(1.0, x * x, out=np.zeros_like(x), where=sums[0] > 0)
    for j in range(1, TAYLOR_TERMS + 1):
        moments.append(sum(i * _LOG_SINHC[i - 1] * sums[i - 1] * moments[j - i] for i in range(1, j + 1)) / j)
        fall *= (q - 2 * j + 2) * (q - 2 * j + 1)
        factor += fall * moments[j] * u**j
    return factor


def _ball_comparison(
    body: Body,
    m: RadialMeasure,
    radius: float,
    budget: int,
    seed: int,
    threads: int,
    **extra,
) -> ExperimentReport:
    """Test ν(K°) <= ν((radius·B)°) at 3-sigma; `extra` joins the summary.

    The sigma has a floor of 64 ulps of the right side: a ball against its
    own reference is the equality case, where the exact left side can land
    a few ulps high (newsan's t_K is R only up to rounding) with stderr 0.
    """
    rhs = radial_mass_in_ball(m, 1.0 / radius)
    est = polar_measure(body, m, budget, RngStream(seed, 0), threads)
    return ExperimentReport(
        verdict=bool(est.value <= rhs + 3.0 * max(est.stderr, ROUNDING_FLOOR * abs(rhs))),
        summary={
            "lhs": est.value,
            "lhs_stderr": est.stderr,
            "rhs": rhs,
            **extra,
        },
        trials_x=[(est.value, est.stderr)],
        trials_z=[(rhs, 0.0)],
    )


def centroid_polar_experiment(
    mu: PnDensity,
    p: float,
    m: RadialMeasure,
    budget: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Test ν(Z_p(μ)°) <= ν(Z_p(λ_{D_n})°) at 3-sigma."""
    radius = centroid_body_oracle(UniformBodyDensity("Dn", mu.dim), p).R
    return _ball_comparison(centroid_body_oracle(mu, p), m, radius, budget, seed, threads, ball_radius=radius)


def body_volume_exact(body: Body) -> float:
    """|K| for the body kinds with a closed-form or qhull exact volume: 0 for a flat
    cross-polytope image.  An H-polytope's is the flag sum over its cached
    `dual_hull`, which its vertices share, and which raises GeometryError
    when it is flat or empty."""
    if isinstance(body, BallBody):
        return unit_ball_volume(body.dim) * body.R ** body.dim
    if isinstance(body, HPolytopeBody):
        return flag_volume(*body.dual_hull)
    if isinstance(body, MatrixImageBody):
        if not (body.gauge.q == 1.0 and body.rball == 0.0):
            raise GeometryError("exact |K| available for cross-polytope images only")
        pts = body.matrix.T
        if not spans(pts):  # flat: the test that calls K° unbounded everywhere else
            return 0.0
        try:
            return float(ConvexHull(np.vstack([pts, -pts])).volume)
        except QhullError as e:
            raise qhull_failure(e) from e
    raise GeometryError(f"no exact volume for {type(body)!r}")


def newsan_experiment(
    body: Body,
    m: RadialMeasure,
    budget: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Test ν(K°) <= ν((t_K B)°) where t_K matches |K| to a ball volume."""
    n = body.dim
    vol_k = body_volume_exact(body)
    if not math.isfinite(vol_k) or vol_k <= 0:
        raise GeometryError("newsan needs a bounded body of positive volume")
    t_k = (vol_k / unit_ball_volume(n)) ** (1.0 / n)
    return _ball_comparison(body, m, t_k, budget, seed, threads, t_k=t_k, volume_k=vol_k)
