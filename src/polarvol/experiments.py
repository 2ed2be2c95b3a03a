"""Reproducible statistical experiments on measures of random polars.

Every experiment is driven by a single seed; X-side and Z-side trials
use disjoint streams but shared grids, and verdicts use one-sided
3-sigma margins: the underlying statements are inequalities in
expectation/distribution, so Monte Carlo can only certify them up to
noise.
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
    DirectionGrid,
    GeometryError,
    HPolytopeBody,
    LqBall,
    MatrixImageBody,
    SupportOracleBody,
    hausdorff_estimate,
    unit_ball_volume,
)
from .measure import (
    PnDensity,
    RadialMeasure,
    RadialStepDensity,
    RadialStepFn,
    UniformBodyDensity,
    check_condnu2,
    dn_radius,
    radial_mass_in_ball,
    sample_density,
    sample_uniform_ball,
)
from .rng import RngStream
from .volume import exact_polar_volume_crosspoly, halfspace_volume, polar_measure, polar_measures

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

# levels of the shared grid on which dominance compares survival curves
SURVIVAL_LEVELS = 50
# floats in one block of the centroid oracle's temporaries for p != 2 (about 1 MB)
ORACLE_BLOCK_ELEMENTS = 1 << 17
# least sigma of a ball comparison, relative to its right side: 64 ulps
ROUNDING_FLOOR = 64 * np.finfo(float).eps


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
    of trials are reproducible in isolation.  Each side's bodies go
    through one `polar_measures` call; an exact value leaves its
    estimator stream unused and reports stderr 0.
    """
    seed, trials = cfg.seed, range(cfg.trials)
    rn = dn_radius(cfg.n)
    pts_x = [sample_density(cfg.law_x, RngStream(seed, 4 * i), cfg.N) for i in trials]
    pts_z = [sample_uniform_ball(cfg.n, rn, RngStream(seed, 4 * i + 2), cfg.N) for i in trials]

    def side(points, stream):
        bodies = [MatrixImageBody(P.T, cfg.gauge, cfg.rball) for P in points]
        rngs = [RngStream(seed, 4 * i + stream) for i in trials]
        return [(e.value, e.stderr) for e in polar_measures(bodies, cfg.m, cfg.budget_per_trial, rngs, threads)]

    return side(pts_x, 1), side(pts_z, 3)


def santalo_expectation_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Compare E[ν(polar)] for columns drawn from law_x vs uniform(D_n).

    PASS iff mean_Z - mean_X >= -3·(combined stderr of the two means).
    The stderr of a mean is read from the spread of the trials, so one
    trial is refused.
    """
    if cfg.trials < 2:
        raise ConfigError("trials: the expectation comparison needs >= 2 trials for a spread")
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


def stochastic_dominance_experiment(
    cfg: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Survival-curve ordering S_X(t) <= S_Z(t) on a shared level grid.

    PASS iff S_X(t) <= S_Z(t) + 3·(combined binomial SE) at every grid
    point.  The measure must satisfy condν2 (checked before any trial).
    """
    flags = check_condnu2(cfg.m, np.linspace(1e-6, 10.0, 64))
    if not (flags["decreasing"] and flags["condnu2"]):
        raise ConfigError("measure: dominance needs a decreasing rho with convex rho^(-1/(n+1))")
    vx, vz = _trial_values(cfg, threads)
    ax = np.array([v for v, _ in vx])
    az = np.array([v for v, _ in vz])
    pooled = np.concatenate([ax, az])
    tgrid = np.linspace(float(pooled.min()), float(pooled.max()), SURVIVAL_LEVELS)
    T = len(ax)
    s_x = np.array([(ax >= t).mean() for t in tgrid])
    s_z = np.array([(az >= t).mean() for t in tgrid])
    se = np.sqrt(s_x * (1 - s_x) / T + s_z * (1 - s_z) / T)
    gaps = s_x - s_z - 3.0 * se
    verdict = bool(np.all(gaps <= 1e-12))
    return ExperimentReport(
        verdict=verdict,
        summary={
            "levels": SURVIVAL_LEVELS,
            "worst_gap": float(gaps.max()),
            "trials": cfg.trials,
        },
        trials_x=vx,
        trials_z=vz,
    )


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
    # qhull's cost grows fast with n: n = 5 at N = 256 takes seconds
    if not 2 <= n <= 5:
        raise ConfigError("n: exact convergence oracle needs 2 <= n <= 5")
    if not (math.isfinite(band) and band >= 0):
        raise ConfigError("band: must be a finite number >= 0")
    schedule = sorted(schedule)
    if not schedule:
        raise ConfigError("schedule: must list at least one N")
    pts = sample_uniform_ball(n, dn_radius(n), RngStream(seed, 0), schedule[-1])
    values, dists = [], []
    prev_body = None
    for N in schedule:
        sub = pts[:N]
        values.append(exact_polar_volume_crosspoly(sub))
        body = MatrixImageBody(sub.T, LqBall(1.0, N), 0.0)
        if prev_body is not None:
            dists.append(hausdorff_estimate(prev_body, body, DirectionGrid.default(n)))
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


def _cube_nodes(n: int):
    """Tensor Gauss–Legendre nodes (m, n) and weights on the unit cube [-1/2, 1/2]^n."""
    k = 48 if n == 2 else 16
    x, w = np.polynomial.legendre.leggauss(k)
    x = 0.5 * x  # map [-1, 1] -> [-1/2, 1/2]
    w = 0.5 * w
    grids = np.meshgrid(*([x] * n), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    ws = np.prod(np.meshgrid(*([w] * n), indexing="ij"), axis=0).ravel()
    return pts, ws


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
    `_radial_centroid_radius`.  The cube is a `SupportOracleBody` on its
    tensor Gauss–Legendre rule.  For p = 2 the rule's sum is the
    quadratic form y^T M y with M = Σ w_i x_i x_i^T, so Z_2 is an
    ellipsoid: M is folded once from the nodes and each row costs O(n^2).
    The form is summed column by column without a BLAS product, so a
    row's bits do not depend on where it sits in the call.

    Any other p evaluates the nodes in blocks of rows whose |nodes| x rows
    temporary holds about ORACLE_BLOCK_ELEMENTS floats, reused in place.
    The block width is a power of two >= 16, a multiple of the BLAS
    kernels' row unroll, so every row takes the kernel path it would take
    in one unblocked product of the whole call and gets the same bits.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ConfigError("p: must be a finite number >= 1")
    if isinstance(mu, RadialStepDensity):
        return BallBody(_radial_centroid_radius(mu.as_step(), p), mu.dim)
    if mu.shape == "Dn":
        step = RadialStepFn(np.array([dn_radius(mu.dim)]), np.array([1.0]), mu.dim)
        return BallBody(_radial_centroid_radius(step, p), mu.dim)
    if mu.shape != "cube":
        raise ConfigError("centroid oracle supports cube, Dn and radial_step laws")
    nodes, weights = _cube_nodes(mu.dim)
    weights = weights / weights.sum()
    if p == 2.0:
        # einsum sums in its own loops, not in BLAS, so M's bits do not depend on the BLAS threads
        M = np.einsum("i,ij,ik->jk", weights, nodes, nodes)
        return SupportOracleBody(_quadratic_form_root(M), mu.dim)
    rows = 1 << max(4, (ORACLE_BLOCK_ELEMENTS // len(nodes)).bit_length() - 1)

    def evaluator(Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        m = Y.shape[0]
        out = np.empty(m)
        buf = np.empty(len(nodes) * min(rows + 1, m))
        i = 0
        while i < m:
            # a lone last row would take BLAS's one-column path: keep it in the block before
            k = m - i if m - i <= rows + 1 else rows
            t = np.matmul(nodes, Y[i : i + k].T, out=buf[: len(nodes) * k].reshape(len(nodes), k))
            np.abs(t, out=t)
            t **= p
            out[i : i + k] = (weights @ t) ** (1.0 / p)
            i += k
        return out

    return SupportOracleBody(evaluator, mu.dim)


def _quadratic_form_root(M: np.ndarray):
    """Evaluator of y -> sqrt(y^T M y) for the symmetrised M, summed column by column."""
    M = 0.5 * (M + M.T)
    n = M.shape[0]

    def evaluator(Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.zeros(Y.shape[0])
        t = np.empty(Y.shape[0])
        for j in range(n):
            # t = (M y)_j, then out += y_j t
            np.multiply(Y[:, 0], M[j, 0], out=t)
            for k in range(1, n):
                t += M[j, k] * Y[:, k]
            t *= Y[:, j]
            out += t
        return np.sqrt(out, out=out)

    return evaluator


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
    """|K| for the body kinds with a closed-form or qhull exact volume; 0 for a flat K."""
    if isinstance(body, BallBody):
        return unit_ball_volume(body.dim) * body.R ** body.dim
    if isinstance(body, HPolytopeBody):
        return halfspace_volume(body.normals, body.offsets)
    if isinstance(body, MatrixImageBody):
        if not (body.gauge.q == 1.0 and body.rball == 0.0):
            raise GeometryError("exact |K| available for cross-polytope images only")
        pts = body.matrix.T
        try:
            return float(ConvexHull(np.vstack([pts, -pts])).volume)
        except QhullError:  # the columns do not span R^n
            return 0.0
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
