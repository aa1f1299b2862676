"""Special functions and the Beta distribution.

Only what the decay-rate policy needs: ln Gamma and digamma (for the Beta
normalizer and KL), exact Beta sampling, log-density, and the closed-form
Beta-Beta KL divergence. ln Gamma and digamma use argument-shift recurrences
into the region where the Stirling asymptotic series converges fast; both
are verified against high-precision references in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Sampled decay rates are kept away from {0, 1} so log-densities stay finite.
SAMPLE_EPS = 1e-6

# Stirling series coefficients B_{2n} / (2n (2n-1)) for ln Gamma.
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)
# Asymptotic series coefficients B_{2n} / (2n) for digamma.
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_SHIFT_THRESHOLD = 9.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """ln Gamma(x) for x > 0. Scalar or array.

    The scalar branch runs the same recurrence and series in plain floats;
    it sits on the per-step sampling path, where array ceremony would
    dominate the cost. Scalar and array results may differ by a few ulp
    because the vectorized log is not the libm log.
    """
    if isinstance(x, (float, int)):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError("log_gamma requires finite x > 0")
        z = float(x)
        shift = 0.0
        while z < _SHIFT_THRESHOLD:
            shift -= math.log(z)
            z += 1.0
        inv2 = 1.0 / (z * z)
        series = 0.0
        term = 1.0 / z
        for c in _LGAMMA_COEF:
            series += c * term
            term *= inv2
        return (z - 0.5) * math.log(z) - z + _HALF_LOG_2PI + series + shift
    out = log_gamma_digamma(x)[0]
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0. Scalar or array.

    Scalar branch mirrors log_gamma's: same algorithm in plain floats.
    """
    if isinstance(x, (float, int)):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError("digamma requires finite x > 0")
        z = float(x)
        shift = 0.0
        while z < _SHIFT_THRESHOLD:
            shift -= 1.0 / z
            z += 1.0
        inv2 = 1.0 / (z * z)
        series = 0.0
        term = inv2
        for c in _DIGAMMA_COEF:
            series += c * term
            term *= inv2
        return math.log(z) - 0.5 / z - series + shift
    out = log_gamma_digamma(x)[1]
    return float(out) if out.ndim == 0 else out


def log_gamma_digamma(x) -> tuple[np.ndarray, np.ndarray]:
    """(ln Gamma(x), psi(x)) for an array x > 0, from one argument-shift loop;
    the array branches of log_gamma and digamma."""
    z = np.array(x, dtype=float)
    if np.any(z <= 0.0) or not np.all(np.isfinite(z)):
        raise ValueError("log_gamma and digamma require finite x > 0")
    # ln Gamma(z) = ln Gamma(z + k) - sum ln(z + i) and
    # psi(z) = psi(z + k) - sum 1/(z + i); at most 9 rounds.
    lg_shift = np.zeros_like(z)
    dg_shift = np.zeros_like(z)
    mask = z < _SHIFT_THRESHOLD
    while np.any(mask):
        lg_shift = np.where(mask, lg_shift - np.log(z), lg_shift)
        dg_shift = np.where(mask, dg_shift - 1.0 / z, dg_shift)
        z = np.where(mask, z + 1.0, z)
        mask = z < _SHIFT_THRESHOLD
    log_z = np.log(z)
    inv2 = 1.0 / (z * z)
    lg_series = np.zeros_like(z)
    dg_series = np.zeros_like(z)
    lg_term = 1.0 / z
    dg_term = inv2
    for lg_c, dg_c in zip(_LGAMMA_COEF, _DIGAMMA_COEF):
        lg_series = lg_series + lg_c * lg_term
        lg_term = lg_term * inv2
        dg_series = dg_series + dg_c * dg_term
        dg_term = dg_term * inv2
    return ((z - 0.5) * log_z - z + _HALF_LOG_2PI + lg_series + lg_shift,
            log_z - 0.5 / z - dg_series + dg_shift)


def log_beta_fn(alpha, beta):
    """ln B(alpha, beta)."""
    if isinstance(alpha, (float, int)) and isinstance(beta, (float, int)):
        return log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
    return beta_terms(alpha, beta)[0]


def beta_terms(alpha, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ln B(alpha, beta), psi(alpha), psi(beta), psi(alpha + beta)) for arrays.

    One log_gamma_digamma call over [alpha, beta, alpha + beta]; elementwise
    equal to log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
    and to the three digamma calls.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    n = alpha.size
    lg, dg = log_gamma_digamma(np.concatenate([alpha.ravel(), beta.ravel(),
                                               (alpha + beta).ravel()]))
    lb = lg[:n] + lg[n:2 * n] - lg[2 * n:]
    return tuple(v.reshape(alpha.shape)
                 for v in (lb, dg[:n], dg[n:2 * n], dg[2 * n:]))


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of one step's decay-rate distribution.

    Both shapes must exceed 1 so the density is unimodal on (0, 1).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("Beta shapes must be finite")
        if self.alpha <= 1.0 or self.beta <= 1.0:
            raise ValueError(f"Beta shapes must exceed 1, got ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def mode(self) -> float:
        return (self.alpha - 1.0) / (self.alpha + self.beta - 2.0)


def beta_log_pdf(r: float, alpha: float, beta: float) -> float:
    """Log-density of Beta(alpha, beta) at r in (0, 1).

    Accepts any positive shapes, not just the >1 policy range, so tests can
    probe edge densities.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"beta_log_pdf requires r in (0, 1), got {r}")
    return (
        (alpha - 1.0) * math.log(r)
        + (beta - 1.0) * math.log1p(-r)
        - float(log_beta_fn(alpha, beta))
    )


def beta_sample(params: BetaParams, rng) -> float:
    """Draw r ~ Beta(alpha, beta) via the two-Gamma ratio construction.

    The draw is clamped to [SAMPLE_EPS, 1 - SAMPLE_EPS]; with both shapes
    above 1 the clamped mass is negligible and downstream log-densities
    stay finite.
    """
    x = rng.gamma(params.alpha)
    y = rng.gamma(params.beta)
    r = x / (x + y)
    return min(max(r, SAMPLE_EPS), 1.0 - SAMPLE_EPS)


def beta_kl(p: BetaParams, q: BetaParams) -> float:
    """KL(p || q) between two Beta distributions, in nats."""
    sp = p.alpha + p.beta
    return float(
        log_beta_fn(q.alpha, q.beta)
        - log_beta_fn(p.alpha, p.beta)
        + (p.alpha - q.alpha) * digamma(p.alpha)
        + (p.beta - q.beta) * digamma(p.beta)
        + (q.alpha - p.alpha + q.beta - p.beta) * digamma(sp)
    )
