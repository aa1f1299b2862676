"""Special functions and the Beta distribution.

Only what the decay-rate policy needs: ln Gamma and digamma (for the Beta
normalizer and KL), exact Beta sampling (one lane-batch draw, one stream and
one generator call per lane), log-density, and the closed-form Beta-Beta KL
divergence, all array-first (a float input returns a float).
One fused kernel computes ln Gamma and digamma by argument-shift recurrences
into the region where the Stirling series converges fast; it is verified
against high-precision references in the test suite. The log-density and the
KL each have one formula, over term tuples (alpha, beta, ln B, psi(alpha),
psi(beta), psi(alpha + beta)) as PPO caches them.
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


def _unwrap(out):
    """A 0-d result as a Python float; arrays as they are."""
    return float(out) if np.ndim(out) == 0 else out


def log_gamma(x):
    """ln Gamma(x) for x > 0, scalar or array: log_gamma_digamma(x)[0]."""
    return _unwrap(log_gamma_digamma(x)[0])


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0, scalar or array: log_gamma_digamma(x)[1]."""
    return _unwrap(log_gamma_digamma(x)[1])


def log_gamma_digamma(x) -> tuple[np.ndarray, np.ndarray]:
    """(ln Gamma(x), psi(x)) as arrays for x > 0, from one argument-shift loop."""
    z = np.array(x, dtype=float, order="C")
    if np.any(z <= 0.0) or not np.all(np.isfinite(z)):
        raise ValueError("log_gamma and digamma require finite x > 0")
    # ln Gamma(z) = ln Gamma(z + k) - sum ln(z + i) and
    # psi(z) = psi(z + k) - sum 1/(z + i); at most 9 rounds, each over only
    # the positions still below the threshold, through flat views of z and
    # the two shift sums.
    lg_shift = np.zeros_like(z)
    dg_shift = np.zeros_like(z)
    flat_z, flat_lg, flat_dg = z.reshape(-1), lg_shift.reshape(-1), dg_shift.reshape(-1)
    idx = np.flatnonzero(flat_z < _SHIFT_THRESHOLD)
    while idx.size:
        zi = flat_z[idx]
        flat_lg[idx] -= np.log(zi)
        flat_dg[idx] -= 1.0 / zi
        zi += 1.0
        flat_z[idx] = zi
        idx = idx[zi < _SHIFT_THRESHOLD]
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


def beta_terms(alpha, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ln B(alpha, beta), psi(alpha), psi(beta), psi(alpha + beta)) for arrays.

    One log_gamma_digamma call over [alpha, beta, alpha + beta]; elementwise
    equal to log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
    and to the three digamma calls. (alpha, beta, *beta_terms(alpha, beta))
    is the term tuple that log_pdf_from_terms and kl_from_terms read.
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


def log_pdf_from_terms(log_r, log_1mr, terms):
    """Beta log-density from log r, log(1 - r) and terms (alpha, beta, ln B, ...)."""
    alpha, beta, log_b = terms[:3]
    return (alpha - 1.0) * log_r + (beta - 1.0) * log_1mr - log_b


def kl_from_terms(p, q):
    """KL(p || q) in nats between Betas given as term tuples (alpha, beta,
    ln B, psi(alpha), psi(beta), psi(alpha + beta)); only p's psi terms are read."""
    p_alpha, p_beta, p_log_b, p_psi_a, p_psi_b, p_psi_ab = p
    q_alpha, q_beta, q_log_b = q[:3]
    return (q_log_b - p_log_b + (p_alpha - q_alpha) * p_psi_a
            + (p_beta - q_beta) * p_psi_b
            + (q_alpha - p_alpha + q_beta - p_beta) * p_psi_ab)


def beta_log_pdf(r, alpha, beta):
    """Log-density of Beta(alpha, beta) at r in (0, 1), elementwise. Accepts
    any positive shapes, not just the >1 policy range, so tests can probe
    edge densities."""
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise ValueError(f"beta_log_pdf requires r in (0, 1), got {r}")
    return _unwrap(log_pdf_from_terms(np.log(r), np.log1p(-r),
                                      (alpha, beta, *beta_terms(alpha, beta))))


def beta_sample_lanes(alpha, beta, rngs) -> np.ndarray:
    """Draw r_i ~ Beta(alpha[i], beta[i]) from stream rngs[i], for each lane i,
    in one generator call per lane.

    Every shape must exceed 1 (a lane that breaks this raises ValueError
    naming it). There numpy's Beta draw is the two-Gamma ratio Ga / (Ga + Gb)
    on gamma(alpha[i]) and then gamma(beta[i]), drawn lane by lane, so a
    stream that appears twice draws for its lanes in lane order; at or below
    1 numpy may take Johnk's algorithm, which draws otherwise. The ratios are
    clamped to [SAMPLE_EPS, 1 - SAMPLE_EPS]; with both shapes above 1 the
    clamped mass is negligible and downstream log-densities stay finite.
    """
    alpha, beta = np.asarray(alpha, float), np.asarray(beta, float)
    bad = np.flatnonzero(~((alpha > 1.0) & (beta > 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"lane {i}: Beta shapes must both exceed 1, "
                         f"got ({alpha[i]}, {beta[i]})")
    draws = np.fromiter((rng.beta(a, b) for a, b, rng in
                         zip(alpha.tolist(), beta.tolist(), rngs)), float, alpha.size)
    return np.clip(draws, SAMPLE_EPS, 1.0 - SAMPLE_EPS)


def beta_sample(params: BetaParams, rng) -> float:
    """One draw r ~ Beta(alpha, beta) from rng: beta_sample_lanes on one lane."""
    return float(beta_sample_lanes([params.alpha], [params.beta], [rng])[0])

