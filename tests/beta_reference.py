"""Test-local reference for the Beta log-density gradient.

The package computes this gradient only inside the batched PPO loss; the
scalar chain rule here is the independent oracle the tests compare it with.
"""

import numpy as np

from flowsched.policy import shape_grad_wrt_raw
from flowsched.special_math import digamma


def log_pdf_grad_wrt_raw(r: float, raw: np.ndarray, alpha: float,
                         beta: float) -> np.ndarray:
    """d beta_log_pdf(r; alpha(a), beta(b)) / d(a, b) via the chain rule."""
    common = digamma(alpha + beta)
    dl_dalpha = np.log(r) - digamma(alpha) + common
    dl_dbeta = np.log1p(-r) - digamma(beta) + common
    return np.array([dl_dalpha, dl_dbeta]) * shape_grad_wrt_raw(raw)
