"""Per-step decay-rate policy for adaptive diffusion-time schedules.

A small dense net reads step features and emits two reals (a, b) that map to
Beta shape parameters alpha = 1 + e^a, beta = 1 + e^b, so the decay-rate
distribution is always unimodal on (0, 1). Each predicted rate multiplies the
current diffusion time: t_n = r_n * t_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import DenseNet, load_checkpoint, save_checkpoint
from .rng import RngStream
from .special_math import BetaParams, beta_sample

RAW_PARAM_CLAMP = 30.0
FEATURE_LAYOUT = "state,velocity,t,t_squared"


def feature_length(d: int) -> int:
    return 2 * d + 2


def step_features(x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Feature vector [x, v, t, t^2]; the state is the point the velocity was
    evaluated at, so the pair carries the before/after signal of one step."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise ValueError("state and velocity must be equal-length vectors")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    return np.concatenate([x, v, [t, t * t]])


@dataclass
class TimePolicy:
    net: DenseNet
    d: int
    feature_layout: str = FEATURE_LAYOUT

    def __post_init__(self):
        if self.net.sizes[0] != feature_length(self.d):
            raise ValueError(
                f"policy input size {self.net.sizes[0]} != feature length {feature_length(self.d)}"
            )
        if self.net.sizes[-1] != 2:
            raise ValueError("policy must output exactly (a, b)")

    def copy(self) -> "TimePolicy":
        return TimePolicy(self.net.copy(), self.d, self.feature_layout)


def raw_to_shape(raw: np.ndarray) -> np.ndarray:
    """(a, b) -> (alpha, beta) with overflow-safe exp; always > 1."""
    clipped = np.clip(raw, -RAW_PARAM_CLAMP, RAW_PARAM_CLAMP)
    return 1.0 + np.exp(clipped)


def shape_grad_wrt_raw(raw: np.ndarray) -> np.ndarray:
    """d(alpha)/da elementwise; zero outside the clamp window."""
    inside = np.abs(raw) < RAW_PARAM_CLAMP
    return np.where(inside, np.exp(np.clip(raw, -RAW_PARAM_CLAMP, RAW_PARAM_CLAMP)), 0.0)


def tpm_params_batch(policy: TimePolicy, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (raw, alpha, beta) over a feature matrix (n, 2d+2)."""
    raw = policy.net.forward(feats)
    ab = raw_to_shape(raw)
    return raw, ab[:, 0], ab[:, 1]


def predict_decay(policy: TimePolicy, feats: np.ndarray, rng: RngStream,
                  deterministic: bool = False) -> float:
    """Draw (or take the mode of) the decay rate at one feature vector; rl
    scores it later from the recorded features."""
    alpha, beta = raw_to_shape(policy.net.forward(feats))
    params = BetaParams(float(alpha), float(beta))
    return params.mode if deterministic else beta_sample(params, rng)


def next_time(t_prev: float, r: float) -> float:
    if not 0.0 < t_prev <= 1.0:
        raise ValueError(f"t_prev={t_prev} outside (0, 1]")
    if not 0.0 < r < 1.0:
        raise ValueError(f"decay rate r={r} outside (0, 1)")
    return r * t_prev


def init_policy(d: int, r_target: float, rng: RngStream,
                hidden: tuple[int, ...] = (32,)) -> TimePolicy:
    """Random hidden layers, zero final weights, and final biases chosen so
    the initial decay distribution has mean exactly r_target for any input.

    Mean alpha/(alpha+beta) = r with alpha, beta > 1 pins only one bias; the
    other is held at 0 (shape 2). For r >= 1/2: beta = 2, alpha = 2r/(1-r);
    otherwise alpha = 2, beta = 2(1-r)/r.
    """
    if not 0.0 < r_target < 1.0:
        raise ValueError(f"r_target={r_target} outside (0, 1)")
    net = DenseNet.init_random([feature_length(d), *hidden, 2], rng)
    net.weights[-1] = np.zeros_like(net.weights[-1])
    if r_target >= 0.5:
        a = np.log((3.0 * r_target - 1.0) / (1.0 - r_target))
        b = 0.0
    else:
        a = 0.0
        b = np.log((2.0 - 3.0 * r_target) / r_target)
    net.biases[-1] = np.array([a, b])
    return TimePolicy(net, d)


def log_pdf_grad_wrt_raw(r: float, raw: np.ndarray, alpha: float, beta: float,
                         digamma_fn=None) -> np.ndarray:
    """d beta_log_pdf(r; alpha(a), beta(b)) / d(a, b) via the chain rule."""
    from .special_math import digamma

    dg = digamma_fn or digamma
    common = dg(alpha + beta)
    dl_dalpha = np.log(r) - dg(alpha) + common
    dl_dbeta = np.log1p(-r) - dg(beta) + common
    return np.array([dl_dalpha, dl_dbeta]) * shape_grad_wrt_raw(raw)


def save_policy(policy: TimePolicy, path: str | Path) -> None:
    header = f"layout={policy.feature_layout};d={policy.d}".encode("ascii")
    save_checkpoint(policy.net, path, extra_header=header)


def load_policy(path: str | Path) -> TimePolicy:
    """Read a policy checkpoint; a header unlike the one save_policy writes
    raises ValueError naming the path and the field."""
    net, header = load_checkpoint(path)
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: policy header {header!r} is not ASCII") from None
    fields = dict(item.partition("=")[::2] for item in text.split(";"))
    for key in ("layout", "d"):
        if key not in fields:
            raise ValueError(f"{path}: policy header {text!r} has no field {key!r}")
    d = fields["d"]
    if not d.isdigit() or feature_length(int(d)) != net.sizes[0]:
        raise ValueError(f"{path}: policy header field d={d!r} does not match the "
                         f"net's input size {net.sizes[0]} = 2d + 2")
    return TimePolicy(net, int(d), fields["layout"])
