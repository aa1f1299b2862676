"""Per-step decay-rate policy for adaptive diffusion-time schedules.

A small dense net reads step features and emits two reals (a, b) that map to
Beta shape parameters alpha = 1 + e^a, beta = 1 + e^b, so the decay-rate
distribution is always unimodal on (0, 1). Each predicted rate multiplies the
current diffusion time: t_n = r_n * t_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .nn import DenseNet, load_checkpoint, save_checkpoint
from .rng import RngStream
from .special_math import BetaParams, beta_sample

RAW_PARAM_CLAMP = 30.0
FEATURE_LAYOUT = "state,velocity,t,t_squared"


def feature_length(d: int) -> int:
    return 2 * d + 2


def step_features(x: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """Feature vector [x, v, t, t^2], or one row per lane for states and
    velocities of shape (n, d) and t a scalar or (n,); the state is the point
    the velocity was evaluated at, so the pair carries the before/after signal
    of one step."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim not in (1, 2):
        raise ValueError("state and velocity must be equal-shape vectors or lane rows")
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])[..., None]
    outside = (t < 0.0) | (t > 1.0)
    if outside.any():
        raise ValueError(f"t={float(t[outside][0])} outside [0, 1]")
    return np.concatenate([x, v, t, t * t], axis=-1)


@dataclass
class TimePolicy:
    net: DenseNet
    d: int

    def __post_init__(self):
        if self.net.sizes[0] != feature_length(self.d):
            raise ValueError(
                f"policy input size {self.net.sizes[0]} != feature length {feature_length(self.d)}"
            )
        if self.net.sizes[-1] != 2:
            raise ValueError("policy must output exactly (a, b)")

    def copy(self) -> "TimePolicy":
        return TimePolicy(self.net.copy(), self.d)


def raw_to_shape(raw: np.ndarray) -> np.ndarray:
    """(a, b) -> (alpha, beta) with overflow-safe exp; always > 1."""
    clipped = np.clip(raw, -RAW_PARAM_CLAMP, RAW_PARAM_CLAMP)
    return 1.0 + np.exp(clipped)


def shape_grad_wrt_raw(raw: np.ndarray) -> np.ndarray:
    """d(alpha)/da elementwise; zero outside the clamp window."""
    inside = np.abs(raw) < RAW_PARAM_CLAMP
    return np.where(inside, np.exp(np.clip(raw, -RAW_PARAM_CLAMP, RAW_PARAM_CLAMP)), 0.0)


def tpm_params_batch(policy: TimePolicy, feats: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Vectorized (raw, alpha, beta, acts) over a feature matrix (n, 2d+2);
    acts are the net's activations, for a backward pass from raw."""
    acts = policy.net.forward_acts(feats)
    raw = acts[-1]
    ab = raw_to_shape(raw)
    return raw, ab[:, 0], ab[:, 1], acts


def predict_decay_batch(policy: TimePolicy, feats: np.ndarray,
                        rngs: Optional[Sequence[RngStream]],
                        deterministic: bool = False) -> np.ndarray:
    """Decay rate at each row of feats (n, 2d+2): the Beta mode, or a draw
    from stream rngs[i] for row i; rl scores it later from the features."""
    _, alpha, beta, _ = tpm_params_batch(policy, feats)
    if not np.all(np.isfinite(alpha) & np.isfinite(beta)):
        raise ValueError("Beta shapes must be finite")
    if deterministic:
        return (alpha - 1.0) / (alpha + beta - 2.0)
    return np.array([beta_sample(BetaParams(a, b), rng)
                     for a, b, rng in zip(alpha.tolist(), beta.tolist(), rngs)], dtype=float)


def predict_decay(policy: TimePolicy, feats: np.ndarray, rng: RngStream,
                  deterministic: bool = False) -> float:
    """predict_decay_batch at one feature vector."""
    return float(predict_decay_batch(policy, np.asarray(feats)[None, :], [rng],
                                     deterministic)[0])


def next_time(t_prev, r):
    """r * t_prev, elementwise over lanes; t_prev in (0, 1], r in (0, 1)."""
    t_arr, r_arr = np.asarray(t_prev), np.asarray(r)
    bad_t = ~((0.0 < t_arr) & (t_arr <= 1.0))
    if bad_t.any():
        raise ValueError(f"t_prev={float(t_arr[bad_t][0])} outside (0, 1]")
    bad_r = ~((0.0 < r_arr) & (r_arr < 1.0))
    if bad_r.any():
        raise ValueError(f"decay rate r={float(r_arr[bad_r][0])} outside (0, 1)")
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
    net.weights[-1][...] = 0.0
    if r_target >= 0.5:
        a = np.log((3.0 * r_target - 1.0) / (1.0 - r_target))
        b = 0.0
    else:
        a = 0.0
        b = np.log((2.0 - 3.0 * r_target) / r_target)
    net.biases[-1][...] = (a, b)
    return TimePolicy(net, d)


def save_policy(policy: TimePolicy, path: str | Path) -> None:
    header = f"layout={FEATURE_LAYOUT};d={policy.d}".encode("ascii")
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
    if fields["layout"] != FEATURE_LAYOUT:
        raise ValueError(f"{path}: policy header field layout={fields['layout']!r} is "
                         f"not the feature layout {FEATURE_LAYOUT!r}")
    try:
        return TimePolicy(net, int(d))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
