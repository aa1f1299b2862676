"""Flow-matching problem setup on Gaussian-mixture toy targets.

Time convention: t=1 is pure noise, t=0 is clean data. The noising path is
linear, x_t = t*eps + (1-t)*x0, so the regression target for the velocity
field is u = eps - x0 and Euler steps with negative time increments denoise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import DenseNet, OptimizerState, adamw_step
from .rng import RngStream

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class TargetSpec:
    """Isotropic Gaussian mixture. complexity = number of components."""

    means: np.ndarray   # (K, d)
    sigmas: np.ndarray  # (K,)
    weights: np.ndarray  # (K,), positive, sums to 1

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if means.ndim != 2 or sigmas.ndim != 1 or weights.ndim != 1:
            raise ValueError("means must be (K, d); sigmas and weights must be (K,)")
        k = means.shape[0]
        if sigmas.shape[0] != k or weights.shape[0] != k or k < 1:
            raise ValueError("component counts disagree")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sigmas))
                and np.all(np.isfinite(weights))):
            raise ValueError("non-finite mixture parameters")
        if np.any(sigmas <= 0.0):
            raise ValueError("sigmas must be positive")
        if np.any(weights <= 0.0) or abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def complexity(self) -> int:
        return self.means.shape[0]

    def key(self) -> bytes:
        return self.means.tobytes() + self.sigmas.tobytes() + self.weights.tobytes()

    def log_density(self, x: np.ndarray) -> np.ndarray | float:
        """log of the mixture density; x is (d,) or (n, d)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError(f"point dimension {pts.shape[1]} != target dimension {self.d}")
        diff = pts[:, None, :] - self.means[None, :, :]
        sq = np.sum(diff * diff, axis=2) / (self.sigmas**2)[None, :]
        log_comp = (
            np.log(self.weights)[None, :]
            - 0.5 * self.d * (LOG_2PI + 2.0 * np.log(self.sigmas))[None, :]
            - 0.5 * sq
        )
        peak = log_comp.max(axis=1, keepdims=True)
        out = peak[:, 0] + np.log(np.sum(np.exp(log_comp - peak), axis=1))
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n draws from the mixture, shape (n, d)."""
        idx = rng.choice(self.complexity, p=self.weights, size=n)
        z = rng.standard_normal((n, self.d))
        return self.means[idx] + self.sigmas[idx][:, None] * z

    def to_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "sigmas": self.sigmas.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetSpec":
        return cls(
            means=np.array(data["means"], dtype=float),
            sigmas=np.array(data["sigmas"], dtype=float),
            weights=np.array(data["weights"], dtype=float),
        )


def standard_normal_target(d: int = 2) -> TargetSpec:
    return TargetSpec(np.zeros((1, d)), np.ones(1), np.ones(1))


def single_gaussian_target(mean, sigma: float) -> TargetSpec:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return TargetSpec(mean[None, :], np.array([float(sigma)]), np.ones(1))


def ring_mixture_target(n_components: int, radius: float = 2.0,
                        sigma: float = 0.35) -> TargetSpec:
    """Equal-weight components spaced on a circle; complexity knob for sweeps."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if n_components == 1:
        return single_gaussian_target(np.array([radius, 0.0]), sigma)
    angles = 2.0 * np.pi * np.arange(n_components) / n_components
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return TargetSpec(means, np.full(n_components, float(sigma)),
                      np.full(n_components, 1.0 / n_components))


_REF_LOG_DENSITY_CACHE: dict[bytes, float] = {}
_REF_MC_SAMPLES = 100_000
_REF_MC_SEED = 961748941
_REF_BLOCK_ROWS = 8192


def ref_log_density(target: TargetSpec) -> float:
    """Expected log-density under the target, the reward centering constant.

    Single-component targets have the closed form -(d/2)(ln(2*pi*sigma^2) + 1);
    mixtures use a Monte-Carlo estimate from a fixed internal stream, computed
    once per target and cached so the constant is frozen for a whole run.
    """
    key = target.key()
    if key not in _REF_LOG_DENSITY_CACHE:
        if target.complexity == 1:
            s2 = float(target.sigmas[0]) ** 2
            val = -0.5 * target.d * (LOG_2PI + np.log(s2) + 1.0)
        else:
            digest = hashlib.blake2b(key, digest_size=8).digest()
            rng = RngStream(_REF_MC_SEED, int.from_bytes(digest, "little"))
            pts = target.sample(_REF_MC_SAMPLES, rng)
            # in row blocks, so the (rows, K, d) intermediates stay small;
            # every row's value, and so the mean, is unchanged by blocking
            val = float(np.mean(np.concatenate([
                target.log_density(pts[i:i + _REF_BLOCK_ROWS])
                for i in range(0, _REF_MC_SAMPLES, _REF_BLOCK_ROWS)])))
        _REF_LOG_DENSITY_CACHE[key] = float(val)
    return _REF_LOG_DENSITY_CACHE[key]


def interpolate(x0: np.ndarray, eps: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Noising path x_t = t*eps + (1-t)*x0."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {eps.shape}")
    tv = np.asarray(t, dtype=float)
    if np.any(tv < 0.0) or np.any(tv > 1.0):
        raise ValueError("t must lie in [0, 1]")
    if tv.ndim == 1 and x0.ndim == 2:
        tv = tv[:, None]
    return tv * eps + (1.0 - tv) * x0


def oracle_velocity(x: np.ndarray, t: float | np.ndarray,
                    target: TargetSpec) -> np.ndarray:
    """Exact marginal velocity E[eps - x0 | x_t = x] for one-component targets.

    With x0 ~ N(mu, sigma^2 I) the pair (eps - x0, x_t) is jointly Gaussian,
    and conditioning gives u(x, t) = c(t) (x - (1-t) mu) - mu with
    c(t) = (t - (1-t) sigma^2) / (t^2 + (1-t)^2 sigma^2).
    """
    if target.complexity != 1:
        raise ValueError("oracle velocity exists only for single-component targets")
    x = np.asarray(x, dtype=float)
    tv = np.asarray(t, dtype=float)
    if np.any(tv < 0.0) or np.any(tv > 1.0):
        raise ValueError("t must lie in [0, 1]")
    mu = target.means[0]
    s2 = float(target.sigmas[0]) ** 2
    var_t = tv**2 + (1.0 - tv) ** 2 * s2
    c = (tv - (1.0 - tv) * s2) / var_t
    if x.ndim == 2 and np.ndim(c) == 1:
        c = c[:, None]
        tv = tv[:, None]
    return c * (x - (1.0 - tv) * mu) - mu


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i of two (n, d) arrays, bit for bit (a
    row-wise sum or einsum may add the products in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _oracle_velocity_time_grad(x: np.ndarray, t: np.ndarray,
                               target: TargetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, du/dx scalar factor, du/dt) of the single-Gaussian oracle field at
    rows x (n, d) and times t (n,); shapes (n, d), (n, 1) and (n, d).

    du/dx is c(t) * I, so only the scalar c of each row is returned.
    """
    mu = target.means[0]
    s2 = float(target.sigmas[0]) ** 2
    t = t[:, None]
    var_t = t * t + (1.0 - t) ** 2 * s2
    dvar = 2.0 * t - 2.0 * (1.0 - t) * s2
    num = t - (1.0 - t) * s2
    c = num / var_t
    dc = ((1.0 + s2) * var_t - num * dvar) / (var_t * var_t)
    u = c * (x - (1.0 - t) * mu) - mu
    du_dt = dc * (x - (1.0 - t) * mu) + c * mu
    return u, c, du_dt


@dataclass
class VelocityField:
    """Either the closed-form oracle for a single Gaussian or a trained net.

    Learned nets take the raw time appended to the state: input (d+1,) -> (d,).
    """

    kind: str  # "oracle" | "learned"
    target: Optional[TargetSpec] = None
    net: Optional[DenseNet] = None

    def __post_init__(self):
        if self.kind == "oracle":
            if self.target is None:
                raise ValueError("oracle field needs a target")
            if self.target.complexity != 1:
                raise ValueError("oracle velocity exists only for single-component targets")
            self.d = self.target.d
        elif self.kind == "learned":
            if self.net is None:
                raise ValueError("learned field needs a net")
            if self.net.sizes[0] != self.net.sizes[-1] + 1:
                raise ValueError("learned field must map (d+1) inputs to d outputs")
            self.d = self.net.sizes[-1]
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def __call__(self, x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        if self.kind == "oracle":
            return oracle_velocity(x, t, self.target)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.net.forward(np.concatenate([x, [float(t)]]))
        tv = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return self.net.forward(np.concatenate([x, tv[:, None]], axis=1))

    def velocity_vjp(self, x: np.ndarray, t: np.ndarray,
                     g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, g . dv/dx, g . dv/dt) row by row, for rows x (n, d), times t (n,)
        and cotangents g (n, d); shapes (n, d), (n, d) and (n,). Used when a
        loss is differentiated through the sampling path itself."""
        x, t, g = (np.asarray(a, dtype=float) for a in (x, t, g))
        if self.kind == "oracle":
            u, c, du_dt = _oracle_velocity_time_grad(x, t, self.target)
            return u, c * g, row_dot(g, du_dt)
        inp = np.concatenate([x, t[:, None]], axis=1)
        acts = self.net.forward_acts(inp)
        _, input_grad = self.net.backward(inp, g, acts)
        return acts[-1], input_grad[:, :-1], input_grad[:, -1]


def fm_loss(field: VelocityField, x0: np.ndarray, eps: np.ndarray,
            t: np.ndarray) -> tuple[float, np.ndarray]:
    """Conditional flow-matching loss and its gradient, laid out like theta.

    loss = mean over the batch of ||v(x_t, t) - (eps - x0)||^2.
    """
    if field.kind != "learned":
        raise ValueError("fm_loss trains learned fields only")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = x0.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    xt = interpolate(x0, eps, t)
    u = eps - x0
    inp = np.concatenate([xt, t[:, None]], axis=1)
    acts = field.net.forward_acts(inp)
    resid = acts[-1] - u
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    grad, _ = field.net.backward(inp, 2.0 * resid / n, acts)
    return loss, grad


def eval_fm_loss(field: VelocityField, x0: np.ndarray, eps: np.ndarray,
                 t: np.ndarray) -> float:
    """Loss of any field (oracle included) on a fixed batch, no gradients."""
    xt = interpolate(x0, eps, t)
    u = eps - x0
    v = field(xt, t)
    resid = v - u
    return float(np.mean(np.sum(resid * resid, axis=1)))


def train_flow(field: VelocityField, target: TargetSpec, steps: int,
               rng: RngStream, batch_size: int = 256,
               lr: float = 1e-3) -> tuple[VelocityField, np.ndarray]:
    """Regress the velocity field on conditional flow-matching targets.

    Returns the trained field and the per-step loss curve. A non-finite loss
    aborts immediately rather than writing junk parameters.
    """
    if field.kind != "learned":
        raise ValueError("train_flow needs a learned field")
    d, net = field.d, field.net
    state = OptimizerState.for_params([net.theta], lr=lr)
    losses = np.zeros(steps)
    for step in range(steps):
        x0 = target.sample(batch_size, rng)
        eps = rng.standard_normal((batch_size, d))
        t = rng.uniform(size=batch_size)
        loss, grad = fm_loss(field, x0, eps, t)
        if not np.isfinite(loss):
            raise RuntimeError(f"flow training diverged at step {step}: loss={loss}")
        [net.theta], state = adamw_step([net.theta], [grad], state)
        losses[step] = loss
    return field, losses


def make_velocity_net(d: int, hidden: tuple[int, ...], rng: RngStream) -> DenseNet:
    return DenseNet.init_random([d + 1, *hidden, d], rng)
