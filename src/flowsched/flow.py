"""Flow-matching problem setup on Gaussian-mixture toy targets.

Time convention: t=1 is pure noise, t=0 is clean data. The noising path is
linear, x_t = t*eps + (1-t)*x0, so the regression target for the velocity
field is u = eps - x0 and Euler steps with negative time increments denoise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .nn import DenseNet, OptimizerState, Workspace, descend, header_fields
from .rng import RngStream

LOG_2PI = float(np.log(2.0 * np.pi))
IR_CLAMP = -10.0
_REF_MC_SAMPLES = 100_000
_REF_MC_SEED = 961748941
_REF_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Isotropic Gaussian mixture. complexity = number of components.

    The reward-centering constant ref_log_density is computed on first read
    and kept in the instance, so it lives as long as the target does; a
    target read_field_header returns holds the constant of its checkpoint.
    Targets compare and hash by identity, as the array fields have no
    equality that gives one bool."""

    means: np.ndarray   # (K, d)
    sigmas: np.ndarray  # (K,)
    weights: np.ndarray  # (K,), positive, sums to 1

    def __post_init__(self):
        try:
            means = np.atleast_2d(np.asarray(self.means, dtype=float))
        except ValueError:  # ragged rows make no array
            means = np.empty(0)
        if means.ndim != 2 or means.size == 0:  # [] and [[]] would be a d = 0 mixture
            raise ValueError(f"means must be K >= 1 rows of one length d >= 1, got {self.means!r}")
        sigmas, weights = (np.atleast_1d(np.asarray(a, dtype=float))
                           for a in (self.sigmas, self.weights))
        k = means.shape[0]
        if sigmas.shape != (k,) or weights.shape != (k,):
            raise ValueError(f"sigmas and weights must hold K = {k} values, one per row of means")
        if not all(np.all(np.isfinite(a)) for a in (means, sigmas, weights)):
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
        """log of the mixture density; x is (d,) or (n, d).

        Components-major: one row of n values per component, the squared
        distance summed over the dimensions one column at a time, left to
        right (the order numpy's sum takes for fewer than 8 terms), and only
        the sum over the K components taken as a last-axis reduction of a
        contiguous (n, K) array."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError(f"point dimension {pts.shape[1]} != target dimension {self.d}")
        sq = 0.0
        for col, mean_col in zip(pts.T, self.means.T):
            diff = col[None, :] - mean_col[:, None]
            sq = sq + diff * diff
        log_comp = (
            np.log(self.weights)[:, None]
            - 0.5 * self.d * (LOG_2PI + 2.0 * np.log(self.sigmas))[:, None]
            - 0.5 * (sq / (self.sigmas**2)[:, None])
        )
        peak = log_comp.max(axis=0)
        comp = np.ascontiguousarray(np.exp(log_comp - peak).T)
        out = peak + np.log(np.sum(comp, axis=1))
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n draws from the mixture, shape (n, d)."""
        idx = rng.choice(self.complexity, p=self.weights, size=n)
        z = rng.standard_normal((n, self.d))
        return self.means[idx] + self.sigmas[idx][:, None] * z

    @cached_property
    def ref_log_density(self) -> float:
        """Expected log-density under the target, the reward centering constant.

        Single-component targets have the closed form
        -(d/2)(ln(2*pi*sigma^2) + 1). Mixtures use the mean log-density of
        _REF_MC_SAMPLES draws from a fixed stream keyed by the target. The
        draws are sample's, in its stream order (every component index, then
        the normals row by row), but made in row blocks: only the indices, in
        the smallest integer type, and the log-densities are held whole.
        Every row's value, and so the mean, is unchanged by blocking.
        """
        if self.complexity == 1:
            s2 = float(self.sigmas[0]) ** 2
            return float(-0.5 * self.d * (LOG_2PI + np.log(s2) + 1.0))
        import hashlib  # here, not at the top: only mixture targets need it

        digest = hashlib.blake2b(self.key(), digest_size=8).digest()
        rng = RngStream(_REF_MC_SEED, int.from_bytes(digest, "little"))
        idx = np.empty(_REF_MC_SAMPLES, np.min_scalar_type(self.complexity - 1))
        log_d = np.empty(_REF_MC_SAMPLES)
        starts = range(0, _REF_MC_SAMPLES, _REF_BLOCK_ROWS)
        for i in starts:
            comp = idx[i:i + _REF_BLOCK_ROWS]
            comp[:] = rng.choice(self.complexity, p=self.weights, size=comp.size)
        for i in starts:
            comp = idx[i:i + _REF_BLOCK_ROWS]
            z = rng.standard_normal((comp.size, self.d))
            log_d[i:i + comp.size] = self.log_density(
                self.means[comp] + self.sigmas[comp][:, None] * z)
        return float(np.mean(log_d))


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


def toy_reward(y: np.ndarray, target: TargetSpec) -> float | np.ndarray:
    """Quality score of a final sample (d,), or of each row of a batch (n, d):
    centered log-density, clamped below.

    Centering by the target's expected log-density puts typical samples near
    0 and the mode of a standard normal at exactly +1.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite sample")
    ir = np.maximum(target.log_density(y) - target.ref_log_density, IR_CLAMP)
    return ir if y.ndim > 1 else float(ir)


def _target_fingerprint(target: TargetSpec) -> str:
    """blake2b of the target and of the Monte-Carlo size and seed, in hex: a
    stored constant is used only for the target and estimate it was made for."""
    import hashlib

    mc = _REF_MC_SAMPLES.to_bytes(8, "little") + _REF_MC_SEED.to_bytes(8, "little")
    return hashlib.blake2b(target.key() + mc, digest_size=16).hexdigest()


def field_header(target: TargetSpec) -> bytes:
    """The header of a velocity checkpoint trained on target, ASCII
    `target=<fingerprint>;ref_log_density=<float.hex()>`."""
    return (f"target={_target_fingerprint(target)};"
            f"ref_log_density={target.ref_log_density.hex()}").encode("ascii")


def read_field_header(header: bytes, target: TargetSpec, path) -> TargetSpec:
    """The target to score the velocity checkpoint at path with, given its
    header and the target it is configured for. An empty header (a
    checkpoint written before fields carried the constant) gives target
    itself; field_header's header for target gives a copy of target that
    holds the stored constant, so nothing is drawn for it. A header made for
    another target raises ValueError naming path and both fingerprints, as
    does one that is not ASCII, lacks a field or holds a value that is not a
    finite float in float.hex() form."""
    if not header:
        return target
    fields = header_fields(header, path, "velocity", ("target", "ref_log_density"))
    hex_value = fields["ref_log_density"]
    try:
        value = float.fromhex(hex_value)
        if not np.isfinite(value) or value.hex() != hex_value:
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: velocity header field ref_log_density={hex_value!r} "
                         f"is not a finite float in float.hex() form") from None
    fingerprint = _target_fingerprint(target)
    if fields["target"] != fingerprint:
        raise ValueError(f"{path}: velocity header is for target {fields['target']}, "
                         f"not this target {fingerprint}")
    headed = replace(target)
    headed.__dict__["ref_log_density"] = value  # where cached_property keeps its value
    return headed


def interpolate(x0: np.ndarray, eps: np.ndarray, t: float | np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Noising path x_t = t*eps + (1-t)*x0, written into out when given."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch {x0.shape} vs {eps.shape}")
    tv = np.asarray(t, dtype=float)
    if tv.size and (tv.min() < 0.0 or tv.max() > 1.0):  # NaN compares false: it passes
        raise ValueError("t must lie in [0, 1]")
    if tv.ndim == 1 and x0.ndim == 2:
        tv = tv[:, None]
    xt = np.multiply(tv, eps, out=out)
    xt += (1.0 - tv) * x0
    return xt


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
    if x.ndim == 2 and tv.ndim == 1:
        tv = tv[:, None]
    return _oracle_terms(x, tv, target)[0]


def _oracle_terms(x: np.ndarray, t: np.ndarray, target: TargetSpec):
    """(u, c, num, var_t, x - (1-t) mu) of oracle_velocity, c = num / var_t,
    at x and t broadcast against each other."""
    mu = target.means[0]
    s2 = float(target.sigmas[0]) ** 2
    var_t = t * t + (1.0 - t) ** 2 * s2
    num = t - (1.0 - t) * s2
    c = num / var_t
    centered = x - (1.0 - t) * mu
    return c * centered - mu, c, num, var_t, centered


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i of two (n, d) arrays, bit for bit (a
    row-wise sum or einsum may add the products in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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
                raise ValueError(f"learned field must map (d+1) inputs to d outputs, "
                                 f"not {self.net.sizes[0]} to {self.net.sizes[-1]}")
            self.d = self.net.sizes[-1]
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def workspace(self, n: int) -> Optional[Workspace]:
        """The net's workspace for up to n rows, None for the oracle (which
        takes none)."""
        return None if self.kind == "oracle" else self.net.workspace(n)

    def __call__(self, x: np.ndarray, t: float | np.ndarray,
                 work: Optional[Workspace] = None) -> np.ndarray:
        """The velocity at states x (d,) or (n, d) and times t. With work,
        this field's workspace for at least n rows of x (n, d), x and t are
        written into its input rows and the result is a view of its output
        rows, which the next call on work overwrites; the bits are the same."""
        if self.kind == "oracle":
            return oracle_velocity(x, t, self.target)
        if work is None:
            x = np.asarray(x, dtype=float)
            tv = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])[..., None]
            return self.net.forward(np.concatenate([x, tv], axis=-1))
        work = work.rows(len(x))
        work.inp[:, :-1] = x
        work.inp[:, -1] = t
        return self.net.forward_acts(work.inp, work)[-1]

    def velocity_vjp(self, x: np.ndarray, t: np.ndarray,
                     g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, g . dv/dx, g . dv/dt) row by row, for rows x (n, d), times t (n,)
        and cotangents g (n, d); shapes (n, d), (n, d) and (n,). Used when a
        loss is differentiated through the sampling path itself."""
        x, t, g = (np.asarray(a, dtype=float) for a in (x, t, g))
        if self.kind == "oracle":
            # du/dx is c(t) * I, and du/dt = c'(t) (x - (1-t) mu) + c(t) mu
            t = t[:, None]
            u, c, num, var_t, centered = _oracle_terms(x, t, self.target)
            s2 = float(self.target.sigmas[0]) ** 2
            dc = ((1.0 + s2) * var_t - num * (2.0 * t - 2.0 * (1.0 - t) * s2)) / (var_t * var_t)
            return u, c * g, row_dot(g, dc * centered + c * self.target.means[0])
        inp = np.concatenate([x, t[:, None]], axis=1)
        acts = self.net.forward_acts(inp)
        _, input_grad = self.net.backward(inp, g, acts, wrt_input=True)
        return acts[-1], input_grad[:, :-1], input_grad[:, -1]


def fm_loss(field: VelocityField, x0: np.ndarray, eps: np.ndarray,
            t: np.ndarray, work: Optional[Workspace] = None) -> tuple[float, np.ndarray]:
    """Conditional flow-matching loss and its gradient, laid out like theta.

    loss = mean over the batch of ||v(x_t, t) - (eps - x0)||^2. work is the
    net's workspace for the batch size (DenseNet.workspace; a fresh one when
    not given): x_t and t are written into its input rows, the residual and
    then the cotangent 2*resid/n into its output rows, and the gradient is
    work.grad, which the next call on work overwrites.
    """
    if field.kind != "learned":
        raise ValueError("fm_loss trains learned fields only")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n, d = x0.shape[0], field.d
    if n == 0:
        raise ValueError("empty batch")
    if x0.shape[1] != d or t.shape != (n,):
        raise ValueError(f"x0 of shape {x0.shape} and t of shape {t.shape} do not fit "
                         f"a batch of (n, {d}) rows and n times")
    if work is None:
        work = field.net.workspace(n)
    interpolate(x0, eps, t, out=work.inp[:, :d])
    work.inp[:, d] = t
    acts = field.net.forward_acts(work.inp, work)
    resid = acts[-1]  # backward reads no output rows, so they hold the residual
    resid -= eps - x0
    loss = float((resid * resid).sum(axis=1).sum() / n)  # np.mean's add-reduce, then divide
    resid *= 2.0
    resid /= n
    grad, _ = field.net.backward(work.inp, resid, acts, work)
    return loss, grad


def train_flow(field: VelocityField, target: TargetSpec, steps: int,
               rng: RngStream, batch_size: int = 256,
               lr: float = 1e-3) -> tuple[VelocityField, np.ndarray]:
    """Regress the velocity field on conditional flow-matching targets.

    Returns the trained field and the per-step loss curve. A non-finite loss
    raises nn.Diverged before that step writes theta. Every step reuses one
    workspace for the net's input, activations and backward buffers, and
    nn.descend updates theta in place.
    """
    if field.kind != "learned":
        raise ValueError("train_flow needs a learned field")
    d, net = field.d, field.net
    state = OptimizerState.for_params([net.theta], lr=lr)
    work = net.workspace(batch_size)
    losses = np.zeros(steps)
    for step in range(steps):
        x0 = target.sample(batch_size, rng)
        eps = rng.standard_normal((batch_size, d))
        t = rng.uniform(size=batch_size)
        loss, grad = fm_loss(field, x0, eps, t, work)
        descend(net, state, loss, grad)
        losses[step] = loss
    return field, losses


def make_velocity_net(d: int, hidden: tuple[int, ...], rng: RngStream) -> DenseNet:
    return DenseNet.init_random([d + 1, *hidden, d], rng)
