"""Minimal dense network with hand-rolled reverse-mode gradients.

Hidden layers use tanh, the output layer is linear. Parameters live in
float64 numpy arrays; forward/backward are pure given a parameter snapshot.
This is all the differentiable machinery the velocity field and the time
policy need, so there is no general autodiff graph.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import RngStream

CHECKPOINT_MAGIC = b"FSNET\x00"
CHECKPOINT_VERSION = 1


@dataclass
class DenseNet:
    """Fully connected tanh network. weights[i] has shape (fan_out, fan_in)."""

    sizes: list[int]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ValueError(f"invalid layer sizes {self.sizes}")
        if not self.weights:
            self.weights = [
                np.zeros((o, i), dtype=float) for i, o in zip(self.sizes, self.sizes[1:])
            ]
            self.biases = [np.zeros(o, dtype=float) for o in self.sizes[1:]]

    @classmethod
    def init_random(cls, sizes: list[int], rng: RngStream) -> "DenseNet":
        """Xavier-scaled normal init, suited to the tanh hidden layers."""
        net = cls(sizes)
        for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            net.weights[k] = rng.standard_normal((fan_out, fan_in)) * scale
        return net

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...]; order matches gradients()."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        for k in range(len(self.weights)):
            self.weights[k] = params[2 * k]
            self.biases[k] = params[2 * k + 1]

    def copy(self) -> "DenseNet":
        return DenseNet(
            list(self.sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network. x is (fan_in,) or (batch, fan_in)."""
        a = self._check_input(x)
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
            if k != last:
                a = np.tanh(a)
        return a if x.ndim > 1 else a[0]

    def backward(self, x: np.ndarray, output_grad: np.ndarray):
        """Exact reverse-mode gradients of forward.

        Returns (param_grads, input_grad) where param_grads matches
        parameters() in order and shape. Batched inputs sum parameter
        gradients over the batch.
        """
        a = self._check_input(x)
        out_g = np.asarray(output_grad, dtype=float)
        if out_g.ndim == 1:
            out_g = out_g[None, :]
        if out_g.shape != (a.shape[0], self.sizes[-1]):
            raise ValueError(
                f"output_grad shape {output_grad.shape} does not match output size {self.sizes[-1]}"
            )
        acts = [a]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
            if k != last:
                a = np.tanh(a)
            acts.append(a)
        grads: list[np.ndarray | None] = [None] * (2 * len(self.weights))
        delta = out_g
        for k in range(last, -1, -1):
            grads[2 * k] = delta.T @ acts[k]
            grads[2 * k + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[k]
            if k > 0:
                delta = delta * (1.0 - acts[k] ** 2)  # tanh'
        input_grad = delta if np.asarray(x).ndim > 1 else delta[0]
        return grads, input_grad

    def _check_input(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        if a.ndim != 2 or a.shape[1] != self.sizes[0]:
            raise ValueError(f"input shape {np.shape(x)} does not match input size {self.sizes[0]}")
        return a


@dataclass
class OptimizerState:
    """AdamW accumulators; shapes mirror the parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 0.0
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-5,
                   betas: tuple[float, float] = (0.9, 0.99),
                   weight_decay: float = 0.0) -> "OptimizerState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
            beta1=betas[0],
            beta2=betas[1],
            weight_decay=weight_decay,
        )


def adamw_step(params: list[np.ndarray], grads: list[np.ndarray],
               state: OptimizerState) -> tuple[list[np.ndarray], OptimizerState]:
    """One AdamW update with bias correction and decoupled weight decay.

    Pure: returns fresh parameter arrays and a fresh state.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state length mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient passed to adamw_step")
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p = p - state.lr * (update + state.weight_decay * p)
        new_params.append(p)
        new_m.append(m)
        new_v.append(v)
    new_state = OptimizerState(
        m=new_m, v=new_v, step=t, lr=state.lr, beta1=state.beta1,
        beta2=state.beta2, weight_decay=state.weight_decay, eps=state.eps,
    )
    return new_params, new_state


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if norm <= max_norm:
        return [g.copy() for g in grads]
    scale = max_norm / norm
    return [g * scale for g in grads]


def save_checkpoint(net: DenseNet, path: str | Path, extra_header: bytes = b"") -> None:
    """Write the documented binary checkpoint format.

    Layout: magic, u32 version, u32 header length + header bytes,
    u32 layer count, u32 layer sizes, then per layer the weight matrix
    (row-major) and bias vector as little-endian float64.
    """
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(extra_header)))
    buf.write(extra_header)
    buf.write(struct.pack("<I", len(net.sizes)))
    for s in net.sizes:
        buf.write(struct.pack("<I", s))
    for w, b in zip(net.weights, net.biases):
        buf.write(w.astype("<f8").tobytes(order="C"))
        buf.write(b.astype("<f8").tobytes(order="C"))
    # write beside the target, then rename over it: a killed run leaves the
    # previous checkpoint, never a truncated one
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[DenseNet, bytes]:
    """Read a checkpoint; returns (net, extra_header).

    A file that is not exactly one checkpoint (bad magic or version,
    truncated anywhere, trailing bytes) raises ValueError naming the path.
    """
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a flowsched checkpoint")
    off = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
        off += n
        return raw[off - n : off]

    version, = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    hlen, = struct.unpack("<I", take(4))
    header = take(hlen)
    n_layers, = struct.unpack("<I", take(4))
    sizes = list(struct.unpack(f"<{n_layers}I", take(4 * n_layers)))
    try:
        net = DenseNet(sizes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        w = np.frombuffer(take(8 * fan_in * fan_out), dtype="<f8")
        b = np.frombuffer(take(8 * fan_out), dtype="<f8")
        net.weights[k] = w.reshape(fan_out, fan_in).astype(float)
        net.biases[k] = b.astype(float)
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes after the checkpoint")
    return net, header
