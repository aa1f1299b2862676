"""Minimal dense network with hand-rolled reverse-mode gradients.

Hidden layers use tanh, the output layer is linear. Parameters live in
float64 numpy arrays; forward/backward are pure given a parameter snapshot.
This is all the differentiable machinery the velocity field and the time
policy need, so there is no general autodiff graph.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .rng import RngStream

CHECKPOINT_MAGIC = b"FSNET\x00"
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


def _param_count(sizes: list[int]) -> int:
    """Parameters of a net with these layer sizes; ValueError if invalid."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    return sum((i + 1) * o for i, o in zip(sizes, sizes[1:]))


class DenseNet:
    """Fully connected tanh network. weights[i] has shape (fan_out, fan_in).

    All parameters live in one float64 vector theta, laid out as the
    checkpoint payload: per layer, W row-major, then b. weights, biases and
    parameters() are views into theta, so writes to a layer go in place
    (net.weights[0][...] = w); rebinding a layer raises TypeError.
    """

    def __init__(self, sizes: list[int]):
        """A net of zeros; init_random, copy and load_checkpoint fill theta."""
        self.sizes = list(sizes)
        self.theta = np.zeros(_param_count(self.sizes))

    @classmethod
    def init_random(cls, sizes: list[int], rng: RngStream) -> "DenseNet":
        """Xavier-scaled normal init, suited to the tanh hidden layers."""
        net = cls(sizes)
        for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            scale = 1.0 / np.sqrt(fan_in)
            net.weights[k][...] = rng.standard_normal((fan_out, fan_in)) * scale
        return net

    @property
    def theta(self) -> np.ndarray:
        """The parameter vector. Assigning binds the given float64 vector
        (not a copy) and fresh layer views into it."""
        return self._theta

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        theta = np.ascontiguousarray(value, dtype=float)
        if theta.shape != (_param_count(self.sizes),):
            raise ValueError(f"theta shape {theta.shape} does not match sizes {self.sizes}")
        self._theta = theta
        self._params = self.unflatten(theta)
        self._weights = tuple(self._params[0::2])
        self._biases = tuple(self._params[1::2])

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    @property
    def n_params(self) -> int:
        return self._theta.size

    def unflatten(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views [W0, b0, W1, b1, ...] of a vector laid out like theta."""
        out, off = [], 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            out.append(flat[off:off + fan_out * fan_in].reshape(fan_out, fan_in))
            off += fan_out * fan_in
            out.append(flat[off:off + fan_out])
            off += fan_out
        return out

    def parameters(self) -> list[np.ndarray]:
        """Views [W0, b0, W1, b1, ...] of theta; the same array objects until
        theta is rebound."""
        return list(self._params)

    def copy(self) -> "DenseNet":
        net = DenseNet(self.sizes)
        net.theta = self._theta.copy()
        return net

    def workspace(self, n: int) -> "Workspace":
        """Buffers for forward_acts and backward over batches of n rows, for a
        caller that repeats them at one batch size (train_flow), or of at
        most n rows through Workspace.rows (roll_lanes)."""
        grad = np.empty(self.n_params)
        return Workspace(self.sizes, n, np.empty((n, self.sizes[0])),
                         [np.empty((n, o)) for o in self.sizes[1:]],
                         [np.empty((n, i)) for i in self.sizes[:-1]],
                         [np.empty((n, h)) for h in self.sizes[1:-1]],
                         grad, self.unflatten(grad))

    def forward_acts(self, x: np.ndarray,
                     work: Optional["Workspace"] = None) -> list[np.ndarray]:
        """Activations [input, hidden..., output] of forward, each (batch, width)
        even for a single input (fan_in,); backward can reuse them.

        Every activation after the input is written into work.acts, so with
        a workspace they are views the next call on it overwrites; without
        one (out=None) numpy makes each fresh."""
        a = self._check_input(x)
        outs = self._fresh() if work is None else self._check_work(work, a.shape[0]).acts
        acts = [a]
        last = len(self._weights) - 1
        for k, (w, b, out) in enumerate(zip(self._weights, self._biases, outs)):
            a = np.matmul(a, w.T, out=out)
            a += b
            if k != last:
                np.tanh(a, out=a)
            acts.append(a)
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network. x is (fan_in,) or (batch, fan_in)."""
        out = self.forward_acts(x)[-1]
        return out if np.ndim(x) > 1 else out[0]

    def backward(self, x: np.ndarray, output_grad: np.ndarray,
                 acts: Optional[list[np.ndarray]] = None,
                 work: Optional["Workspace"] = None, *, wrt_input: bool = False):
        """Exact reverse-mode gradients of forward.

        Returns (grad, input_grad) where grad is laid out like theta (views
        by unflatten). Batched inputs sum parameter gradients over the batch.
        input_grad, the gradient with respect to x, is computed only with
        wrt_input (it costs one more product, delta @ W0); otherwise it is
        None. acts, when given, must be forward_acts(x) at the current theta;
        the forward pass is then not repeated. Only acts[:-1] is read, so a
        loss may build output_grad in place in the output rows acts[-1].
        grad, the products delta @ W and the tanh-gradient terms are written
        into work as forward_acts writes its activations, so with a workspace
        grad is work.grad (filled through work.grad_views) and input_grad a
        view of work.deltas[0], both overwritten by the next call.
        """
        if acts is None:
            acts = self.forward_acts(x, work)
        if work is None:
            deltas = squares = self._fresh()
        else:
            work = self._check_work(work, acts[0].shape[0])
            deltas, squares = work.deltas, work.squares
        out_g = np.asarray(output_grad, dtype=float)
        if out_g.ndim == 1:
            out_g = out_g[None, :]
        if out_g.shape != (acts[0].shape[0], self.sizes[-1]):
            raise ValueError(
                f"output_grad shape {output_grad.shape} does not match output size {self.sizes[-1]}"
            )
        if work is None:
            grad = np.empty(self.n_params)
            views = self.unflatten(grad)
        else:
            grad, views = work.grad, work.grad_views
        delta = out_g
        for k in range(len(self._weights) - 1, -1, -1):
            np.matmul(delta.T, acts[k], out=views[2 * k])
            np.add.reduce(delta, axis=0, out=views[2 * k + 1])  # np.sum's call, unwrapped
            if k > 0:
                delta = np.matmul(delta, self._weights[k], out=deltas[k])
                tanh_grad = np.square(acts[k], out=squares[k - 1])
                np.subtract(1.0, tanh_grad, out=tanh_grad)
                delta *= tanh_grad
        if not wrt_input:
            return grad, None
        input_grad = np.matmul(delta, self._weights[0], out=deltas[0])
        return grad, input_grad if np.ndim(x) > 1 else input_grad[0]

    def _fresh(self) -> list[None]:
        """One out=None per layer: numpy makes each buffer fresh."""
        return [None] * len(self._weights)

    def _check_work(self, work: "Workspace", n: int) -> "Workspace":
        if work.n != n or work.sizes != self.sizes:
            raise ValueError(f"workspace for {work.n} rows of sizes {work.sizes} "
                             f"used with {n} rows of sizes {self.sizes}")
        return work

    def _check_input(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        if a.ndim != 2 or a.shape[1] != self.sizes[0]:
            raise ValueError(f"input shape {np.shape(x)} does not match input size {self.sizes[0]}")
        return a


@dataclasses.dataclass(frozen=True)
class Workspace:
    """Buffers of DenseNet.forward_acts and backward for batches of n rows
    (DenseNet.workspace makes them):

    inp         (n, sizes[0])      input rows a caller may fill and pass as x;
    acts[k]     (n, sizes[k + 1])  the output of layer k;
    deltas[k]   (n, sizes[k])      backward's product delta @ W_k (deltas[0],
                                   the input gradient, only with wrt_input);
    squares[k]  (n, sizes[k + 1])  acts[k] ** 2 of hidden layer k, the
                                   tanh-gradient term;
    grad        (n_params,)        backward's parameter gradient;
    grad_views  [W0, b0, W1, ...]  its layer views (unflatten), made once
                                   here and shared by rows(m), so backward
                                   never rebuilds them.

    Reusing one across calls saves allocating arrays that, at batch 256 and
    width 64, sit exactly at glibc malloc's 128 KiB trim threshold, so each
    fresh one costs page faults; the arithmetic is the same. It has two
    users: train_flow runs every step at one batch size, and roll_lanes
    serves each step's shrinking set of running lanes from one workspace
    made for all of them (rows).
    """

    sizes: list[int]
    n: int
    inp: np.ndarray
    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    squares: list[np.ndarray]
    grad: np.ndarray
    grad_views: list[np.ndarray]

    def rows(self, m: int) -> "Workspace":
        """The workspace for batches of m <= n rows: views of the first m rows
        of every buffer (grad and its views are shared whole); this one
        when m == n."""
        if m == self.n:
            return self
        if not 0 <= m <= self.n:
            raise ValueError(f"{m} rows asked of a workspace for {self.n}")
        return Workspace(self.sizes, m, self.inp[:m], [a[:m] for a in self.acts],
                         [a[:m] for a in self.deltas], [a[:m] for a in self.squares],
                         self.grad, self.grad_views)


@dataclasses.dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameter list. Two scratch
    vectors per parameter array, made once here, hold adamw_step's
    intermediate terms."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 1e-5
    scratch: list[tuple[np.ndarray, np.ndarray]] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-5) -> "OptimizerState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], lr=lr)


def adamw_step(params: list[np.ndarray], grads: list[np.ndarray],
               state: OptimizerState) -> tuple[list[np.ndarray], OptimizerState]:
    """One Adam update with bias correction (AdamW with zero weight decay,
    the only value any caller used), betas (ADAM_BETA1, ADAM_BETA2).

    In place: every params array, state.m and state.v are overwritten and
    state.step advances; returns (params, state), the same objects. The
    gradients are checked first, so a non-finite one raises ValueError with
    nothing written. Each update runs the ufuncs of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p - lr*((m/bc1)/(sqrt(v/bc2) + eps)) in that order on the state's
    scratch vectors, so its bits are those of the expressions.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state length mismatch")
    for p, g in zip(params, grads):
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient passed to adamw_step")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)
        b /= a
        b *= state.lr
        p -= b
    return params, state


class Diverged(RuntimeError):
    """A trainer's numbers went non-finite; the message, "diverged: " and
    the quantity, names it. The one divergence signal: train_tpm rolls back
    on it, and every other caller lets it end the run."""


def descend(net: DenseNet, state: OptimizerState, loss: float, grad: np.ndarray,
            max_norm: Optional[float] = None) -> Optional[float]:
    """The optimizer step of every trainer: adamw_step of net.theta along
    grad (laid out like theta), after clip_global_norm to max_norm when one
    is given; returns the norm before clipping, None without max_norm.

    A non-finite loss, or with max_norm a non-finite gradient norm (which
    a finite gradient gives when its squared norm overflows), raises
    Diverged before grad, theta or state is written. Without max_norm the
    gradient is not read here: adamw_step refuses a non-finite one with
    ValueError, again before writing anything.
    """
    if not math.isfinite(loss):
        raise Diverged(f"diverged: loss {loss} at optimizer step {state.step}")
    norm = None if max_norm is None else clip_global_norm(net.unflatten(grad), max_norm)
    if norm is not None and not math.isfinite(norm):
        raise Diverged(f"diverged: gradient norm {norm} at optimizer step {state.step}")
    adamw_step([net.theta], [grad], state)
    return norm


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most
    max_norm; returns the norm before clipping. Per-layer views of one flat
    gradient (DenseNet.unflatten) clip that gradient. A non-finite norm
    leaves them as they are, for the caller to refuse."""
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if max_norm < norm < np.inf:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def save_checkpoint(net: DenseNet, path: str | Path, extra_header: bytes = b"") -> None:
    """Write the documented binary checkpoint format.

    Layout: magic, u32 version, u32 header length + header bytes,
    u32 layer count, u32 layer sizes, then theta (per layer the weight
    matrix, row-major, and the bias vector) as little-endian float64.
    """
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(extra_header)))
    buf.write(extra_header)
    buf.write(struct.pack("<I", len(net.sizes)))
    for s in net.sizes:
        buf.write(struct.pack("<I", s))
    buf.write(net.theta.astype("<f8").tobytes())
    write_atomic(path, buf.getvalue())


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write data (str as UTF-8) beside path, then rename it over path: a
    killed run leaves the previous file, never a truncated one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return repr(float(v))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table through write_atomic: the header row, then one line
    per row, each ending in a newline (LF, no CR). A None cell is blank, a str
    or an integer is written with str, anything else as repr(float(v)), the
    shortest text that float() reads back exactly."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    write_atomic(path, "\n".join(lines) + "\n")


def header_fields(header: bytes, path: str | Path, kind: str,
                  names: Sequence[str]) -> dict[str, str]:
    """The fields of an ASCII checkpoint header `name=value;name=value`, as
    save_policy and flow.field_header write it; ValueError naming path and
    the kind of checkpoint if it is not ASCII or lacks one of names."""
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: {kind} header {header!r} is not ASCII") from None
    fields = dict(item.partition("=")[::2] for item in text.split(";"))
    for name in names:
        if name not in fields:
            raise ValueError(f"{path}: {kind} header {text!r} has no field {name!r}")
    return fields


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
        n_params = _param_count(sizes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # checked against the bytes left before anything of that size is allocated
    theta = np.frombuffer(take(8 * n_params), dtype="<f8").astype(float)
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes after the checkpoint")
    net = DenseNet(sizes)
    net.theta = theta
    return net, header
