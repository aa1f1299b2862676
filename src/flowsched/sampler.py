"""One lockstep Euler loop for every schedule: policy-scheduled, grid-quantized,
fixed uniform and fixed timeshifted.

All schedules run from t=1 (noise) down to t=0 (data), every lane of a batch
in the same loop (roll_lanes). An adaptive step makes one velocity
evaluation per lane and reuses it for both the policy features and the Euler
update, so the schedule policy adds only its own small forward pass.

Termination: the Beta decay never reaches 0 exactly, so once a predicted time
falls below t_min (or the step budget is hit) the sampler takes a forced final
jump straight to t=0. The forced jump is a real Euler step counted in N, but
the prediction that triggered it is discarded, so len(decay_rates) = N - 1
unless the discrete grid terminated exactly at 0.

Each kept rate is recorded with its features and scored afterwards by the one
array log-density path in rl (Rollouts.from_lanes, step_log_probs).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .flow import VelocityField
from .nn import write_atomic
from .policy import (TimePolicy, feature_length, next_time, predict_decay_batch,
                     step_features)
from .rng import RngStream

MODES = ("adaptive", "fixed-uniform", "fixed-shifted", "discrete-adaptive")


class GridExhausted(RuntimeError):
    """Raised when the discrete time grid cannot decrease further."""


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "adaptive"
    t_min: float = 0.01
    n_max: int = 40
    fixed_n: Optional[int] = None
    shift: float = 3.0
    grid_size: int = 1000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.t_min <= 0.1:
            raise ValueError(f"t_min={self.t_min} outside (0, 0.1]")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.grid_size < 10:
            raise ValueError("grid_size must be >= 10")
        if self.mode.startswith("fixed") and (self.fixed_n is None or self.fixed_n < 1):
            raise ValueError("fixed modes need fixed_n >= 1")
        if self.shift <= 0.0:
            raise ValueError("shift must be positive")


@dataclass
class Trajectory:
    times: list[float]
    states: list[np.ndarray]
    decay_rates: list[float]
    features: list[np.ndarray]

    @property
    def final_sample(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def validate(self) -> None:
        if self.times[0] != 1.0 or self.times[-1] != 0.0:
            raise ValueError("times must start at 1 and end at 0")
        if any(b <= a for a, b in zip(self.times[1:], self.times[:-1])):
            raise ValueError("times must be strictly decreasing")
        if len(self.states) != len(self.times):
            raise ValueError("one state per time required")
        if not all(np.all(np.isfinite(s)) for s in self.states):
            raise ValueError("non-finite state in trajectory")
        n_pred = len(self.decay_rates)
        if len(self.features) != n_pred:
            raise ValueError("decay_rates and features must align")
        if n_pred != 0 and n_pred not in (self.n_steps - 1, self.n_steps):
            raise ValueError("prediction count must be N-1 (forced jump) or N")


def quantize_times(t: np.ndarray, grid_size: int,
                   prev_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap each t to the nearest point of the grid {i/T}, forcing strict decrease.

    prev_index holds each lane's grid position of its previous time; landing
    at or above it is pushed down one notch. A lane at index 0 would need a
    time below the grid, which is a termination condition (GridExhausted).
    """
    t = np.asarray(t, dtype=float)
    prev_index = np.asarray(prev_index)
    outside = (t < 0.0) | (t > 1.0)
    if outside.any():
        raise ValueError(f"t={float(t[outside][0])} outside [0, 1]")
    if np.any(prev_index == 0):
        raise GridExhausted("time grid cannot decrease below index 0")
    index = np.clip(np.floor(t * grid_size + 0.5).astype(np.int64), 0, grid_size)
    index = np.minimum(index, prev_index - 1)
    return index / grid_size, index


def timeshift(t: float, shift: float) -> float:
    """Timeshift map t -> shift*t / (1 + (shift-1)*t); identity at shift=1,
    endpoint-preserving, pushes interior times toward 1 for shift > 1."""
    return shift * t / (1.0 + (shift - 1.0) * t)


def _time_table(cfg: ScheduleConfig) -> list[float]:
    """The times a fixed schedule evaluates the field at, from 1 down to 0."""
    n = cfg.fixed_n
    times = [(n - k) / n for k in range(n + 1)]
    if cfg.mode == "fixed-shifted":
        times = [timeshift(t, cfg.shift) for t in times]
    return times


@dataclass
class Lanes:
    """n trajectories rolled in lockstep, padded with NaN. Lane i took
    n_steps[i] Euler steps through times[i, :n_steps[i] + 1] and
    states[i, :n_steps[i] + 1], and kept its first n_kept[i] predictions,
    rates[i, :n_kept[i]] at features feats[i, :n_kept[i]] (None in fixed
    modes)."""

    times: np.ndarray
    states: np.ndarray
    n_steps: np.ndarray
    n_kept: np.ndarray
    rates: Optional[np.ndarray] = None
    feats: Optional[np.ndarray] = None

    @property
    def finals(self) -> np.ndarray:
        return self.states[np.arange(len(self.n_steps)), self.n_steps]

    @classmethod
    def concat(cls, parts: Sequence["Lanes"]) -> "Lanes":
        """The lanes of parts in order, which must share one step budget."""
        return cls(*(None if getattr(parts[0], f.name) is None
                     else np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))

    def trajectories(self) -> list[Trajectory]:
        """One Trajectory per lane, over views of the padded paths."""
        adaptive = self.rates is not None
        return [Trajectory(self.times[i, :n + 1].tolist(), list(self.states[i, :n + 1]),
                           self.rates[i, :p].tolist() if adaptive else [],
                           list(self.feats[i, :p]) if adaptive else [])
                for i, (n, p) in enumerate(zip(self.n_steps.tolist(),
                                               self.n_kept.tolist()))]


def roll_lanes(velocity_field: VelocityField, cfg: ScheduleConfig,
               streams: Optional[Sequence[RngStream]] = None,
               noise: Optional[np.ndarray] = None,
               policy: Optional[TimePolicy] = None,
               deterministic: bool = False) -> Lanes:
    """Roll one trajectory per lane from t=1 to t=0 in one lockstep Euler loop.

    Every step makes one batched field forward over the lanes still running.
    Adaptive modes add one batched policy forward and draw each lane's rate
    from its own stream streams[i], in the order a lone trajectory would:
    its initial noise when noise is None, then gamma(alpha), gamma(beta) per
    prediction. The t_min forced jump, the grid and the step budget act as
    masks, so a lane's draws and step count do not depend on the other lanes
    (the batched matmuls can move the last bits). Fixed modes walk a time
    table and draw nothing once noise is given.
    """
    d = velocity_field.d
    fixed = cfg.mode.startswith("fixed")
    if noise is None and streams is None:
        raise ValueError("lanes need initial noise or one stream per lane")
    if noise is None:
        noise = np.array([s.standard_normal(d) for s in streams]).reshape(-1, d)
    x = np.array(noise, dtype=float)
    n = len(x)
    if x.shape != (n, d):
        raise ValueError(f"initial noise shape {x.shape} != ({n}, {d})")
    if not fixed and policy is None:
        raise ValueError(f"mode {cfg.mode!r} needs a policy")
    if not (fixed or deterministic) and (streams is None or len(streams) != n):
        raise ValueError("stochastic adaptive lanes need one stream per lane")
    table = _time_table(cfg) if fixed else None
    budget = cfg.fixed_n if fixed else cfg.n_max
    lanes = Lanes(np.full((n, budget + 1), np.nan), np.full((n, budget + 1, d), np.nan),
                  np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    lanes.times[:, 0], lanes.states[:, 0] = 1.0, x
    if not fixed:
        lanes.rates = np.full((n, budget), np.nan)
        lanes.feats = np.full((n, budget, feature_length(d)), np.nan)

    # the running lanes: their ids, states, times, grid indices and streams
    idx = np.arange(n)
    t = np.full(n, table[0] if fixed else 1.0)
    grid = np.full(n, cfg.grid_size)
    live_streams = streams
    for k in range(budget):
        v = velocity_field(x, t)
        _check_finite(v, "velocity field produced a non-finite value at t={}", t)
        if fixed:
            t_next = np.full(len(idx), table[k + 1])
        elif k == cfg.n_max - 1:
            t_next = np.zeros(len(idx))  # the budget's last step, no policy
        else:
            feats = step_features(x, v, t)
            r = predict_decay_batch(policy, feats, live_streams, deterministic)
            t_next = next_time(t, r)
            if cfg.mode == "discrete-adaptive":
                t_next, grid = quantize_times(t_next, cfg.grid_size, grid)
            # a prediction landing in (0, t_min) is dropped for a forced jump
            # to 0; the rest are kept, including a grid prediction that lands
            # exactly on 0
            kept = ~((0.0 < t_next) & (t_next < cfg.t_min))
            t_next[~kept] = 0.0
            lanes.n_kept[idx[kept]] += 1
            lanes.rates[idx[kept], k] = r[kept]
            lanes.feats[idx[kept], k] = feats[kept]
        x = x + (t_next - t)[:, None] * v
        _check_finite(x, f"sampler produced a non-finite state at t={{}} after {k + 1} steps",
                      t_next)
        lanes.times[idx, k + 1] = t_next
        lanes.states[idx, k + 1] = x
        live = t_next > 0.0
        lanes.n_steps[idx[~live]] = k + 1
        if not live.any():
            break
        idx, x, t, grid = idx[live], x[live], t_next[live], grid[live]
        if live_streams is not None:
            live_streams = [s for s, keep in zip(live_streams, live) if keep]
    return lanes


def _check_finite(a: np.ndarray, message: str, t: np.ndarray) -> None:
    """Raise RuntimeError naming the time of the first lane with a non-finite row."""
    bad = ~np.all(np.isfinite(a), axis=1)
    if bad.any():
        raise RuntimeError(message.format(float(t[bad][0])))


def sample_adaptive(policy: TimePolicy, velocity_field: VelocityField,
                    cfg: ScheduleConfig, rng: RngStream,
                    initial_noise: Optional[np.ndarray] = None,
                    deterministic: bool = False) -> Trajectory:
    """Roll one trajectory under the decay policy (continuous or grid mode)."""
    if cfg.mode not in ("adaptive", "discrete-adaptive"):
        raise ValueError(f"sample_adaptive needs an adaptive mode, got {cfg.mode!r}")
    noise = None if initial_noise is None else np.asarray(initial_noise, dtype=float)[None]
    return roll_lanes(velocity_field, cfg, [rng], noise, policy,
                      deterministic).trajectories()[0]


def sample_fixed(velocity_field: VelocityField, cfg: ScheduleConfig,
                 rng: RngStream,
                 initial_noise: Optional[np.ndarray] = None) -> Trajectory:
    """Fixed N-step baseline, uniform or timeshifted."""
    if cfg.mode not in ("fixed-uniform", "fixed-shifted"):
        raise ValueError(f"sample_fixed needs a fixed mode, got {cfg.mode!r}")
    noise = None if initial_noise is None else np.asarray(initial_noise, dtype=float)[None]
    return roll_lanes(velocity_field, cfg, [rng], noise).trajectories()[0]


def rollout_batch(policy: TimePolicy, velocity_field: VelocityField,
                  cfg: ScheduleConfig, rng: RngStream, n: int,
                  deterministic: bool = False) -> list[Trajectory]:
    """n independent adaptive rollouts, one child stream per trajectory."""
    return roll_lanes(velocity_field, cfg, [rng.child(i) for i in range(n)],
                      policy=policy, deterministic=deterministic).trajectories()


def transport_uniform(velocity_field: VelocityField, n_samples: int,
                      n_steps: int, rng: RngStream) -> np.ndarray:
    """Uniform-schedule Euler transport of a noise batch to t=0."""
    noise = rng.standard_normal((n_samples, velocity_field.d))
    cfg = ScheduleConfig(mode="fixed-uniform", fixed_n=n_steps)
    return roll_lanes(velocity_field, cfg, noise=noise).finals


def trajectory_to_csv(traj: Trajectory, log_probs: Sequence[float],
                      path: str | Path) -> None:
    """One row per visited time; r/log_prob blank where no prediction exists
    (step 0 and a forced final jump). log_probs holds one score per kept
    prediction (rl.step_log_probs)."""
    if len(log_probs) != len(traj.decay_rates):
        raise ValueError(f"{len(log_probs)} log-probs for "
                         f"{len(traj.decay_rates)} predictions")
    d = traj.states[0].shape[0]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "t"] + [f"x{i}" for i in range(d)] + ["r", "log_prob"])
    for k, (t, x) in enumerate(zip(traj.times, traj.states)):
        has_pred = 1 <= k <= len(traj.decay_rates)
        writer.writerow(
            [k, repr(t)]
            + [repr(float(c)) for c in x]
            + ([repr(traj.decay_rates[k - 1]), repr(float(log_probs[k - 1]))]
               if has_pred else ["", ""])
        )
    write_atomic(path, buf.getvalue())
