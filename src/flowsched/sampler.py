"""Euler sampling loops: policy-scheduled, fixed-schedule, and grid-quantized.

All schedules run from t=1 (noise) down to t=0 (data). The adaptive loop makes
one velocity evaluation per step and reuses it for both the policy features
and the Euler update, so the schedule policy adds only its own tiny forward
pass per step.

Termination: the Beta decay never reaches 0 exactly, so once a predicted time
falls below t_min (or the step budget is hit) the sampler takes a forced final
jump straight to t=0. The forced jump is a real Euler step counted in N, but
the prediction that triggered it is discarded, so len(decay_rates) = N - 1
unless the discrete grid terminated exactly at 0.

Each kept rate is recorded with its features and scored afterwards by the one
array log-density path in rl (rollout_group, step_log_probs).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .flow import VelocityField
from .policy import TimePolicy, next_time, predict_decay, step_features
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


def euler_step(x: np.ndarray, t_from: float, t_to: float,
               velocity_field: VelocityField) -> np.ndarray:
    if not 0.0 <= t_to < t_from <= 1.0:
        raise ValueError(f"need 0 <= t_to < t_from <= 1, got {t_to}, {t_from}")
    x = np.asarray(x, dtype=float)
    return x + (t_to - t_from) * velocity_field(x, t_from)


def quantize_time(t: float, grid_size: int, t_prev_index: int) -> tuple[float, int]:
    """Snap t to the nearest point of the grid {i/T}, forcing strict decrease.

    Index t_prev_index is the grid position of the previous time; landing at
    or above it is pushed down one notch. Index 0 means the caller's next use
    would need a time below the grid, which is a termination condition.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    if t_prev_index == 0:
        raise GridExhausted("time grid cannot decrease below index 0")
    index = int(np.floor(t * grid_size + 0.5))
    index = min(max(index, 0), grid_size)
    if index >= t_prev_index:
        index = t_prev_index - 1
    return index / grid_size, index


def sample_adaptive(policy: TimePolicy, velocity_field: VelocityField,
                    cfg: ScheduleConfig, rng: RngStream,
                    initial_noise: Optional[np.ndarray] = None,
                    deterministic: bool = False) -> Trajectory:
    """Roll one trajectory under the decay policy (continuous or grid mode)."""
    if cfg.mode not in ("adaptive", "discrete-adaptive"):
        raise ValueError(f"sample_adaptive needs an adaptive mode, got {cfg.mode!r}")
    d = velocity_field.d
    discrete = cfg.mode == "discrete-adaptive"
    x = (np.asarray(initial_noise, dtype=float).copy() if initial_noise is not None
         else rng.standard_normal(d))
    if x.shape != (d,):
        raise ValueError(f"initial noise shape {x.shape} != ({d},)")
    traj = Trajectory([1.0], [x], [], [])
    t_prev = 1.0
    prev_index = cfg.grid_size
    while t_prev > 0.0:
        v = velocity_field(x, t_prev)
        if not np.all(np.isfinite(v)):
            raise RuntimeError(
                f"velocity field produced a non-finite value at t={t_prev}"
            )
        t_next = 0.0  # the budget's last step jumps to 0 without the policy
        if traj.n_steps < cfg.n_max - 1:
            feats = step_features(x, v, t_prev)
            r = predict_decay(policy, feats, rng, deterministic)
            t_next = next_time(t_prev, r)
            if discrete:
                t_next, prev_index = quantize_time(t_next, cfg.grid_size, prev_index)
            if 0.0 < t_next < cfg.t_min:
                # discard the triggering prediction and take the forced jump
                t_next = 0.0
            else:
                # kept, including a grid prediction that lands exactly on 0
                traj.decay_rates.append(r)
                traj.features.append(feats)
        x = x + (t_next - t_prev) * v
        _append_state(traj, t_next, x)
        t_prev = t_next
    traj.validate()
    return traj


def sample_fixed(velocity_field: VelocityField, cfg: ScheduleConfig,
                 rng: RngStream,
                 initial_noise: Optional[np.ndarray] = None) -> Trajectory:
    """Fixed N-step baseline, uniform or timeshifted."""
    if cfg.mode not in ("fixed-uniform", "fixed-shifted"):
        raise ValueError(f"sample_fixed needs a fixed mode, got {cfg.mode!r}")
    d = velocity_field.d
    n = cfg.fixed_n
    x = (np.asarray(initial_noise, dtype=float).copy() if initial_noise is not None
         else rng.standard_normal(d))
    times = [(n - k) / n for k in range(n + 1)]
    if cfg.mode == "fixed-shifted":
        times = [timeshift(t, cfg.shift) for t in times]
    traj = Trajectory([1.0], [x], [], [])
    for t_from, t_to in zip(times, times[1:]):
        x = x + (t_to - t_from) * velocity_field(x, t_from)
        _append_state(traj, t_to, x)
    traj.validate()
    return traj


def timeshift(t: float, shift: float) -> float:
    """Timeshift map t -> shift*t / (1 + (shift-1)*t); identity at shift=1,
    endpoint-preserving, pushes interior times toward 1 for shift > 1."""
    return shift * t / (1.0 + (shift - 1.0) * t)


def _append_state(traj: Trajectory, t: float, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise RuntimeError(
            f"sampler produced a non-finite state at t={t} after {traj.n_steps + 1} steps"
        )
    traj.times.append(t)
    traj.states.append(x)


def rollout_batch(policy: TimePolicy, velocity_field: VelocityField,
                  cfg: ScheduleConfig, rng: RngStream, n: int,
                  deterministic: bool = False) -> list[Trajectory]:
    """n independent adaptive rollouts, one child stream per trajectory."""
    return [
        sample_adaptive(policy, velocity_field, cfg, rng.child(i),
                        deterministic=deterministic)
        for i in range(n)
    ]


def transport_uniform(velocity_field: VelocityField, n_samples: int,
                      n_steps: int, rng: RngStream) -> np.ndarray:
    """Vectorized uniform-schedule Euler transport of a noise batch to t=0."""
    x = rng.standard_normal((n_samples, velocity_field.d))
    for k in range(n_steps):
        t_from = (n_steps - k) / n_steps
        t_to = (n_steps - k - 1) / n_steps
        x = x + (t_to - t_from) * velocity_field(x, t_from)
    return x


def trajectory_to_csv(traj: Trajectory, log_probs: Sequence[float],
                      path: str | Path) -> None:
    """One row per visited time; r/log_prob blank where no prediction exists
    (step 0 and a forced final jump). log_probs holds one score per kept
    prediction (rl.step_log_probs)."""
    if len(log_probs) != len(traj.decay_rates):
        raise ValueError(f"{len(log_probs)} log-probs for "
                         f"{len(traj.decay_rates)} predictions")
    d = traj.states[0].shape[0]
    header = ["step", "t"] + [f"x{i}" for i in range(d)] + ["r", "log_prob"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, (t, x) in enumerate(zip(traj.times, traj.states)):
            has_pred = 1 <= k <= len(traj.decay_rates)
            writer.writerow(
                [k, repr(t)]
                + [repr(float(c)) for c in x]
                + ([repr(traj.decay_rates[k - 1]), repr(float(log_probs[k - 1]))]
                   if has_pred else ["", ""])
            )
