"""One lockstep Euler loop for every schedule: policy-scheduled, grid-quantized,
fixed uniform and fixed timeshifted.

All schedules run from t=1 (noise) down to t=0 (data), every lane of a batch
in the same loop (roll_lanes). An adaptive step makes one velocity
evaluation per lane and reuses it for both the policy features and the Euler
update, so the schedule policy adds only its own small forward pass.

Termination: the Beta decay never reaches 0 exactly, so once a predicted time
falls below t_min (or the step budget is hit) the sampler takes a forced final
jump straight to t=0. The forced jump is a real Euler step counted in N, but
the prediction that triggered it is discarded, so a lane keeps N - 1
predictions unless the discrete grid terminated exactly at 0.

A batch of trajectories is one Lanes record of padded arrays: training,
evaluation, the acceptance checks (Lanes.validate) and the CSV export
(trajectory_to_csv) all read it. Each kept rate is recorded with its features;
Lanes.kept stacks them lane by lane, and rl (Rollouts.from_lanes) or the
sample command (policy.step_log_pdf) scores that stack afterwards in one
policy forward. Trajectory, a list view of one lane, is only what the
one-lane wrappers sample_adaptive and sample_fixed return.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ScheduleConfig
from .flow import VelocityField
from .nn import write_csv
from .policy import (TimePolicy, feature_length, next_time, predict_decay_batch,
                     step_features)
from .rng import RngStream


class GridExhausted(RuntimeError):
    """Raised when the discrete time grid cannot decrease further."""


@dataclass
class Trajectory:
    times: list[float]
    states: list[np.ndarray]
    decay_rates: list[float]
    features: list[np.ndarray]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


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
    rates[i, :n_kept[i]] at features feats[i, :n_kept[i]]. Fixed modes keep
    none: their rates and feats have zero width, (n, 0) and (n, 0, 2d+2)."""

    times: np.ndarray
    states: np.ndarray
    n_steps: np.ndarray
    n_kept: np.ndarray
    rates: np.ndarray
    feats: np.ndarray

    @property
    def finals(self) -> np.ndarray:
        return self.states[np.arange(len(self.n_steps)), self.n_steps]

    @classmethod
    def concat(cls, parts: Sequence["Lanes"]) -> "Lanes":
        """The lanes of parts in order, which must share one step budget."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))

    def kept(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept predictions stacked lane by lane (row major), empty in
        fixed modes: (feats, rates, lane), lane holding each row's lane index."""
        mask = np.arange(self.rates.shape[1]) < self.n_kept[:, None]
        return self.feats[mask], self.rates[mask], np.nonzero(mask)[0]

    def validate(self) -> None:
        """Raise ValueError unless each lane's first n_steps + 1 times run from
        1 strictly down to 0 over finite states, and the lane kept 0, N - 1
        (a forced jump) or N finite predictions (fixed lanes keep 0)."""
        n = self.n_steps
        if np.any(self.times[:, 0] != 1.0) or np.any(self.times[np.arange(len(n)), n] != 0.0):
            raise ValueError("times must start at 1 and end at 0")
        visited = np.arange(self.times.shape[1]) <= n[:, None]
        if np.any(visited[:, 1:] & ~(np.diff(self.times, axis=1) < 0.0)):
            raise ValueError("times must be strictly decreasing")
        if not np.all(np.isfinite(self.states[visited])):
            raise ValueError("non-finite state in trajectory")
        p = self.n_kept
        if np.any((p != 0) & (p != n - 1) & (p != n)):
            raise ValueError("prediction count must be N-1 (forced jump) or N")
        feats, rates, _ = self.kept()
        if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(feats))):
            raise ValueError("kept rates and features must be finite")

    def trajectories(self) -> list[Trajectory]:
        """One Trajectory per lane, over views of the padded paths: the return
        value of the one-lane wrappers sample_adaptive and sample_fixed."""
        return [Trajectory(self.times[i, :n + 1].tolist(), list(self.states[i, :n + 1]),
                           self.rates[i, :p].tolist(), list(self.feats[i, :p]))
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
    its initial noise when noise is None, then one Beta draw per prediction
    (gamma(alpha), then gamma(beta)). The t_min forced jump, the grid and the step budget act as
    masks, so a lane's draws and step count do not depend on the other lanes
    (the batched matmuls can move the last bits). Fixed modes walk a time
    table and draw nothing once noise is given. One field workspace and one
    policy workspace, made for all n lanes, serve every step's forward over
    the lanes still running, and the running set is compacted only on a step
    that ends a lane, so a step allocates nothing of activation size.
    """
    d = velocity_field.d
    if noise is None and streams is None:
        raise ValueError("lanes need initial noise or one stream per lane")
    if noise is None:
        noise = np.array([s.standard_normal(d) for s in streams]).reshape(-1, d)
    x = np.array(noise, dtype=float)
    n = len(x)
    if x.shape != (n, d):
        raise ValueError(f"initial noise shape {x.shape} != ({n}, {d})")
    if not cfg.fixed and policy is None:
        raise ValueError(f"mode {cfg.mode!r} needs a policy")
    if not (cfg.fixed or deterministic) and (streams is None or len(streams) != n):
        raise ValueError("stochastic adaptive lanes need one stream per lane")
    table = _time_table(cfg) if cfg.fixed else None
    budget = cfg.fixed_n if cfg.fixed else cfg.n_max
    width = 0 if cfg.fixed else budget  # the predictions a lane can keep
    lanes = Lanes(np.full((n, budget + 1), np.nan), np.full((n, budget + 1, d), np.nan),
                  np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                  np.full((n, width), np.nan), np.full((n, width, feature_length(d)), np.nan))
    lanes.times[:, 0], lanes.states[:, 0] = 1.0, x

    # the running lanes: their ids, states, times and grid indices; the
    # running lanes' streams are lane_streams[idx]
    idx = np.arange(n)
    t = np.full(n, table[0] if cfg.fixed else 1.0)
    grid = np.full(n, cfg.grid_size)
    lane_streams = None if streams is None else np.array(streams, dtype=object)
    field_work = velocity_field.workspace(n)
    policy_work = None if cfg.fixed else policy.net.workspace(n)
    for k in range(budget):
        v = velocity_field(x, t, field_work)  # overwritten by the next step's call
        _check_finite(v, "velocity field produced a non-finite value at t={}", t)
        if cfg.fixed:
            t_next = np.full(len(idx), table[k + 1])
        elif k == cfg.n_max - 1:
            t_next = np.zeros(len(idx))  # the budget's last step, no policy
        else:
            feats = step_features(x, v, t)
            r = predict_decay_batch(policy, feats,
                                    None if deterministic else lane_streams[idx],
                                    deterministic, policy_work)
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
        if not live.all():
            lanes.n_steps[idx[~live]] = k + 1
            if not live.any():
                break
            idx, x, t_next, grid = idx[live], x[live], t_next[live], grid[live]
        t = t_next
    return lanes


def _check_finite(a: np.ndarray, message: str, t: np.ndarray) -> None:
    """Raise RuntimeError naming the time of the first lane with a non-finite
    row; the rows are searched only once the whole array has failed."""
    if not np.isfinite(a).all():
        bad = ~np.all(np.isfinite(a), axis=1)
        raise RuntimeError(message.format(float(t[bad][0])))


def sample_adaptive(policy: TimePolicy, velocity_field: VelocityField,
                    cfg: ScheduleConfig, rng: RngStream,
                    initial_noise: Optional[np.ndarray] = None,
                    deterministic: bool = False) -> Trajectory:
    """Roll one trajectory under the decay policy (continuous or grid mode)."""
    if cfg.fixed:
        raise ValueError(f"sample_adaptive needs an adaptive mode, got {cfg.mode!r}")
    noise = None if initial_noise is None else np.asarray(initial_noise, dtype=float)[None]
    return roll_lanes(velocity_field, cfg, [rng], noise, policy,
                      deterministic).trajectories()[0]


def sample_fixed(velocity_field: VelocityField, cfg: ScheduleConfig,
                 rng: RngStream,
                 initial_noise: Optional[np.ndarray] = None) -> Trajectory:
    """Fixed N-step baseline, uniform or timeshifted."""
    if not cfg.fixed:
        raise ValueError(f"sample_fixed needs a fixed mode, got {cfg.mode!r}")
    noise = None if initial_noise is None else np.asarray(initial_noise, dtype=float)[None]
    return roll_lanes(velocity_field, cfg, [rng], noise).trajectories()[0]


def transport_uniform(velocity_field: VelocityField, n_samples: int,
                      n_steps: int, rng: RngStream) -> np.ndarray:
    """Uniform-schedule Euler transport of a noise batch to t=0."""
    noise = rng.standard_normal((n_samples, velocity_field.d))
    cfg = ScheduleConfig(mode="fixed-uniform", fixed_n=n_steps)
    return roll_lanes(velocity_field, cfg, noise=noise).finals


def trajectory_to_csv(lanes: Lanes, i: int, log_probs: Sequence[float],
                      path: str | Path) -> None:
    """Lane i of lanes, one row per visited time; r/log_prob blank where no
    prediction exists (step 0 and a forced final jump). log_probs holds one
    score per kept prediction of the lane (policy.step_log_pdf)."""
    n, p = int(lanes.n_steps[i]), int(lanes.n_kept[i])
    if len(log_probs) != p:
        raise ValueError(f"{len(log_probs)} log-probs for {p} predictions")
    rates = lanes.rates[i, :p].tolist()
    header = ["step", "t"] + [f"x{c}" for c in range(lanes.states.shape[2])] + ["r", "log_prob"]
    write_csv(path, header, (
        [k, t, *x, *((rates[k - 1], log_probs[k - 1]) if 1 <= k <= p else (None, None))]
        for k, (t, x) in enumerate(zip(lanes.times[i, :n + 1].tolist(),
                                       lanes.states[i, :n + 1].tolist()))))
