"""Schedule-policy RL: discounted rewards, RLOO advantages, PPO on whole
trajectories, and the training loops.

The whole predicted schedule is one action: its log-probability is the sum of
per-step Beta log-densities, so importance ratios and gradients flow through
every kept prediction. The reward discounts a terminal quality score by the
step count, which is what makes shorter schedules pay off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .flow import TargetSpec, VelocityField, ref_log_density, row_dot
from .nn import OptimizerState, adamw_step, clip_global_norm, write_atomic
from .policy import (TimePolicy, save_policy, shape_grad_wrt_raw, step_features,
                     tpm_params_batch)
from .rng import RngStream
from .sampler import Lanes, ScheduleConfig, Trajectory, roll_lanes
from .special_math import beta_log_pdf, beta_terms, kl_from_terms, log_pdf_from_terms

logger = logging.getLogger(__name__)

IR_CLAMP = -10.0


@dataclass(frozen=True)
class RLConfig:
    gamma: float = 0.95
    kl_weight: float = 0.01
    clip: float = 0.2          # 0 disables clipping (plain importance ratio)
    group_size: int = 4
    batch_size: int = 256
    inner_epochs: int = 4
    lr: float = 1e-5
    max_grad_norm: float = 1.0
    outer_steps: int = 200

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.kl_weight < 0.0 or self.clip < 0.0:
            raise ValueError("kl_weight and clip must be >= 0")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2 for a leave-one-out baseline")
        if self.batch_size < self.group_size or self.batch_size % self.group_size:
            raise ValueError("batch_size must be a positive multiple of group_size")
        if self.inner_epochs < 1 or self.outer_steps < 1:
            raise ValueError("inner_epochs and outer_steps must be >= 1")
        if self.lr <= 0.0 or self.max_grad_norm <= 0.0:
            raise ValueError("lr and max_grad_norm must be positive")


def toy_reward(y: np.ndarray, target: TargetSpec) -> float | np.ndarray:
    """Quality score of a final sample (d,), or of each row of a batch (n, d):
    centered log-density, clamped below.

    Centering by the target's expected log-density puts typical samples near
    0 and the mode of a standard normal at exactly +1.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite sample")
    ir = np.maximum(target.log_density(y) - ref_log_density(target), IR_CLAMP)
    return ir if y.ndim > 1 else float(ir)


def discounted_reward(ir, n_steps, gamma: float):
    """ir * (1/N) * sum_{n=1..N} gamma^(N-n), elementwise over arrays of
    scores and step counts; equals ir at gamma=1 or N=1. gamma^N is Python's
    pow (numpy's vectorized pow can differ in the last bit), so a reward does
    not depend on the array it is computed in."""
    ir, n = np.asarray(ir, dtype=float), np.asarray(n_steps)
    if np.any(n < 1):
        raise ValueError("n_steps must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma != 1.0:
        powers = np.array([gamma**j for j in range(int(n.max()) + 1)])
        ir = ir * (1.0 - powers[n]) / (n * (1.0 - gamma))
    return float(ir) if ir.ndim == 0 else ir


def rloo_advantages(rewards) -> np.ndarray:
    """Leave-one-out baselined advantages within each group of the last axis;
    each group sums to exactly 0."""
    r = np.asarray(rewards, dtype=float)
    k = r.shape[-1]
    if k < 2:
        raise ValueError("need at least 2 rewards for a leave-one-out baseline")
    return (k * r - r.sum(axis=-1, keepdims=True)) / (k - 1)


def _policy_terms(policy: TimePolicy, feats: np.ndarray) -> tuple:
    """(acts, alpha, beta, ln B, psi(alpha), psi(beta), psi(alpha + beta)),
    acts being the policy net's activations; acts[-1] holds the raw outputs."""
    _, alpha, beta, acts = tpm_params_batch(policy, feats)
    return (acts, alpha, beta, *beta_terms(alpha, beta))


def _step_log_pdf(policy: TimePolicy, feats: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Log-density under policy of each rate at its feature row."""
    _, alpha, beta, _ = tpm_params_batch(policy, feats)
    return beta_log_pdf(rates, alpha, beta)


@dataclass
class Rollouts:
    """One outer step's rollouts as arrays, read by every inner epoch.

    The per-lane arrays are (n_groups, k): row g is group g, whose k lanes
    share one initial noise draw. The kept predictions of all lanes are
    stacked lane by lane (feats, rates), lane holding the flat lane index of
    each. The reference policy's terms there are cached (ref_terms)."""

    n_steps: np.ndarray       # Euler steps N
    ir: np.ndarray            # terminal quality score
    reward: np.ndarray        # discounted reward
    advantage: np.ndarray     # leave-one-out advantage within the group
    old_log_prob: np.ndarray  # log-probability of the schedule when rolled
    n_pred: np.ndarray        # kept predictions, at least 1 (the KL's divisor)
    feats: np.ndarray
    rates: np.ndarray
    lane: np.ndarray
    # the reference policy's parameter arrays and its terms at feats
    _ref: tuple = dataclass_field(default=((), ()), init=False, repr=False)

    @classmethod
    def from_lanes(cls, policy: TimePolicy, lanes: Lanes, ir: np.ndarray, k: int,
                   gamma: float) -> "Rollouts":
        """The record of adaptive lanes rolled in groups of k consecutive lanes,
        with terminal scores ir. Old log-probs are scored in one forward over
        the stack ppo_loss reads, so the first inner epoch's ratios are exactly
        1 (a forward over another batch can differ in the last bits)."""
        mask = np.arange(lanes.rates.shape[1]) < lanes.n_kept[:, None]
        feats, rates, lane = lanes.feats[mask], lanes.rates[mask], np.nonzero(mask)[0]
        old_lp = np.bincount(lane, weights=_step_log_pdf(policy, feats, rates),
                             minlength=len(lanes.n_kept))
        reward = discounted_reward(ir, lanes.n_steps, gamma).reshape(-1, k)
        return cls(lanes.n_steps.reshape(-1, k), np.reshape(ir, (-1, k)), reward,
                   rloo_advantages(reward), old_lp.reshape(-1, k),
                   np.maximum(lanes.n_kept, 1).reshape(-1, k), feats, rates, lane)

    def ref_terms(self, ref_policy: TimePolicy) -> tuple:
        """(alpha, beta, ln B, psi(alpha), psi(beta), psi(alpha + beta)) of
        ref_policy at feats, recomputed only when ref_policy's parameter
        arrays are not the ones they came from; so a frozen reference (as in
        train_tpm) is evaluated once per record. Editing a reference's arrays
        in place is not detected."""
        params, terms = self._ref
        current = ref_policy.net.parameters()
        if len(current) != len(params) or any(a is not b for a, b in zip(current, params)):
            terms = _policy_terms(ref_policy, self.feats)[1:]
            self._ref = current, terms
        return terms


def step_log_probs(policy: TimePolicy, traj: Trajectory) -> np.ndarray:
    """Beta log-density under policy of each kept prediction of traj."""
    return _step_log_pdf(policy, np.reshape(traj.features, (-1, policy.net.sizes[0])),
                         np.asarray(traj.decay_rates, dtype=float))


def traj_log_prob(policy: TimePolicy, traj: Trajectory) -> float:
    """Log-probability of the whole schedule under policy: the sum of
    per-prediction Beta log-densities (forced jumps contribute nothing)."""
    return float(np.sum(step_log_probs(policy, traj)))


@dataclass
class PpoLossResult:
    loss: float
    grad: np.ndarray  # laid out like the policy net's theta
    mean_kl: float
    n_dropped: int


def ppo_loss(policy: TimePolicy, ref_policy: TimePolicy, rollouts: Rollouts,
             cfg: RLConfig) -> PpoLossResult:
    """Trajectory-as-action PPO loss over a whole record, with exact gradients.

    loss = mean over groups of the mean over the group's kept trajectories of
    -(surrogate_i - kl_weight * KL_i), so a kept trajectory weighs
    1/(n_groups * n_kept_g) and a group with none kept counts as 0;
    surrogate_i = ratio_i * adv_i (pessimistically clipped when cfg.clip > 0),
    KL_i = mean over the trajectory's steps of KL(ref || policy) at the
    visited features. One forward and one backward cover the whole record;
    gradients flow only through the current policy. The record keeps
    ref_policy's terms (Rollouts.ref_terms), so do not edit it in place.
    """
    r, advs = rollouts, rollouts.advantage
    n_groups = len(advs)
    log_r, log_1mr = np.log(r.rates), np.log1p(-r.rates)
    acts, *terms = _policy_terms(policy, r.feats)
    ref_terms = r.ref_terms(ref_policy)
    psi_a, psi_b, psi_ab = terms[3:]
    ref_psi_a, ref_psi_b, ref_psi_ab = ref_terms[3:]

    def per_lane(step_values):  # (n_groups, k) sums over each lane's steps
        return np.bincount(r.lane, weights=step_values, minlength=advs.size).reshape(advs.shape)

    ratio = np.exp(per_lane(log_pdf_from_terms(log_r, log_1mr, terms)) - r.old_log_prob)
    kept = np.isfinite(ratio)
    n_dropped = int(np.count_nonzero(~kept))
    if n_dropped:
        logger.warning("dropping %d trajectories with non-finite importance ratio",
                       n_dropped)
        # neutralize before any arithmetic: 0 * inf would poison the masked sums
        ratio = np.where(kept, ratio, 0.0)
    if not kept.any():
        return PpoLossResult(0.0, np.zeros(policy.net.n_params), 0.0, n_dropped)

    unclipped = ratio * advs
    if cfg.clip > 0.0:
        clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * advs
        surrogate = np.minimum(unclipped, clipped)
        use_unclipped = unclipped <= clipped
    else:
        surrogate = unclipped
        use_unclipped = np.ones_like(ratio, dtype=bool)

    kl_per_traj = per_lane(kl_from_terms(ref_terms, terms)) / r.n_pred  # KL(ref || policy)

    keep_f = kept.astype(float)
    n_kept = np.maximum(np.count_nonzero(kept, axis=-1, keepdims=True), 1)

    def group_mean(x):  # mean over groups of each group's mean over kept lanes
        return float(np.mean(np.sum(keep_f * x, axis=-1, keepdims=True) / n_kept))

    loss = group_mean(-surrogate + cfg.kl_weight * kl_per_traj)
    mean_kl = group_mean(kl_per_traj)

    # d loss / d log_pdf_m: the surrogate branch actually taken, per step
    surr_coef = -(keep_f * use_unclipped * advs * ratio / n_kept / n_groups).ravel()[r.lane]
    dlp_da = log_r - psi_a + psi_ab
    dlp_db = log_1mr - psi_b + psi_ab

    # d loss / d kl_m, then d kl / d (alpha_q, beta_q)
    kl_coef = (cfg.kl_weight * keep_f / n_kept / r.n_pred / n_groups).ravel()[r.lane]
    dkl_da = psi_a - psi_ab - ref_psi_a + ref_psi_ab
    dkl_db = psi_b - psi_ab - ref_psi_b + ref_psi_ab

    out_grad = np.stack([
        (surr_coef * dlp_da + kl_coef * dkl_da),
        (surr_coef * dlp_db + kl_coef * dkl_db),
    ], axis=1) * shape_grad_wrt_raw(acts[-1])
    grad, _ = policy.net.backward(r.feats, out_grad, acts)
    return PpoLossResult(loss, grad, mean_kl, n_dropped)


@dataclass
class MetricsRow:
    outer_step: int
    mean_reward: float
    mean_ir: float
    mean_n: float
    mean_kl: float
    grad_norm: float


def roll_groups(policy: TimePolicy, velocity_field: VelocityField,
                sched: ScheduleConfig, k: int, rngs: Sequence[RngStream]) -> Lanes:
    """k lanes per stream of rngs in one lane batch, all starting from the
    stream's child(0) noise draw; lane j of a group draws from child(1 + j)."""
    noise = np.array([rng.child(0).standard_normal(velocity_field.d) for rng in rngs])
    return roll_lanes(velocity_field, sched,
                      [rng.child(1 + j) for rng in rngs for j in range(k)],
                      np.repeat(noise, k, axis=0), policy)


def rollout_group(policy: TimePolicy, velocity_field: VelocityField,
                  target: TargetSpec, sched: ScheduleConfig, k: int,
                  rng: RngStream, gamma: float) -> Rollouts:
    """k rollouts from one shared noise draw: a one-group record (k >= 2)."""
    lanes = roll_groups(policy, velocity_field, sched, k, [rng])
    return Rollouts.from_lanes(policy, lanes, toy_reward(lanes.finals, target), k, gamma)


def train_tpm(policy: TimePolicy, fields: VelocityField | Sequence[VelocityField],
              targets: TargetSpec | Sequence[TargetSpec], cfg: RLConfig,
              sched: ScheduleConfig, rng: RngStream,
              checkpoint_path: Optional[str | Path] = None,
              ) -> tuple[TimePolicy, list[MetricsRow]]:
    """PPO training of the decay policy against frozen velocity fields.

    Groups cycle round-robin over the provided (field, target) pairs; each
    outer step's groups form one record, pair by pair. The reference policy
    is frozen at entry. Divergence (non-finite parameters or loss) aborts,
    leaving the last finite checkpoint on disk when a path is given, and
    returns the last-good policy.
    """
    if isinstance(fields, VelocityField):
        fields = [fields]
    if isinstance(targets, TargetSpec):
        targets = [targets]
    if len(fields) != len(targets):
        raise ValueError("need one velocity field per target")
    ref_policy = policy.copy()
    net = policy.net
    state = OptimizerState.for_params([net.theta], lr=cfg.lr, betas=(0.9, 0.99))
    n_groups = cfg.batch_size // cfg.group_size
    metrics: list[MetricsRow] = []
    last_good = policy.copy()

    for outer in range(cfg.outer_steps):
        # the groups sharing a (field, target) pair are rolled in one batch
        parts, irs = [], []
        for pair in range(len(targets)):
            rngs = [rng.child(outer, g) for g in range(n_groups)
                    if (outer * n_groups + g) % len(targets) == pair]
            if rngs:
                parts.append(roll_groups(policy, fields[pair], sched, cfg.group_size, rngs))
                irs.append(toy_reward(parts[-1].finals, targets[pair]))
        record = Rollouts.from_lanes(policy, Lanes.concat(parts), np.concatenate(irs),
                                     cfg.group_size, cfg.gamma)

        for epoch in range(cfg.inner_epochs):
            res = ppo_loss(policy, ref_policy, record, cfg)
            finite = np.isfinite(res.loss) and np.all(np.isfinite(res.grad))
            if not finite:
                logger.warning("aborting at outer step %d: non-finite loss/gradient",
                               outer)
                break
            if epoch == 0:
                mean_kl = res.mean_kl
            grad_norm_val = clip_global_norm(net.unflatten(res.grad), cfg.max_grad_norm)
            [net.theta], state = adamw_step([net.theta], [res.grad], state)
        if not finite or not np.all(np.isfinite(net.theta)):
            policy = last_good
            break
        metrics.append(MetricsRow(outer, float(np.mean(record.reward)), float(np.mean(record.ir)),
                                  float(np.mean(record.n_steps)), mean_kl, grad_norm_val))
        last_good = policy.copy()
        if checkpoint_path is not None:
            save_policy(policy, checkpoint_path)
    return policy, metrics


def write_metrics_csv(metrics: Sequence[MetricsRow], path: str | Path) -> None:
    rows = "".join(f"{row.outer_step},{row.mean_reward!r},{row.mean_ir!r},"
                   f"{row.mean_n!r},{row.mean_kl!r},{row.grad_norm!r}\n"
                   for row in metrics)
    write_atomic(path, "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n" + rows)


def train_naive_two_step(policy: TimePolicy, velocity_field: VelocityField,
                         target: TargetSpec, steps: int, lr: float,
                         rng: RngStream, batch_size: int = 64,
                         ) -> tuple[TimePolicy, np.ndarray]:
    """Failure-mode baseline: differentiate two-step reconstruction directly.

    One prediction sets t1 from pure noise, a second Euler step lands at 0,
    and the squared reconstruction error backpropagates through t1 (the
    policy output is taken as the Beta mean, so the path is differentiable).
    No step-count discounting is involved; trained this way the policy drives
    its decay rate toward the end of the interval where the two-step
    reconstruction is best, collapsing inference to very few steps.
    """
    d, net = velocity_field.d, policy.net
    state = OptimizerState.for_params([net.theta], lr=lr, betas=(0.9, 0.99))
    losses = np.zeros(steps)
    for step in range(steps):
        x0 = target.sample(batch_size, rng)
        eps = rng.standard_normal((batch_size, d))
        v0 = velocity_field(eps, 1.0)
        feats = step_features(eps, v0, 1.0)
        raw, alpha, beta, acts = tpm_params_batch(policy, feats)
        t1 = alpha / (alpha + beta)
        x1 = eps + (t1[:, None] - 1.0) * v0
        v1 = velocity_field(x1, t1)
        y = x1 - t1[:, None] * v1
        resid = y - x0
        losses[step] = float(np.mean(np.sum(resid * resid, axis=1)))
        if not np.isfinite(losses[step]):
            raise RuntimeError(f"naive training diverged at step {step}")
        g_y = 2.0 * resid / batch_size
        _, g_jx, g_jt = velocity_field.velocity_vjp(x1, t1, g_y)
        dl_dt1 = row_dot(g_y, v0) - row_dot(g_y, v1) - t1 * (row_dot(g_jx, v0) + g_jt)
        denom = (alpha + beta) ** 2
        out_grad = np.stack([
            dl_dt1 * beta / denom,
            dl_dt1 * (-alpha) / denom,
        ], axis=1) * shape_grad_wrt_raw(raw)
        grad, _ = net.backward(feats, out_grad, acts)
        clip_global_norm(net.unflatten(grad), 1.0)
        [net.theta], state = adamw_step([net.theta], [grad], state)
    return policy, losses
