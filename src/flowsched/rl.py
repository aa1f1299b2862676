"""Schedule-policy RL: discounted rewards, RLOO advantages, PPO on whole
trajectories, and the training loops.

The whole predicted schedule is one action: its log-probability is the sum of
per-step Beta log-densities, so importance ratios and gradients flow through
every kept prediction. The reward discounts a terminal quality score
(flow.toy_reward) by the step count, which is what makes shorter schedules
pay off.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import RLConfig, ScheduleConfig
from .flow import TargetSpec, VelocityField, row_dot, toy_reward
from .nn import Diverged, OptimizerState, descend, write_csv
from .policy import (TimePolicy, save_policy, shape_grad_wrt_raw, step_features,
                     tpm_params_batch)
from .rng import RngStream
from .sampler import Lanes, roll_lanes
from .special_math import beta_terms, kl_from_terms, log_pdf_from_terms

logger = logging.getLogger(__name__)


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


@dataclass
class Rollouts:
    """One outer step's rollouts as arrays, read by every inner epoch.

    The per-lane arrays are (n_groups, k): row g is group g, whose k lanes
    share one initial noise draw. The kept predictions of all lanes are
    stacked lane by lane (feats, rates), lane holding the flat lane index of
    each; terms are the rolling policy's _policy_terms there."""

    n_steps: np.ndarray       # Euler steps N
    ir: np.ndarray            # terminal quality score
    reward: np.ndarray        # discounted reward
    advantage: np.ndarray     # leave-one-out advantage within the group
    old_log_prob: np.ndarray  # log-probability of the schedule when rolled
    n_pred: np.ndarray        # kept predictions, at least 1 (the KL's divisor)
    feats: np.ndarray
    rates: np.ndarray
    lane: np.ndarray
    terms: tuple

    @classmethod
    def from_lanes(cls, policy: TimePolicy, lanes: Lanes, ir: np.ndarray, k: int,
                   gamma: float) -> "Rollouts":
        """The record of adaptive lanes rolled in groups of k consecutive lanes,
        with terminal scores ir. Old log-probs are scored from the kept terms,
        which train_tpm hands to the first inner epoch, so its ratios are
        exactly 1 by construction, not by two forwards giving the same bits."""
        feats, rates, lane = lanes.kept()
        terms = _policy_terms(policy, feats)
        step_lp = log_pdf_from_terms(np.log(rates), np.log1p(-rates), terms[1:])
        old_lp = np.bincount(lane, weights=step_lp, minlength=len(lanes.n_kept))
        reward = discounted_reward(ir, lanes.n_steps, gamma).reshape(-1, k)
        return cls(lanes.n_steps.reshape(-1, k), np.reshape(ir, (-1, k)), reward,
                   rloo_advantages(reward), old_lp.reshape(-1, k),
                   np.maximum(lanes.n_kept, 1).reshape(-1, k), feats, rates, lane, terms)


@dataclass
class PpoLossResult:
    loss: float
    grad: np.ndarray  # laid out like the policy net's theta
    mean_kl: float
    n_dropped: int


def ppo_loss(policy: TimePolicy, ref_policy: TimePolicy, rollouts: Rollouts,
             cfg: RLConfig) -> PpoLossResult:
    """_ppo_loss with both policies' terms computed afresh at the record's features."""
    return _ppo_loss(policy, _policy_terms(policy, rollouts.feats),
                     _policy_terms(ref_policy, rollouts.feats)[1:], rollouts, cfg)


def _ppo_loss(policy: TimePolicy, terms: tuple, ref_terms: tuple, rollouts: Rollouts,
              cfg: RLConfig) -> PpoLossResult:
    """PPO loss over a whole record, each trajectory one action, with exact gradients.

    loss = mean over groups of the mean over the group's kept trajectories of
    -(surrogate_i - kl_weight * KL_i), so a kept trajectory weighs
    1/(n_groups * n_kept_g) and a group with none kept counts as 0;
    surrogate_i = ratio_i * adv_i (pessimistically clipped when cfg.clip > 0),
    KL_i = mean over the trajectory's steps of KL(ref || policy) at the
    visited features. terms are policy's _policy_terms at the record's
    features and ref_terms the reference's without the activations; one
    backward covers the whole record, and gradients flow only through policy.
    """
    r, advs = rollouts, rollouts.advantage
    n_groups = len(advs)
    log_r, log_1mr = np.log(r.rates), np.log1p(-r.rates)
    acts, *terms = terms
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

    # clip 0 is an unbounded window: clipped == unclipped bit for bit (dropped ratios are 0)
    clip = cfg.clip or np.inf
    unclipped = ratio * advs
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * advs
    surrogate = np.minimum(unclipped, clipped)
    use_unclipped = unclipped <= clipped

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


def train_tpm(policy: TimePolicy, fields: Sequence[VelocityField],
              targets: Sequence[TargetSpec], cfg: RLConfig,
              sched: ScheduleConfig, rng: RngStream,
              checkpoint_path: Optional[str | Path] = None,
              ) -> tuple[TimePolicy, list[MetricsRow]]:
    """PPO training of the decay policy against frozen velocity fields.

    Groups cycle round-robin over the provided (field, target) pairs; each
    outer step's groups form one record, pair by pair. The reference policy
    is frozen at entry. When checkpoint_path is given, the policy that
    entered each outer step is saved there once that step's rollout comes out
    finite, and the result is saved there at the end, so a run killed before
    it ends leaves a policy whose rollout came out finite. Divergence
    (nn.Diverged: non-finite raw policy outputs in a rollout or in the loss,
    a non-finite loss, gradient norm or parameter) logs a warning naming the
    outer step and ends training: the result is the last policy whose rollout
    came out finite, with the metrics of the outer steps completed before it. The result's raw outputs are
    checked at the last record's features, and a non-finite one gives the
    warning of outer step cfg.outer_steps and the policy that entered the
    last step.
    """
    if len(fields) != len(targets):
        raise ValueError("need one velocity field per target")
    ref_policy = policy.copy()
    state = OptimizerState.for_params([policy.net.theta], lr=cfg.lr)
    n_groups = cfg.batch_size // cfg.group_size
    metrics: list[MetricsRow] = []
    last_good = policy

    try:
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
            last_good = policy.copy()
            if checkpoint_path is not None:
                save_policy(last_good, checkpoint_path)

            ref_terms = _policy_terms(ref_policy, record.feats)[1:]
            for epoch in range(cfg.inner_epochs):
                # epoch 0 reads the terms the record was scored with: a ratio of exactly 1
                terms = record.terms if epoch == 0 else _policy_terms(policy, record.feats)
                res = _ppo_loss(policy, terms, ref_terms, record, cfg)
                grad_norm = descend(policy.net, state, res.loss, res.grad, cfg.max_grad_norm)
                if epoch == 0:
                    mean_kl = res.mean_kl
            if not np.all(np.isfinite(policy.net.theta)):
                raise Diverged("diverged: non-finite policy parameters")
            means = [float(np.mean(a)) for a in (record.reward, record.ir, record.n_steps)]
            metrics.append(MetricsRow(outer, *means, mean_kl, grad_norm))
        outer = cfg.outer_steps  # the result's raw outputs at the last record's features
        tpm_params_batch(policy, record.feats)
    except Diverged as exc:
        logger.warning("aborting at outer step %d: %s", outer, exc)
        policy = last_good
    if checkpoint_path is not None:
        save_policy(policy, checkpoint_path)
    return policy, metrics


def write_metrics_csv(metrics: Sequence[MetricsRow], path: str | Path) -> None:
    write_csv(path, ("outer_step", "mean_reward", "mean_ir", "mean_N", "mean_kl", "grad_norm"),
              map(astuple, metrics))


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
    state = OptimizerState.for_params([net.theta], lr=lr)
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
        g_y = 2.0 * resid / batch_size
        _, g_jx, g_jt = velocity_field.velocity_vjp(x1, t1, g_y)
        dl_dt1 = row_dot(g_y, v0) - row_dot(g_y, v1) - t1 * (row_dot(g_jx, v0) + g_jt)
        denom = (alpha + beta) ** 2
        out_grad = np.stack([
            dl_dt1 * beta / denom,
            dl_dt1 * (-alpha) / denom,
        ], axis=1) * shape_grad_wrt_raw(raw)
        grad, _ = net.backward(feats, out_grad, acts)
        descend(net, state, losses[step], grad, max_norm=1.0)
    return policy, losses
