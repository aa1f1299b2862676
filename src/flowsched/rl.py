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

from .flow import TargetSpec, VelocityField, ref_log_density
from .nn import OptimizerState, adamw_step, clip_global_norm, write_atomic
from .policy import (TimePolicy, save_policy, shape_grad_wrt_raw, step_features,
                     tpm_params_batch)
from .rng import RngStream
from .sampler import ScheduleConfig, Trajectory, roll_lanes
from .special_math import beta_terms

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


@dataclass
class RewardRecord:
    ir: float
    discounted: float
    advantage: float
    n_steps: int


@dataclass
class RolloutGroup:
    """k trajectories sharing one initial state (target + noise draw); their
    steps are stacked once and cached, so the trajectory list is not edited
    afterwards (ppo_loss refuses a group whose list was replaced)."""

    target: TargetSpec
    initial_noise: np.ndarray
    trajectories: list[Trajectory]
    old_log_probs: np.ndarray
    rewards: list[RewardRecord] = dataclass_field(default_factory=list)
    # stacked steps, set by rollout_group or the first ppo_loss; see _group_terms
    _terms: Optional["_GroupTerms"] = dataclass_field(default=None, init=False,
                                                      repr=False, compare=False)

    def __post_init__(self):
        if len(self.trajectories) < 2:
            raise ValueError("a rollout group needs k >= 2 trajectories")
        for traj in self.trajectories:
            if not np.array_equal(traj.states[0], self.initial_noise):
                raise ValueError("all group trajectories must share the initial noise")


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


def discounted_reward(ir: float, n_steps: int, gamma: float) -> float:
    """ir * (1/N) * sum_{n=1..N} gamma^(N-n); equals ir at gamma=1 or N=1."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return float(ir)
    return float(ir) * (1.0 - gamma**n_steps) / (n_steps * (1.0 - gamma))


def rloo_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Leave-one-out baselined advantages; always sums to exactly 0."""
    r = np.asarray(rewards, dtype=float)
    k = r.shape[0]
    if k < 2:
        raise ValueError("need at least 2 rewards for a leave-one-out baseline")
    total = r.sum()
    return (k * r - total) / (k - 1)


@dataclass
class _GroupTerms:
    """What ppo_loss needs of a group besides the current policy: the stacked
    per-step features and rates, and the reference policy's terms there."""

    feats: np.ndarray
    log_r: np.ndarray
    log_1mr: np.ndarray
    seg: np.ndarray            # trajectory index of each step
    steps: np.ndarray          # predictions per trajectory, at least 1
    trajs: Sequence[Trajectory] = ()  # the list the steps were stacked from
    ref_params: list[np.ndarray] = dataclass_field(default_factory=list)
    # (alpha, beta, ln B, psi(alpha), psi(beta), psi(alpha + beta)) of the
    # policy whose parameter arrays are ref_params
    ref: tuple = ()


def _stack_steps(trajs: Sequence[Trajectory], n_in: int) -> _GroupTerms:
    """The kept predictions of trajs stacked in trajectory order."""
    counts = [len(t.decay_rates) for t in trajs]
    feats = np.concatenate([np.reshape(t.features, (-1, n_in)) for t in trajs])
    rates = np.concatenate([np.asarray(t.decay_rates, dtype=float) for t in trajs])
    return _GroupTerms(feats, np.log(rates), np.log1p(-rates),
                       np.repeat(np.arange(len(trajs)), counts),
                       np.maximum(np.asarray(counts), 1), trajs)


def _policy_terms(policy: TimePolicy, feats: np.ndarray) -> tuple:
    """(acts, alpha, beta, ln B, psi(alpha), psi(beta), psi(alpha + beta)),
    acts being the policy net's activations; acts[-1] holds the raw outputs."""
    _, alpha, beta, acts = tpm_params_batch(policy, feats)
    return (acts, alpha, beta, *beta_terms(alpha, beta))


def _log_pdf(log_r: np.ndarray, log_1mr: np.ndarray, alpha: np.ndarray,
             beta: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Beta(alpha, beta) log-density from log r, log(1 - r) and ln B."""
    return (alpha - 1.0) * log_r + (beta - 1.0) * log_1mr - log_b


def _step_log_pdf(policy: TimePolicy, terms: _GroupTerms) -> np.ndarray:
    """Log-density under policy of each stacked step of terms."""
    _, alpha, beta, log_b, *_ = _policy_terms(policy, terms.feats)
    return _log_pdf(terms.log_r, terms.log_1mr, alpha, beta, log_b)


def _group_terms(group: RolloutGroup, ref_policy: TimePolicy) -> _GroupTerms:
    """The group's cached terms. The reference terms are recomputed only when
    ref_policy's parameter arrays are not the ones they were built from, so a
    frozen reference (as in train_tpm) is evaluated once per group. Editing a
    reference's arrays, or the trajectory list, in place is not detected."""
    terms = group._terms
    if terms is None:
        terms = group._terms = _stack_steps(group.trajectories, ref_policy.net.sizes[0])
    elif terms.trajs is not group.trajectories:
        raise ValueError("group.trajectories was replaced after its steps were "
                         "stacked; build a new RolloutGroup for new trajectories")
    params = ref_policy.net.parameters()
    if (len(params) != len(terms.ref_params)
            or any(a is not b for a, b in zip(params, terms.ref_params))):
        terms.ref_params = params
        terms.ref = _policy_terms(ref_policy, terms.feats)[1:]
    return terms


def step_log_probs(policy: TimePolicy, traj: Trajectory) -> np.ndarray:
    """Beta log-density under policy of each kept prediction of traj."""
    return _step_log_pdf(policy, _stack_steps([traj], policy.net.sizes[0]))


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


def ppo_loss(policy: TimePolicy, ref_policy: TimePolicy, group: RolloutGroup,
             cfg: RLConfig) -> PpoLossResult:
    """Trajectory-as-action PPO loss on one group, with exact gradients.

    loss = mean over kept trajectories of -(surrogate_i - kl_weight * KL_i),
    surrogate_i = ratio_i * adv_i (pessimistically clipped when cfg.clip > 0),
    KL_i = mean over the trajectory's steps of KL(ref || policy) at the
    visited features. Gradients flow only through the current policy.
    The group keeps its stacked steps and ref_policy's terms between calls
    (_group_terms), so ref_policy must not be edited in place meanwhile.
    """
    trajs = group.trajectories
    advs = np.array([rec.advantage for rec in group.rewards])
    if advs.shape[0] != len(trajs):
        raise ValueError("advantages must be computed before ppo_loss")

    terms = _group_terms(group, ref_policy)
    seg, m = terms.seg, terms.steps
    acts, alpha, beta, log_b, psi_a, psi_b, psi_ab = _policy_terms(policy, terms.feats)
    ref_alpha, ref_beta, ref_log_b, ref_psi_a, ref_psi_b, ref_psi_ab = terms.ref

    log_pdf = _log_pdf(terms.log_r, terms.log_1mr, alpha, beta, log_b)
    new_lp = np.bincount(seg, weights=log_pdf, minlength=len(trajs))
    ratio = np.exp(new_lp - group.old_log_probs)

    kept = np.isfinite(ratio)
    n_dropped = int(np.count_nonzero(~kept))
    if n_dropped:
        logger.warning("dropping %d trajectories with non-finite importance ratio",
                       n_dropped)
        # neutralize before any arithmetic: 0 * inf would poison the masked sums
        ratio = np.where(kept, ratio, 0.0)
    n_kept = int(np.count_nonzero(kept))
    if n_kept == 0:
        return PpoLossResult(0.0, np.zeros(policy.net.n_params), 0.0, n_dropped)

    unclipped = ratio * advs
    if cfg.clip > 0.0:
        clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * advs
        surrogate = np.minimum(unclipped, clipped)
        use_unclipped = unclipped <= clipped
    else:
        surrogate = unclipped
        use_unclipped = np.ones_like(ratio, dtype=bool)

    # KL(ref || policy) at each step
    kl_steps = (log_b - ref_log_b + (ref_alpha - alpha) * ref_psi_a
                + (ref_beta - beta) * ref_psi_b
                + (alpha - ref_alpha + beta - ref_beta) * ref_psi_ab)
    kl_per_traj = np.bincount(seg, weights=kl_steps, minlength=len(trajs)) / m

    keep_f = kept.astype(float)
    loss = float(np.sum(keep_f * (-surrogate + cfg.kl_weight * kl_per_traj)) / n_kept)
    mean_kl = float(np.sum(keep_f * kl_per_traj) / n_kept)

    # d loss / d log_pdf_m: the surrogate branch actually taken, per step
    surr_coef = -(keep_f * use_unclipped * advs * ratio / n_kept)[seg]
    dlp_da = terms.log_r - psi_a + psi_ab
    dlp_db = terms.log_1mr - psi_b + psi_ab

    # d loss / d kl_m, then d kl / d (alpha_q, beta_q)
    kl_coef = (cfg.kl_weight * keep_f / n_kept / m)[seg]
    dkl_da = psi_a - psi_ab - ref_psi_a + ref_psi_ab
    dkl_db = psi_b - psi_ab - ref_psi_b + ref_psi_ab

    out_grad = np.stack([
        (surr_coef * dlp_da + kl_coef * dkl_da),
        (surr_coef * dlp_db + kl_coef * dkl_db),
    ], axis=1) * shape_grad_wrt_raw(acts[-1])
    grad, _ = policy.net.backward(terms.feats, out_grad, acts)
    return PpoLossResult(loss, grad, mean_kl, n_dropped)


@dataclass
class MetricsRow:
    outer_step: int
    mean_reward: float
    mean_ir: float
    mean_n: float
    mean_kl: float
    grad_norm: float


def rollout_group(policy: TimePolicy, velocity_field: VelocityField,
                  target: TargetSpec, sched: ScheduleConfig, k: int,
                  rng: RngStream, gamma: float) -> RolloutGroup:
    """k rollouts from one shared noise draw, with rewards and advantages.

    Old log-probs are scored over the stack the group keeps for ppo_loss, so
    the first inner epoch's ratios are exactly 1 (a forward over other
    batches, one trajectory at a time say, can differ in the last bits)."""
    return _rollout_groups(policy, velocity_field, target, sched, k, [rng], gamma)[0]


def _rollout_groups(policy: TimePolicy, velocity_field: VelocityField,
                    target: TargetSpec, sched: ScheduleConfig, k: int,
                    rngs: Sequence[RngStream], gamma: float) -> list[RolloutGroup]:
    """rollout_group for each stream of rngs, every rollout in one lane batch."""
    noise = np.array([rng.child(0).standard_normal(velocity_field.d) for rng in rngs])
    lanes = roll_lanes(velocity_field, sched,
                       [rng.child(1 + j) for rng in rngs for j in range(k)],
                       np.repeat(noise, k, axis=0), policy)
    all_trajs = lanes.trajectories()
    all_irs = toy_reward(lanes.finals, target)
    groups = []
    for g in range(len(rngs)):
        trajs, irs = all_trajs[g * k:(g + 1) * k], all_irs[g * k:(g + 1) * k]
        terms = _stack_steps(trajs, policy.net.sizes[0])
        old_lp = np.bincount(terms.seg, weights=_step_log_pdf(policy, terms),
                             minlength=k)
        group = RolloutGroup(target, noise[g], trajs, old_lp)
        group._terms = terms
        discounted = [discounted_reward(ir, t.n_steps, gamma)
                      for ir, t in zip(irs, trajs)]
        advs = rloo_advantages(discounted)
        group.rewards = [
            RewardRecord(float(ir), disc, float(adv), t.n_steps)
            for ir, disc, adv, t in zip(irs, discounted, advs, trajs)
        ]
        groups.append(group)
    return groups


def train_tpm(policy: TimePolicy, fields: VelocityField | Sequence[VelocityField],
              targets: TargetSpec | Sequence[TargetSpec], cfg: RLConfig,
              sched: ScheduleConfig, rng: RngStream,
              checkpoint_path: Optional[str | Path] = None,
              ) -> tuple[TimePolicy, list[MetricsRow]]:
    """PPO training of the decay policy against frozen velocity fields.

    Groups cycle round-robin over the provided (field, target) pairs. The
    reference policy is frozen at entry. Divergence (non-finite parameters or
    loss) aborts, leaving the last finite checkpoint on disk when a path is
    given, and returns the last-good policy.
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
        groups = [None] * n_groups
        for pair in range(len(targets)):
            ids = [g for g in range(n_groups)
                   if (outer * n_groups + g) % len(targets) == pair]
            if not ids:
                continue
            rolled = _rollout_groups(policy, fields[pair], targets[pair], sched,
                                     cfg.group_size,
                                     [rng.child(outer, g) for g in ids], cfg.gamma)
            for g, grp in zip(ids, rolled):
                groups[g] = grp
        recs = [rec for grp in groups for rec in grp.rewards]
        mean_reward = float(np.mean([rec.discounted for rec in recs]))
        mean_ir = float(np.mean([rec.ir for rec in recs]))
        mean_n = float(np.mean([rec.n_steps for rec in recs]))

        mean_kl = 0.0
        grad_norm_val = 0.0
        aborted = False
        for epoch in range(cfg.inner_epochs):
            total = np.zeros(net.n_params)
            losses = []
            kls = []
            for grp in groups:
                res = ppo_loss(policy, ref_policy, grp, cfg)
                losses.append(res.loss)
                kls.append(res.mean_kl)
                total += res.grad
            total = total / len(groups)
            if epoch == 0:
                mean_kl = float(np.mean(kls))
            if not np.isfinite(np.mean(losses)) or not np.all(np.isfinite(total)):
                logger.warning("aborting at outer step %d: non-finite loss/gradient",
                               outer)
                aborted = True
                break
            grad_norm_val = clip_global_norm(net.unflatten(total), cfg.max_grad_norm)
            [net.theta], state = adamw_step([net.theta], [total], state)
        if aborted or not np.all(np.isfinite(net.theta)):
            policy = last_good
            break
        metrics.append(MetricsRow(outer, mean_reward, mean_ir, mean_n,
                                  mean_kl, grad_norm_val))
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
        dl_dt1 = np.zeros(batch_size)
        for i in range(batch_size):
            _, g_jx, g_jt = velocity_field.velocity_vjp(x1[i], float(t1[i]), g_y[i])
            dl_dt1[i] = (float(g_y[i] @ v0[i]) - float(g_y[i] @ v1[i])
                         - float(t1[i]) * (float(g_jx @ v0[i]) + g_jt))
        denom = (alpha + beta) ** 2
        out_grad = np.stack([
            dl_dt1 * beta / denom,
            dl_dt1 * (-alpha) / denom,
        ], axis=1) * shape_grad_wrt_raw(raw)
        grad, _ = net.backward(feats, out_grad, acts)
        clip_global_norm(net.unflatten(grad), 1.0)
        [net.theta], state = adamw_step([net.theta], [grad], state)
    return policy, losses
