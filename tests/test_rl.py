"""Reward shaping, RLOO baselining, trajectory-as-action PPO, and the
training loops: hand-computed examples, scalar-path oracles against the
vectorized implementations, and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowsched.flow import (VelocityField, ref_log_density, ring_mixture_target,
                            standard_normal_target)
from flowsched.policy import (RAW_PARAM_CLAMP, TimePolicy, init_policy,
                              raw_to_shape, tpm_params_batch)
from flowsched.rl import (IR_CLAMP, MetricsRow, PpoLossResult, RLConfig,
                          RolloutGroup, _rollout_groups, discounted_reward, ppo_loss,
                          rloo_advantages, rollout_group, step_log_probs,
                          toy_reward, train_naive_two_step, train_tpm,
                          traj_log_prob, write_metrics_csv)
from flowsched.rng import RngStream
from flowsched.sampler import (ScheduleConfig, Trajectory, sample_adaptive,
                               sample_fixed)
from flowsched.special_math import (BetaParams, beta_kl, beta_log_pdf, digamma,
                                    log_gamma)

from beta_reference import log_pdf_grad_wrt_raw

STD2 = standard_normal_target(2)


def oracle_field():
    return VelocityField("oracle", target=STD2)


def small_policy(seed: int, r_target: float = 0.7, jitter: float = 0.0) -> TimePolicy:
    policy = init_policy(2, r_target, RngStream(seed, 0), hidden=(8,))
    if jitter:
        jrng = RngStream(seed, 1)
        params = [p + jitter * jrng.standard_normal(p.shape)
                  for p in policy.net.parameters()]
        policy.net.set_parameters(params)
    return policy


# ---------------------------------------------------------------- toy_reward


def test_toy_reward_standard_normal_mode_is_one():
    assert abs(toy_reward(np.zeros(2), STD2) - 1.0) <= 1e-12


def test_toy_reward_typical_shell_is_zero():
    y = np.array([math.sqrt(2.0), 0.0])
    assert abs(toy_reward(y, STD2)) <= 1e-12


def test_toy_reward_far_tail_clamps():
    assert toy_reward(np.array([10.0, 10.0]), STD2) == IR_CLAMP


@pytest.mark.parametrize("target", [ring_mixture_target(4), STD2],
                         ids=["ring4", "standard_normal"])
def test_toy_reward_batch_equals_per_sample(target):
    # spread wide enough that the far tail reaches the clamp
    pts = 3.0 * RngStream(63, 0).standard_normal((2000, 2))
    batch = toy_reward(pts, target)
    assert batch.shape == (2000,) and np.any(batch == IR_CLAMP)
    assert batch.tolist() == [toy_reward(p, target) for p in pts]
    with pytest.raises(ValueError, match="non-finite"):
        toy_reward(np.vstack([pts[:3], [[np.inf, 0.0]]]), target)


def test_toy_reward_rejects_non_finite():
    with pytest.raises(ValueError):
        toy_reward(np.array([np.nan, 0.0]), STD2)


# ---------------------------------------------------------- discounted_reward


def test_discounted_reward_closed_form_examples():
    # gamma=0.9, N=3: (1 - 0.729) / (3 * 0.1)
    assert abs(discounted_reward(1.0, 3, 0.9) - 0.9033333333333333) <= 1e-12
    assert abs(discounted_reward(-4.0, 10, 0.95) - (-3.2101044860929704)) <= 1e-12
    assert discounted_reward(2.5, 1, 0.3) == 2.5
    assert discounted_reward(-7.0, 23, 1.0) == -7.0


def test_discounted_reward_domain_errors():
    with pytest.raises(ValueError):
        discounted_reward(1.0, 0, 0.9)
    for g in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            discounted_reward(1.0, 3, g)


@given(st.floats(0.01, 8.0), st.integers(1, 60), st.floats(0.05, 0.99))
def test_discounted_reward_decreases_with_step_count(ir, n, gamma):
    assert discounted_reward(ir, n + 1, gamma) < discounted_reward(ir, n, gamma)


@given(st.floats(0.01, 8.0), st.integers(2, 60),
       st.floats(0.05, 0.95), st.floats(1e-3, 0.04))
def test_discounted_reward_increases_with_gamma(ir, n, gamma, bump):
    assert discounted_reward(ir, n, gamma + bump) > discounted_reward(ir, n, gamma)


@given(st.floats(-8.0, 8.0), st.integers(1, 60), st.floats(0.05, 0.99))
def test_discounted_reward_is_linear_in_ir(ir, n, gamma):
    assert discounted_reward(-ir, n, gamma) == -discounted_reward(ir, n, gamma)


# ------------------------------------------------------------ rloo_advantages


def test_rloo_hand_example():
    np.testing.assert_allclose(rloo_advantages([1.0, 2.0, 3.0]),
                               [-1.5, 0.0, 1.5], atol=1e-15)


def test_rloo_constant_rewards_give_zero():
    assert np.all(rloo_advantages([4.2] * 5) == 0.0)


def test_rloo_needs_two():
    with pytest.raises(ValueError):
        rloo_advantages([1.0])


@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8))
def test_rloo_sums_to_zero(rewards):
    assert abs(rloo_advantages(rewards).sum()) <= 1e-12


@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8),
       st.floats(-5.0, 5.0))
def test_rloo_is_shift_invariant(rewards, c):
    shifted = rloo_advantages([r + c for r in rewards])
    np.testing.assert_allclose(shifted, rloo_advantages(rewards), atol=1e-12)


@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8))
def test_rloo_matches_mean_baseline_form(rewards):
    r = np.asarray(rewards)
    k = len(rewards)
    expected = (r - r.mean()) * k / (k - 1)
    np.testing.assert_allclose(rloo_advantages(rewards), expected, atol=1e-12)


# -------------------------------------------------------------- traj_log_prob


def test_traj_log_prob_matches_step_sum():
    # array scores against the scalar Beta log-density at the 1-D forward's shapes
    policy = small_policy(21, jitter=0.05)
    traj = sample_adaptive(policy, oracle_field(), ScheduleConfig(), RngStream(21, 2))
    assert traj.decay_rates
    scalar = [beta_log_pdf(r, *map(float, raw_to_shape(policy.net.forward(f))))
              for r, f in zip(traj.decay_rates, traj.features)]
    np.testing.assert_allclose(step_log_probs(policy, traj), scalar, rtol=0, atol=1e-12)
    assert abs(traj_log_prob(policy, traj) - sum(scalar)) <= 1e-9


def test_traj_log_prob_single_prediction_hand_check():
    policy = small_policy(22)
    cfg = ScheduleConfig(mode="adaptive", t_min=0.1, n_max=3)
    traj = sample_adaptive(policy, oracle_field(), cfg, RngStream(22, 2))
    if len(traj.decay_rates) == 1:
        _, alpha, beta = tpm_params_batch(policy, np.stack(traj.features))
        expected = beta_log_pdf(traj.decay_rates[0], float(alpha[0]), float(beta[0]))
        assert abs(traj_log_prob(policy, traj) - expected) <= 1e-12


def test_traj_log_prob_without_predictions_is_zero():
    cfg = ScheduleConfig(mode="fixed-uniform", fixed_n=4)
    traj = sample_fixed(oracle_field(), cfg, RngStream(23, 0))
    assert traj_log_prob(small_policy(23), traj) == 0.0


# ------------------------------------------------------------- rollout groups


def test_rollout_group_shares_noise_and_baselines():
    policy = small_policy(31, jitter=0.05)
    group = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                          RngStream(31, 2), gamma=0.95)
    assert len(group.trajectories) == 4
    for traj in group.trajectories:
        assert np.array_equal(traj.states[0], group.initial_noise)
    assert abs(sum(rec.advantage for rec in group.rewards)) <= 1e-12
    for rec, traj in zip(group.rewards, group.trajectories):
        assert rec.n_steps == traj.n_steps
        assert rec.ir >= IR_CLAMP
        assert abs(rec.discounted
                   - discounted_reward(rec.ir, rec.n_steps, 0.95)) <= 1e-12
    recomputed = [traj_log_prob(policy, t) for t in group.trajectories]
    np.testing.assert_allclose(group.old_log_probs, recomputed, atol=1e-9)


def test_rollout_group_is_deterministic():
    policy = small_policy(32, jitter=0.05)
    a = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                      RngStream(32, 2), gamma=0.9)
    b = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                      RngStream(32, 2), gamma=0.9)
    assert np.array_equal(a.old_log_probs, b.old_log_probs)
    assert [r.discounted for r in a.rewards] == [r.discounted for r in b.rewards]


def test_rollout_group_validation():
    policy = small_policy(33)
    t1 = sample_adaptive(policy, oracle_field(), ScheduleConfig(), RngStream(33, 1))
    t2 = sample_adaptive(policy, oracle_field(), ScheduleConfig(), RngStream(33, 2))
    with pytest.raises(ValueError, match="share the initial noise"):
        RolloutGroup(STD2, t1.states[0], [t1, t2], np.zeros(2))
    with pytest.raises(ValueError, match="k >= 2"):
        RolloutGroup(STD2, t1.states[0], [t1], np.zeros(1))


def test_rl_config_validation():
    for kwargs in ({"gamma": 0.0}, {"gamma": 1.1}, {"kl_weight": -0.1},
                   {"clip": -0.2}, {"group_size": 1},
                   {"batch_size": 10, "group_size": 4}, {"inner_epochs": 0},
                   {"outer_steps": 0}, {"lr": 0.0}, {"max_grad_norm": 0.0}):
        with pytest.raises(ValueError):
            RLConfig(**kwargs)


# ------------------------------------------------------------------- ppo_loss


def make_group(policy, seed: int, k: int = 4, gamma: float = 0.95) -> RolloutGroup:
    return rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), k,
                         RngStream(seed, 9), gamma)


def test_ppo_loss_at_reference_point_is_minus_mean_advantage():
    policy = small_policy(41, jitter=0.05)
    group = make_group(policy, 41)
    custom = [0.7, -0.2, 1.1, 0.4]
    for rec, adv in zip(group.rewards, custom):
        rec.advantage = adv
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    res = ppo_loss(policy, policy, group, cfg)
    assert res.n_dropped == 0
    assert abs(res.loss - (-np.mean(custom))) <= 1e-12
    assert res.mean_kl <= 1e-15


def test_ppo_loss_zero_advantage_at_reference_is_flat():
    policy = small_policy(42, jitter=0.05)
    group = make_group(policy, 42)
    for rec in group.rewards:
        rec.advantage = 0.0
    res = ppo_loss(policy, policy, group, RLConfig(kl_weight=0.5, clip=0.2))
    assert abs(res.loss) <= 1e-12
    assert all(np.all(np.abs(g) <= 1e-12) for g in res.grads)


def test_ppo_loss_reinforce_identity_at_reference_point():
    # at theta = theta_old with no clipping and no KL term the gradient is
    # -(1/k) sum_i A_i * d log pi(traj_i) / d params; rebuilt per step from
    # the scalar-path log-pdf chain rule as an independent oracle
    policy = small_policy(43, jitter=0.05)
    group = make_group(policy, 43)
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    res = ppo_loss(policy, policy, group, cfg)

    k = len(group.trajectories)
    expected = [np.zeros_like(p) for p in policy.net.parameters()]
    for traj, rec in zip(group.trajectories, group.rewards):
        feats = np.stack(traj.features)
        raw, alpha, beta = tpm_params_batch(policy, feats)
        out = np.stack([
            log_pdf_grad_wrt_raw(r, raw[m], float(alpha[m]), float(beta[m]))
            for m, r in enumerate(traj.decay_rates)
        ])
        g, _ = policy.net.backward(feats, out)
        for acc, gi in zip(expected, g):
            acc -= rec.advantage / k * gi
    for got, want in zip(res.grads, expected):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_ppo_loss_kl_term_matches_scalar_oracle():
    ref = small_policy(44, jitter=0.05)
    policy = small_policy(44, jitter=0.05)
    params = [p + 0.05 * RngStream(44, 7).child(i).standard_normal(p.shape)
              for i, p in enumerate(policy.net.parameters())]
    policy.net.set_parameters(params)
    group = make_group(ref, 44)
    for rec in group.rewards:
        rec.advantage = 0.0
    res = ppo_loss(policy, ref, group, RLConfig(kl_weight=1.0, clip=0.2))

    kls = []
    for traj in group.trajectories:
        feats = np.stack(traj.features)
        _, a_q, b_q = tpm_params_batch(policy, feats)
        _, a_p, b_p = tpm_params_batch(ref, feats)
        per_step = [beta_kl(BetaParams(float(a_p[m]), float(b_p[m])),
                            BetaParams(float(a_q[m]), float(b_q[m])))
                    for m in range(feats.shape[0])]
        kls.append(np.mean(per_step))
    assert abs(res.mean_kl - np.mean(kls)) <= 1e-10
    assert abs(res.loss - np.mean(kls)) <= 1e-10


def test_ppo_loss_gradients_match_finite_differences():
    ref = small_policy(45, jitter=0.05)
    policy = small_policy(45, jitter=0.05)
    bump = [p + 0.03 * RngStream(45, 7).child(i).standard_normal(p.shape)
            for i, p in enumerate(policy.net.parameters())]
    policy.net.set_parameters(bump)
    group = make_group(ref, 45)
    cfg = RLConfig(kl_weight=0.3, clip=0.2)
    res = ppo_loss(policy, ref, group, cfg)
    assert res.n_dropped == 0

    h = 1e-6
    params = policy.net.parameters()
    for idx, (p, g) in enumerate(zip(params, res.grads)):
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            fd_vals = []
            for delta in (h, -h):
                trial = [q.copy() for q in params]
                trial[idx].ravel()[j] = orig + delta
                policy.net.set_parameters(trial)
                fd_vals.append(ppo_loss(policy, ref, group, cfg).loss)
            policy.net.set_parameters(params)
            fd = (fd_vals[0] - fd_vals[1]) / (2 * h)
            assert abs(fd - flat_g[j]) <= 1e-3 * max(1.0, abs(fd)), (
                f"param block {idx}, entry {j}: fd={fd}, grad={flat_g[j]}")


def test_ppo_loss_drops_non_finite_ratios(caplog):
    policy = small_policy(46, jitter=0.05)
    group = make_group(policy, 46)
    custom = [0.5, -0.5, 1.0, -1.0]
    for rec, adv in zip(group.rewards, custom):
        rec.advantage = adv
    group.old_log_probs = group.old_log_probs.copy()
    group.old_log_probs[0] = -1e9
    with caplog.at_level("WARNING", logger="flowsched.rl"), np.errstate(over="ignore"):
        res = ppo_loss(policy, policy, group, RLConfig(kl_weight=0.0, clip=0.0))
    assert res.n_dropped == 1
    assert "non-finite importance ratio" in caplog.text
    assert abs(res.loss - (-np.mean(custom[1:]))) <= 1e-12
    assert all(np.all(np.isfinite(g)) for g in res.grads)


def test_first_epoch_importance_ratio_is_exactly_one():
    # no KL, no clipping and a one-hot advantage leave loss = -ratio_i / k
    # with every operation exact, so -k * loss is trajectory i's ratio
    policy = small_policy(48, jitter=0.05)
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    ratios = []
    for g in range(64):
        group = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                              RngStream(48, 2).child(g), 0.95)
        for i in range(4):
            for j, rec in enumerate(group.rewards):
                rec.advantage = float(i == j)
            ratios.append(-4 * ppo_loss(policy, policy, group, cfg).loss)
    assert len(ratios) == 256 and all(r == 1.0 for r in ratios)


def test_batched_groups_match_single_group_rollouts():
    # train_tpm rolls all groups of a field in one lane batch: same draws and
    # step counts as one group at a time, and still an epoch-0 ratio of 1
    policy = small_policy(49, jitter=0.05)
    streams = [RngStream(49, 2).child(g) for g in range(6)]
    batched = _rollout_groups(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                              streams, 0.95)
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    for g, group in enumerate(batched):
        alone = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                              RngStream(49, 2).child(g), 0.95)
        assert np.array_equal(group.initial_noise, alone.initial_noise)
        assert ([r.n_steps for r in group.rewards]
                == [r.n_steps for r in alone.rewards])
        for a, b in zip(group.trajectories, alone.trajectories):
            np.testing.assert_allclose(a.decay_rates, b.decay_rates, rtol=1e-12)
        np.testing.assert_allclose(group.old_log_probs, alone.old_log_probs,
                                   rtol=1e-12)
        for i in range(4):
            for j, rec in enumerate(group.rewards):
                rec.advantage = float(i == j)
            assert -4 * ppo_loss(policy, policy, group, cfg).loss == 1.0


def test_ppo_loss_rejects_replaced_trajectories():
    # the cached stack belongs to the list it was built from; scoring it
    # against another list's advantages would be silently wrong
    policy = small_policy(50, jitter=0.05)
    group = make_group(policy, 50)
    group.trajectories = list(group.trajectories)
    with pytest.raises(ValueError, match="build a new RolloutGroup"):
        ppo_loss(policy, policy, group, RLConfig())


def test_ppo_loss_requires_advantages():
    policy = small_policy(47)
    traj = [sample_adaptive(policy, oracle_field(), ScheduleConfig(),
                            RngStream(47, 2), initial_noise=np.ones(2))
            for _ in range(2)]
    group = RolloutGroup(STD2, np.ones(2), traj,
                         np.array([traj_log_prob(policy, t) for t in traj]))
    with pytest.raises(ValueError, match="advantages"):
        ppo_loss(policy, policy, group, RLConfig())


# ------------------------------------- ppo_loss against the separate-call form


def _log_beta(a, b):
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def separate_call_ppo_loss(policy, ref_policy, group, cfg):
    """ppo_loss with every Beta term from its own log_gamma / digamma call and
    both policies evaluated afresh; returns (loss, grads, mean_kl, n_dropped)."""
    trajs = group.trajectories
    advs = np.array([rec.advantage for rec in group.rewards])
    counts = [len(t.decay_rates) for t in trajs]
    feats = np.concatenate([np.stack(t.features) for t in trajs if t.features])
    rates = np.concatenate([np.asarray(t.decay_rates) for t in trajs])
    seg = np.repeat(np.arange(len(trajs)), counts)
    raw, alpha, beta = tpm_params_batch(policy, feats)
    _, ref_alpha, ref_beta = tpm_params_batch(ref_policy, feats)

    log_pdf = ((alpha - 1.0) * np.log(rates) + (beta - 1.0) * np.log1p(-rates)
               - _log_beta(alpha, beta))
    ratio = np.exp(np.bincount(seg, weights=log_pdf, minlength=len(trajs))
                   - group.old_log_probs)
    kept = np.isfinite(ratio)
    n_dropped = int(np.count_nonzero(~kept))
    ratio = np.where(kept, ratio, 0.0)
    n_kept = int(np.count_nonzero(kept))
    unclipped = ratio * advs
    if cfg.clip > 0.0:
        clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * advs
        surrogate = np.minimum(unclipped, clipped)
        use_unclipped = unclipped <= clipped
    else:
        surrogate = unclipped
        use_unclipped = np.ones_like(ratio, dtype=bool)
    kl_steps = (_log_beta(alpha, beta) - _log_beta(ref_alpha, ref_beta)
                + (ref_alpha - alpha) * digamma(ref_alpha)
                + (ref_beta - beta) * digamma(ref_beta)
                + (alpha - ref_alpha + beta - ref_beta) * digamma(ref_alpha + ref_beta))
    m = np.maximum(np.asarray(counts), 1)
    kl_per_traj = np.bincount(seg, weights=kl_steps, minlength=len(trajs)) / m
    keep_f = kept.astype(float)
    loss = float(np.sum(keep_f * (-surrogate + cfg.kl_weight * kl_per_traj)) / n_kept)
    mean_kl = float(np.sum(keep_f * kl_per_traj) / n_kept)

    surr_coef = -(keep_f * use_unclipped * advs * ratio / n_kept)[seg]
    psi_ab = digamma(alpha + beta)
    dlp_da = np.log(rates) - digamma(alpha) + psi_ab
    dlp_db = np.log1p(-rates) - digamma(beta) + psi_ab
    kl_coef = (cfg.kl_weight * keep_f / n_kept / m)[seg]
    dkl_da = digamma(alpha) - psi_ab - digamma(ref_alpha) + digamma(ref_alpha + ref_beta)
    dkl_db = digamma(beta) - psi_ab - digamma(ref_beta) + digamma(ref_alpha + ref_beta)
    inside = np.abs(raw) < RAW_PARAM_CLAMP
    shape_jac = np.exp(np.clip(raw, -RAW_PARAM_CLAMP, RAW_PARAM_CLAMP)) * inside
    out_grad = np.stack([surr_coef * dlp_da + kl_coef * dkl_da,
                         surr_coef * dlp_db + kl_coef * dkl_db], axis=1) * shape_jac
    grads, _ = policy.net.backward(feats, out_grad)
    return loss, grads, mean_kl, n_dropped


def perturbed(policy: TimePolicy, seed: int, scale: float = 0.5) -> TimePolicy:
    out = policy.copy()
    out.net.set_parameters([p + scale * RngStream(seed, 7).child(i).standard_normal(p.shape)
                            for i, p in enumerate(out.net.parameters())])
    return out


def zero_prediction_trajectory(noise: np.ndarray) -> Trajectory:
    return Trajectory(times=[1.0, 0.0], states=[noise, noise], decay_rates=[],
                      features=[])


def with_trajectories(group, trajs, old_log_probs) -> RolloutGroup:
    """A new group over trajs keeping group's rewards; a group caches its
    stacked steps, so its trajectories are replaced, not edited in place."""
    out = RolloutGroup(group.target, group.initial_noise, trajs, old_log_probs)
    out.rewards = group.rewards
    return out


def assert_matches_separate_calls(policy, ref, group, cfg):
    # twice: the second call runs on the terms the first one cached
    for _ in range(2):
        res = ppo_loss(policy, ref, group, cfg)
        loss, grads, mean_kl, n_dropped = separate_call_ppo_loss(policy, ref, group, cfg)
        assert (res.loss, res.mean_kl, res.n_dropped) == (loss, mean_kl, n_dropped)
        assert len(res.grads) == len(grads)
        for got, want in zip(res.grads, grads):
            assert np.array_equal(got, want)
    return res


@pytest.mark.parametrize("clip", [0.0, 0.2])
def test_ppo_loss_equals_separate_call_form(clip):
    ref = small_policy(71, jitter=0.3)
    policy = perturbed(ref, 71)
    cfg = RLConfig(kl_weight=0.3, clip=clip)
    for seed in (71, 72, 73):
        assert_matches_separate_calls(policy, ref, make_group(ref, seed), cfg)
    group = make_group(ref, 74)
    assert_matches_separate_calls(ref, ref, group, cfg)
    assert_matches_separate_calls(policy, ref, group, cfg)


@pytest.mark.parametrize("clip", [0.0, 0.2])
def test_ppo_loss_equals_separate_call_form_with_zero_prediction_trajectory(clip):
    ref = small_policy(75, jitter=0.3)
    group = make_group(ref, 75)
    trajs = list(group.trajectories)
    trajs[2] = zero_prediction_trajectory(group.initial_noise)
    old_lp = group.old_log_probs.copy()
    old_lp[2] = 0.0
    group = with_trajectories(group, trajs, old_lp)
    assert_matches_separate_calls(perturbed(ref, 75), ref, group, RLConfig(clip=clip))


@pytest.mark.parametrize("clip", [0.0, 0.2])
def test_ppo_loss_equals_separate_call_form_with_non_finite_ratio(clip):
    ref = small_policy(76, jitter=0.3)
    group = make_group(ref, 76)
    group.old_log_probs = group.old_log_probs.copy()
    group.old_log_probs[1] = -1e9
    with np.errstate(over="ignore"):
        res = assert_matches_separate_calls(perturbed(ref, 76), ref, group,
                                            RLConfig(clip=clip))
    assert res.n_dropped == 1


def test_ppo_loss_without_any_prediction_is_zero():
    ref = small_policy(77)
    group = make_group(ref, 77)
    noise = group.initial_noise
    group = with_trajectories(group, [zero_prediction_trajectory(noise)] * 4, np.zeros(4))
    res = ppo_loss(perturbed(ref, 77), ref, group, RLConfig())
    advs = np.array([rec.advantage for rec in group.rewards])
    assert res.loss == float(np.sum(-advs) / len(advs))
    assert (res.mean_kl, res.n_dropped) == (0.0, 0)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in res.grads)


def test_ppo_loss_recomputes_reference_terms_for_new_reference():
    ref = small_policy(78, jitter=0.3)
    policy = perturbed(ref, 78)
    other = perturbed(ref, 79)
    group = make_group(ref, 78)
    cfg = RLConfig(kl_weight=1.0)
    assert_matches_separate_calls(policy, ref, group, cfg)
    assert_matches_separate_calls(policy, other, group, cfg)
    # same object, new parameter arrays
    other.net.set_parameters(perturbed(other, 80).net.parameters())
    assert_matches_separate_calls(policy, other, group, cfg)


def test_train_tpm_evaluates_reference_once_per_group_and_outer_step(monkeypatch):
    import flowsched.rl as rl

    cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                   batch_size=12, inner_epochs=3, lr=3e-3, outer_steps=2)
    policy = init_policy(2, 0.7, RngStream(81, 0), hidden=(8,))
    calls = {"live": 0, "other": 0}

    def counting(pol, feats):
        calls["live" if pol is policy else "other"] += 1
        return tpm_params_batch(pol, feats)

    monkeypatch.setattr(rl, "tpm_params_batch", counting)
    _, metrics = train_tpm(policy, oracle_field(), STD2, cfg, ScheduleConfig(),
                           RngStream(81, 1))
    n_groups = cfg.batch_size // cfg.group_size
    assert len(metrics) == cfg.outer_steps
    assert calls["other"] == cfg.outer_steps * n_groups
    # one forward scores each group's old log-probs, then one per inner epoch
    assert calls["live"] == cfg.outer_steps * n_groups * (cfg.inner_epochs + 1)


# -------------------------------------------------------------- training loop


def test_train_tpm_high_kl_weight_pins_policy_to_reference():
    cfg = RLConfig(gamma=0.95, kl_weight=1e3, clip=0.2, group_size=4,
                   batch_size=16, inner_epochs=2, lr=3e-3, outer_steps=10)
    policy = init_policy(2, 0.75, RngStream(51, 0), hidden=(16,))
    trained, metrics = train_tpm(policy, oracle_field(), STD2, cfg,
                                 ScheduleConfig(), RngStream(51, 1))
    assert len(metrics) == 10
    assert metrics[-1].mean_kl < 0.01


def test_train_tpm_is_deterministic():
    def run():
        cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                       batch_size=8, inner_epochs=2, lr=3e-3, outer_steps=5)
        policy = init_policy(2, 0.7, RngStream(52, 0), hidden=(8,))
        return train_tpm(policy, oracle_field(), STD2, cfg, ScheduleConfig(),
                         RngStream(52, 1))

    p1, m1 = run()
    p2, m2 = run()
    assert m1 == m2
    assert [r.outer_step for r in m1] == list(range(5))
    for a, b in zip(p1.net.parameters(), p2.net.parameters()):
        assert np.array_equal(a, b)


def test_train_tpm_writes_checkpoint(tmp_path):
    cfg = RLConfig(group_size=2, batch_size=4, inner_epochs=1, lr=1e-3,
                   outer_steps=2)
    policy = init_policy(2, 0.7, RngStream(53, 0), hidden=(8,))
    path = tmp_path / "policy.bin"
    train_tpm(policy, oracle_field(), STD2, cfg, ScheduleConfig(),
              RngStream(53, 1), checkpoint_path=path)
    assert path.exists() and path.stat().st_size > 0


def test_train_tpm_rejects_mismatched_fields_and_targets():
    policy = init_policy(2, 0.7, RngStream(54, 0), hidden=(8,))
    with pytest.raises(ValueError, match="one velocity field per target"):
        train_tpm(policy, [oracle_field()], [STD2, STD2], RLConfig(),
                  ScheduleConfig(), RngStream(54, 1))


def test_write_metrics_csv_layout(tmp_path):
    rows = [MetricsRow(0, 0.5, 0.25, 12.0, 0.01, 1.5),
            MetricsRow(1, 0.625, 0.375, 11.5, 0.02, 0.75)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm"
    assert lines[1] == "0,0.5,0.25,12.0,0.01,1.5"
    assert len(lines) == 3


def test_write_metrics_csv_is_atomic(tmp_path, monkeypatch):
    import flowsched.nn as nn

    path = tmp_path / "metrics.csv"
    write_metrics_csv([MetricsRow(0, 0.5, 0.25, 12.0, 0.01, 1.5)], path)
    before = path.read_bytes()

    def killed(src, dst):
        raise KeyboardInterrupt  # the run dies between the write and the rename

    monkeypatch.setattr(nn.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        write_metrics_csv([MetricsRow(1, 0.6, 0.3, 11.0, 0.02, 0.5)] * 3, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


# ------------------------------------------------------------- naive baseline


def test_naive_two_step_reduces_reconstruction_error():
    policy = init_policy(2, 0.6, RngStream(61, 0), hidden=(8,))
    _, losses = train_naive_two_step(policy, oracle_field(), STD2, steps=60,
                                     lr=0.02, rng=RngStream(61, 1), batch_size=32)
    assert losses.shape == (60,)
    assert np.all(np.isfinite(losses))
    assert losses[-10:].mean() < losses[:10].mean()


def test_naive_two_step_aborts_on_divergence():
    policy = init_policy(2, 0.6, RngStream(62, 0), hidden=(8,))
    policy.net.biases[-1][0] = float("nan")
    with pytest.raises(RuntimeError, match="diverged"):
        train_naive_two_step(policy, oracle_field(), STD2, steps=3,
                             lr=0.02, rng=RngStream(62, 1), batch_size=8)
