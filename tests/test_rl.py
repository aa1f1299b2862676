"""Reward shaping, RLOO baselining, trajectory-as-action PPO, and the
training loops: hand-computed examples, scalar-path oracles against the
vectorized implementations, and finite-difference gradient checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from flowsched.cli import STREAM_RL_TRAIN, _init_policy, evaluate_policy, main
from flowsched.config import ExperimentConfig, preset_config
import flowsched.rl as rl
from flowsched.flow import (IR_CLAMP, VelocityField, make_velocity_net,
                            ring_mixture_target, single_gaussian_target,
                            standard_normal_target, toy_reward)
from flowsched.nn import DenseNet, clip_global_norm
from flowsched.policy import (RAW_PARAM_CLAMP, TimePolicy, init_policy, raw_to_shape,
                              save_policy, shape_grad_wrt_raw, step_features,
                              step_log_pdf, tpm_params_batch)
from flowsched.rl import (MetricsRow, PpoLossResult, RLConfig, Rollouts, _policy_terms,
                          _ppo_loss, discounted_reward, ppo_loss, rloo_advantages,
                          roll_groups, rollout_group, train_naive_two_step, train_tpm,
                          write_metrics_csv)
from flowsched.rng import RngStream
from flowsched.sampler import Lanes, ScheduleConfig, roll_lanes
from flowsched.special_math import (beta_log_pdf, beta_terms, digamma, kl_from_terms,
                                    log_gamma)

from beta_reference import log_pdf_grad_wrt_raw

STD2 = standard_normal_target(2)
SHIFTED = single_gaussian_target([1.0, -0.5], 0.7)


def oracle_field():
    return VelocityField("oracle", target=STD2)


def small_policy(seed: int, r_target: float = 0.7, jitter: float = 0.0) -> TimePolicy:
    policy = init_policy(2, r_target, RngStream(seed, 0), hidden=(8,))
    if jitter:
        jrng = RngStream(seed, 1)
        params = [p + jitter * jrng.standard_normal(p.shape)
                  for p in policy.net.parameters()]
        policy.net.theta = np.concatenate([p.ravel() for p in params])
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


# ------------------------------------------------------- stacked log-probs


def lanes_of(policy, cfg, rng, n, deterministic=False):
    """n adaptive rollouts, lane i drawing from rng.child(i)."""
    return roll_lanes(oracle_field(), cfg, [rng.child(i) for i in range(n)],
                      policy=policy, deterministic=deterministic)


def old_log_probs(policy, lanes):
    """Each lane's schedule log-probability as the record scores it."""
    return Rollouts.from_lanes(policy, lanes, np.zeros(len(lanes.n_steps)),
                               len(lanes.n_steps), 0.95).old_log_prob.ravel()


def test_traj_log_prob_matches_step_sum():
    # the stack scorer against the scalar Beta log-density at the 1-D
    # forward's shapes, row by row and summed per lane
    policy = small_policy(21, jitter=0.05)
    lanes = lanes_of(policy, ScheduleConfig(), RngStream(21, 2), 5)
    feats, rates, lane = lanes.kept()
    assert np.all(lanes.n_kept > 0)
    scalar = np.array([beta_log_pdf(r, *map(float, raw_to_shape(policy.net.forward(f))))
                       for r, f in zip(rates, feats)])
    np.testing.assert_allclose(step_log_pdf(policy, feats, rates), scalar, rtol=0, atol=1e-12)
    per_lane = [scalar[lane == i].sum() for i in range(5)]
    np.testing.assert_allclose(old_log_probs(policy, lanes), per_lane, rtol=0, atol=1e-9)


def test_traj_log_prob_single_prediction_hand_check():
    # a budget of two steps: one prediction, then the budget's forced last step
    policy = small_policy(22)
    cfg = ScheduleConfig(mode="adaptive", t_min=0.1, n_max=2)
    lanes = lanes_of(policy, cfg, RngStream(22, 2), 6)
    single = lanes.n_kept == 1
    assert single.any()
    _, alpha, beta, _ = tpm_params_batch(policy, lanes.feats[single, 0])
    expected = [beta_log_pdf(r, float(a), float(b))
                for r, a, b in zip(lanes.rates[single, 0], alpha, beta)]
    np.testing.assert_allclose(old_log_probs(policy, lanes)[single], expected,
                               rtol=0, atol=1e-12)


def test_traj_log_prob_without_predictions_is_zero():
    # Beta(2, ~3300): every first prediction lands below t_min and is dropped
    net = DenseNet([6, 2])
    net.biases[0][...] = (0.0, 8.1)
    policy = TimePolicy(net, 2)
    lanes = lanes_of(policy, ScheduleConfig(), RngStream(23, 0), 3, deterministic=True)
    assert lanes.n_kept.tolist() == [0, 0, 0]
    assert step_log_pdf(policy, *lanes.kept()[:2]).shape == (0,)
    assert old_log_probs(policy, lanes).tolist() == [0.0, 0.0, 0.0]


# ------------------------------------------------------------- rollout groups


def test_rollout_group_shares_noise_and_baselines():
    policy = small_policy(31, jitter=0.05)
    group = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                          RngStream(31, 2), gamma=0.95)
    lanes = roll_groups(policy, oracle_field(), ScheduleConfig(), 4, [RngStream(31, 2)])
    assert group.advantage.shape == (1, 4)
    for state in lanes.states[:, 0]:
        assert np.array_equal(state, lanes.states[0, 0])
    assert abs(group.advantage.sum()) <= 1e-12
    assert group.n_steps.ravel().tolist() == lanes.n_steps.tolist()
    for ir, n_steps, discounted in zip(group.ir.ravel(), group.n_steps.ravel(),
                                       group.reward.ravel()):
        assert ir >= IR_CLAMP
        assert abs(discounted - discounted_reward(ir, n_steps, 0.95)) <= 1e-12
    # each lane scored in a forward of its own
    recomputed = [float(np.sum(step_log_pdf(policy, lanes.feats[i, :p], lanes.rates[i, :p])))
                  for i, p in enumerate(lanes.n_kept)]
    np.testing.assert_allclose(group.old_log_prob.ravel(), recomputed, atol=1e-9)


def test_rollout_group_is_deterministic():
    policy = small_policy(32, jitter=0.05)
    a = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                      RngStream(32, 2), gamma=0.9)
    b = rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                      RngStream(32, 2), gamma=0.9)
    assert np.array_equal(a.old_log_prob, b.old_log_prob)
    assert np.array_equal(a.reward, b.reward)


def test_rollout_group_validation():
    with pytest.raises(ValueError, match="at least 2 rewards"):
        rollout_group(small_policy(33), oracle_field(), STD2, ScheduleConfig(), 1,
                      RngStream(33, 1), 0.95)


def test_discounting_and_rloo_act_per_lane_and_per_group():
    n_steps = np.array([[1, 3, 7], [40, 2, 5]])
    ir = np.array([[0.5, -1.0, 2.0], [0.25, -10.0, 1.5]])
    disc = discounted_reward(ir, n_steps, 0.9)
    assert disc.tolist() == [[discounted_reward(float(r), int(n), 0.9)
                              for r, n in zip(row_ir, row_n)]
                             for row_ir, row_n in zip(ir, n_steps)]
    assert np.array_equal(rloo_advantages(disc),
                          np.stack([rloo_advantages(row) for row in disc]))


def test_rl_config_validation():
    for kwargs in ({"gamma": 0.0}, {"gamma": 1.1}, {"kl_weight": -0.1},
                   {"clip": -0.2}, {"group_size": 1},
                   {"batch_size": 10, "group_size": 4}, {"inner_epochs": 0},
                   {"outer_steps": 0}, {"lr": 0.0}, {"max_grad_norm": 0.0}):
        with pytest.raises(ValueError):
            RLConfig(**kwargs)
    for key, value in (("gamma", 1.0), ("clip", 0), ("kl_weight", 0)):  # boundaries
        assert getattr(RLConfig(**{key: value}), key) == value


# ------------------------------------------------------------------- ppo_loss


def make_record(policy, streams, k: int = 4, gamma: float = 0.95,
                no_predictions=()) -> Rollouts:
    """The record of one group per stream, rolled as train_tpm rolls them;
    the lanes named in no_predictions keep none of their predictions."""
    lanes = roll_groups(policy, oracle_field(), ScheduleConfig(), k, streams)
    lanes.n_kept[list(no_predictions)] = 0
    return Rollouts.from_lanes(policy, lanes, toy_reward(lanes.finals, STD2), k, gamma)


def make_group(policy, seed: int, k: int = 4, gamma: float = 0.95,
               no_predictions=()) -> Rollouts:
    return make_record(policy, [RngStream(seed, 9)], k, gamma, no_predictions)


def lane_steps(record: Rollouts, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked features and rates of flat lane i."""
    mine = record.lane == i
    return record.feats[mine], record.rates[mine]


def test_ppo_loss_at_reference_point_is_minus_mean_advantage():
    policy = small_policy(41, jitter=0.05)
    group = make_group(policy, 41)
    custom = [0.7, -0.2, 1.1, 0.4]
    group.advantage[0] = custom
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    res = ppo_loss(policy, policy, group, cfg)
    assert res.n_dropped == 0
    assert abs(res.loss - (-np.mean(custom))) <= 1e-12
    assert res.mean_kl <= 1e-15


def test_ppo_loss_zero_advantage_at_reference_is_flat():
    policy = small_policy(42, jitter=0.05)
    group = make_group(policy, 42)
    group.advantage[...] = 0.0
    res = ppo_loss(policy, policy, group, RLConfig(kl_weight=0.5, clip=0.2))
    assert abs(res.loss) <= 1e-12
    assert np.all(np.abs(res.grad) <= 1e-12)


def test_ppo_loss_reinforce_identity_at_reference_point():
    # at theta = theta_old with no clipping and no KL term the gradient is
    # -(1/k) sum_i A_i * d log pi(traj_i) / d params; rebuilt per step from
    # the scalar-path log-pdf chain rule as an independent oracle
    policy = small_policy(43, jitter=0.05)
    group = make_group(policy, 43)
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    res = ppo_loss(policy, policy, group, cfg)

    k = group.advantage.size
    expected = np.zeros(policy.net.n_params)
    for i, adv in enumerate(group.advantage.ravel()):
        feats, rates = lane_steps(group, i)
        raw, alpha, beta, _ = tpm_params_batch(policy, feats)
        out = np.stack([
            log_pdf_grad_wrt_raw(r, raw[m], float(alpha[m]), float(beta[m]))
            for m, r in enumerate(rates)
        ])
        g, _ = policy.net.backward(feats, out)
        expected -= adv / k * g
    np.testing.assert_allclose(res.grad, expected, rtol=1e-9, atol=1e-12)


def test_ppo_loss_kl_term_matches_scalar_oracle():
    ref = small_policy(44, jitter=0.05)
    policy = small_policy(44, jitter=0.05)
    params = [p + 0.05 * RngStream(44, 7).child(i).standard_normal(p.shape)
              for i, p in enumerate(policy.net.parameters())]
    policy.net.theta = np.concatenate([p.ravel() for p in params])
    group = make_group(ref, 44)
    group.advantage[...] = 0.0
    res = ppo_loss(policy, ref, group, RLConfig(kl_weight=1.0, clip=0.2))

    kls = []
    for i in range(group.advantage.size):
        feats, _ = lane_steps(group, i)
        _, a_q, b_q, _ = tpm_params_batch(policy, feats)
        _, a_p, b_p, _ = tpm_params_batch(ref, feats)
        per_step = kl_from_terms((a_p, b_p, *beta_terms(a_p, b_p)),
                                 (a_q, b_q, *beta_terms(a_q, b_q)))
        kls.append(np.mean(per_step))
    assert abs(res.mean_kl - np.mean(kls)) <= 1e-10
    assert abs(res.loss - np.mean(kls)) <= 1e-10


def test_ppo_loss_gradients_match_finite_differences():
    ref = small_policy(45, jitter=0.05)
    policy = small_policy(45, jitter=0.05)
    bump = [p + 0.03 * RngStream(45, 7).child(i).standard_normal(p.shape)
            for i, p in enumerate(policy.net.parameters())]
    policy.net.theta = np.concatenate([p.ravel() for p in bump])
    group = make_group(ref, 45)
    cfg = RLConfig(kl_weight=0.3, clip=0.2)
    res = ppo_loss(policy, ref, group, cfg)
    assert res.n_dropped == 0

    h = 1e-6
    params = policy.net.parameters()
    for idx, (p, g) in enumerate(zip(params, policy.net.unflatten(res.grad))):
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            fd_vals = []
            for delta in (h, -h):
                trial = [q.copy() for q in params]
                trial[idx].ravel()[j] = orig + delta
                policy.net.theta = np.concatenate([q.ravel() for q in trial])
                fd_vals.append(ppo_loss(policy, ref, group, cfg).loss)
            policy.net.theta = np.concatenate([q.ravel() for q in params])
            fd = (fd_vals[0] - fd_vals[1]) / (2 * h)
            assert abs(fd - flat_g[j]) <= 1e-3 * max(1.0, abs(fd)), (
                f"param block {idx}, entry {j}: fd={fd}, grad={flat_g[j]}")


def test_ppo_loss_drops_non_finite_ratios(caplog):
    policy = small_policy(46, jitter=0.05)
    group = make_group(policy, 46)
    custom = [0.5, -0.5, 1.0, -1.0]
    group.advantage[0] = custom
    group.old_log_prob[0, 0] = -1e9
    with caplog.at_level("WARNING", logger="flowsched.rl"), np.errstate(over="ignore"):
        res = ppo_loss(policy, policy, group, RLConfig(kl_weight=0.0, clip=0.0))
    assert res.n_dropped == 1
    assert "non-finite importance ratio" in caplog.text
    assert abs(res.loss - (-np.mean(custom[1:]))) <= 1e-12
    assert np.all(np.isfinite(res.grad))


def assert_first_epoch_ratios_are_one(policy, record, terms=None):
    """With no KL, no clipping and a one-hot advantage the loss is
    -ratio_i / (n_groups * k), every operation exact when n_groups * k is a
    power of two; so -n_groups * k * loss is lane i's ratio. The loss reads
    terms when given (as train_tpm's first epoch reads the record's), and
    otherwise scores policy afresh (ppo_loss)."""
    record = dataclasses.replace(record, advantage=np.zeros_like(record.advantage))
    n_lanes = record.advantage.size
    assert n_lanes & (n_lanes - 1) == 0
    cfg = RLConfig(kl_weight=0.0, clip=0.0)
    ratios = []
    for i in range(n_lanes):
        record.advantage.flat[:] = np.arange(n_lanes) == i
        res = (ppo_loss(policy, policy, record, cfg) if terms is None
               else _ppo_loss(policy, terms, terms[1:], record, cfg))
        ratios.append(-n_lanes * res.loss)
    assert ratios == [1.0] * n_lanes


def test_first_epoch_importance_ratio_is_exactly_one():
    policy = small_policy(48, jitter=0.05)
    for g in range(64):
        assert_first_epoch_ratios_are_one(
            policy, rollout_group(policy, oracle_field(), STD2, ScheduleConfig(), 4,
                                  RngStream(48, 2).child(g), 0.95))
    assert_first_epoch_ratios_are_one(
        policy, make_record(policy, [RngStream(48, 3).child(g) for g in range(16)]))


def test_train_tpm_first_epoch_ratio_is_exactly_one_over_two_pairs(monkeypatch):
    # every outer step's record spans both (field, target) pairs
    import flowsched.rl as rl

    policy = small_policy(56, jitter=0.05)
    seen = []

    def checked(pol, terms, ref_terms, record, cfg):
        if not any(record is r for r in seen):
            seen.append(record)
            assert_first_epoch_ratios_are_one(pol, record, terms)
        return _ppo_loss(pol, terms, ref_terms, record, cfg)

    monkeypatch.setattr(rl, "_ppo_loss", checked)
    cfg = RLConfig(group_size=4, batch_size=32, inner_epochs=2, lr=3e-3,
                   outer_steps=2)
    train_tpm(policy, [oracle_field(), VelocityField("oracle", target=SHIFTED)],
              [STD2, SHIFTED], cfg, ScheduleConfig(), RngStream(56, 1))
    assert len(seen) == cfg.outer_steps


def test_batched_groups_match_single_group_rollouts():
    # train_tpm rolls all groups of a field in one lane batch: same draws and
    # step counts as one group at a time, and still an epoch-0 ratio of 1
    policy = small_policy(49, jitter=0.05)
    streams = [RngStream(49, 2).child(g) for g in range(8)]
    lanes = roll_groups(policy, oracle_field(), ScheduleConfig(), 4, streams)
    batched = make_record(policy, streams)
    for g, stream in enumerate(streams):
        alone_lanes = roll_groups(policy, oracle_field(), ScheduleConfig(), 4, [stream])
        alone = make_record(policy, [stream])
        assert np.array_equal(lanes.states[4 * g:4 * g + 4, 0], alone_lanes.states[:, 0])
        assert np.array_equal(batched.n_steps[g], alone.n_steps[0])
        for j in range(4):
            np.testing.assert_allclose(lane_steps(batched, 4 * g + j)[1],
                                       lane_steps(alone, j)[1], rtol=1e-12)
        np.testing.assert_allclose(batched.old_log_prob[g], alone.old_log_prob[0],
                                   rtol=1e-12)
    assert_first_epoch_ratios_are_one(policy, batched)


def one_group(record: Rollouts, g: int) -> Rollouts:
    """Group g of record as a record of its own, with the same old log-probs,
    advantages and terms."""
    k = record.advantage.shape[1]
    steps = record.lane // k == g
    acts, *terms = record.terms
    return Rollouts(*(a[g:g + 1].copy() for a in (
        record.n_steps, record.ir, record.reward, record.advantage,
        record.old_log_prob, record.n_pred)),
        record.feats[steps], record.rates[steps], record.lane[steps] - g * k,
        ([a[steps] for a in acts], *(t[steps] for t in terms)))


def test_record_loss_is_the_mean_of_its_one_group_losses():
    # one forward and one backward over the record give what the mean over
    # its groups gives, with an all-dropped group still counted in the mean
    ref = small_policy(57, jitter=0.3)
    policy = perturbed(ref, 57)
    record = make_record(ref, [RngStream(57, 2).child(g) for g in range(5)],
                         no_predictions=[6])
    record.old_log_prob[3] = -1e9
    cfg = RLConfig(kl_weight=0.3, clip=0.2)
    with np.errstate(over="ignore"):
        whole = ppo_loss(policy, ref, record, cfg)
        parts = [ppo_loss(policy, ref, one_group(record, g), cfg) for g in range(5)]
    assert whole.n_dropped == sum(p.n_dropped for p in parts) == 4
    assert parts[3].loss == parts[3].mean_kl == 0.0
    assert record.n_pred[1, 2] == 1 and not np.any(record.lane == 6)
    mean_grad = np.mean([p.grad for p in parts], axis=0)
    np.testing.assert_allclose(whole.grad, mean_grad, rtol=1e-12,
                               atol=1e-12 * np.abs(mean_grad).max())
    assert whole.loss == pytest.approx(np.mean([p.loss for p in parts]), rel=1e-12)
    assert whole.mean_kl == pytest.approx(np.mean([p.mean_kl for p in parts]), rel=1e-12)


# ------------------------------------- ppo_loss against the separate-call form


def _log_beta(a, b):
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def separate_call_ppo_loss(policy, ref_policy, group, cfg):
    """ppo_loss on a one-group record with every Beta term from its own
    log_gamma / digamma call and both policies evaluated afresh; returns
    (loss, grad, mean_kl, n_dropped)."""
    advs = group.advantage[0]
    feats, rates, seg = group.feats, group.rates, group.lane
    raw, alpha, beta, _ = tpm_params_batch(policy, feats)
    _, ref_alpha, ref_beta, _ = tpm_params_batch(ref_policy, feats)

    log_pdf = ((alpha - 1.0) * np.log(rates) + (beta - 1.0) * np.log1p(-rates)
               - _log_beta(alpha, beta))
    ratio = np.exp(np.bincount(seg, weights=log_pdf, minlength=len(advs))
                   - group.old_log_prob[0])
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
    m = group.n_pred[0]
    kl_per_traj = np.bincount(seg, weights=kl_steps, minlength=len(advs)) / m
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
    grad, _ = policy.net.backward(feats, out_grad)
    return loss, grad, mean_kl, n_dropped


def perturbed(policy: TimePolicy, seed: int, scale: float = 0.5) -> TimePolicy:
    out = policy.copy()
    out.net.theta = np.concatenate([
        (p + scale * RngStream(seed, 7).child(i).standard_normal(p.shape)).ravel()
        for i, p in enumerate(out.net.parameters())])
    return out


def assert_matches_separate_calls(policy, ref, group, cfg):
    # twice: a second call on the same record gives the same bits
    for _ in range(2):
        res = ppo_loss(policy, ref, group, cfg)
        loss, grad, mean_kl, n_dropped = separate_call_ppo_loss(policy, ref, group, cfg)
        assert (res.loss, res.mean_kl, res.n_dropped) == (loss, mean_kl, n_dropped)
        assert np.array_equal(res.grad, grad)
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
    group = make_group(ref, 75, no_predictions=[2])
    assert group.old_log_prob[0, 2] == 0.0
    assert_matches_separate_calls(perturbed(ref, 75), ref, group, RLConfig(clip=clip))


@pytest.mark.parametrize("clip", [0.0, 0.2])
def test_ppo_loss_equals_separate_call_form_with_non_finite_ratio(clip):
    ref = small_policy(76, jitter=0.3)
    group = make_group(ref, 76)
    group.old_log_prob[0, 1] = -1e9
    with np.errstate(over="ignore"):
        res = assert_matches_separate_calls(perturbed(ref, 76), ref, group,
                                            RLConfig(clip=clip))
    assert res.n_dropped == 1


def test_ppo_loss_without_any_prediction_is_zero():
    ref = small_policy(77)
    group = make_group(ref, 77, no_predictions=range(4))
    res = ppo_loss(perturbed(ref, 77), ref, group, RLConfig())
    advs = group.advantage[0]
    assert res.loss == float(np.sum(-advs) / len(advs))
    assert (res.mean_kl, res.n_dropped) == (0.0, 0)
    assert np.array_equal(res.grad, np.zeros(ref.net.n_params))


def test_ppo_loss_recomputes_reference_terms_for_new_reference():
    ref = small_policy(78, jitter=0.3)
    policy = perturbed(ref, 78)
    other = perturbed(ref, 79)
    group = make_group(ref, 78)
    cfg = RLConfig(kl_weight=1.0)
    assert_matches_separate_calls(policy, ref, group, cfg)
    assert_matches_separate_calls(policy, other, group, cfg)
    # same object, new parameter arrays
    other.net.theta = perturbed(other, 80).net.theta
    assert_matches_separate_calls(policy, other, group, cfg)


def test_ppo_loss_sees_a_reference_edited_in_place():
    """ppo_loss scores the reference afresh on every call, so after an edit
    of its parameters in place it gives what a copy of the edited reference
    gives, and the KL to it is no longer 0."""
    ref = small_policy(85, jitter=0.3)
    policy = ref.copy()
    record = make_record(ref, [RngStream(85, 2).child(g) for g in range(4)])
    cfg = RLConfig(kl_weight=0.2, clip=0.2)
    assert ppo_loss(policy, ref, record, cfg).mean_kl == 0.0
    ref.net.theta[:] += 0.05
    edited, fresh = ppo_loss(policy, ref, record, cfg), ppo_loss(policy, ref.copy(), record, cfg)
    assert (edited.loss, edited.mean_kl, edited.n_dropped) == (
        fresh.loss, fresh.mean_kl, fresh.n_dropped)
    assert np.array_equal(edited.grad, fresh.grad)
    assert fresh.mean_kl > 0.0


def test_train_tpm_evaluates_reference_once_per_outer_step(monkeypatch):
    import flowsched.rl as rl

    cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                   batch_size=12, inner_epochs=3, lr=3e-3, outer_steps=2)
    policy = init_policy(2, 0.7, RngStream(81, 0), hidden=(8,))
    calls = {"live": 0, "other": 0}

    def counting(pol, feats):
        calls["live" if pol is policy else "other"] += 1
        return tpm_params_batch(pol, feats)

    monkeypatch.setattr(rl, "tpm_params_batch", counting)
    _, metrics = train_tpm(policy, [oracle_field()], [STD2], cfg, ScheduleConfig(),
                           RngStream(81, 1))
    assert len(metrics) == cfg.outer_steps
    assert calls["other"] == cfg.outer_steps
    # one forward scores the record's old log-probs and serves the first inner
    # epoch, then one per later epoch, and one checks the result's outputs
    assert calls["live"] == cfg.outer_steps * cfg.inner_epochs + 1


def as_bytes(arrays) -> list[tuple]:
    """(shape, bytes) of each array, for a bit-for-bit comparison."""
    return [(a.shape, a.tobytes()) for a in arrays]


def test_train_tpm_reference_keeps_its_theta_while_the_actor_moves(monkeypatch):
    """AdamW updates the actor's theta in place, so the frozen reference must
    own its vector: the reference terms every inner epoch reads are those of
    the policy that entered the run, bit for bit, while the actor moves."""
    cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                   batch_size=8, inner_epochs=2, lr=3e-3, outer_steps=3)
    policy = init_policy(2, 0.7, RngStream(84, 0), hidden=(8,))
    start, entered = policy.net.theta.tobytes(), policy.copy()
    seen = []

    def recording(actor, terms, ref_terms, record, rl_cfg):
        want = _policy_terms(entered, record.feats)[1:]
        seen.append((as_bytes(ref_terms) == as_bytes(want), actor.net.theta.tobytes()))
        return _ppo_loss(actor, terms, ref_terms, record, rl_cfg)

    monkeypatch.setattr(rl, "_ppo_loss", recording)
    trained, metrics = train_tpm(policy, [oracle_field()], [STD2], cfg, ScheduleConfig(),
                                 RngStream(84, 1))
    assert len(metrics) == cfg.outer_steps
    assert len(seen) == cfg.outer_steps * cfg.inner_epochs
    assert all(ref_kept for ref_kept, _ in seen)
    assert seen[0][1] == start and seen[-1][1] != start
    assert trained.net.theta.tobytes() != start


def test_train_tpm_first_epoch_reads_the_record_terms_a_fresh_forward_gives(monkeypatch):
    """Each outer step's first inner epoch is given the terms its record was
    scored with, which equal a fresh _policy_terms at the record's features in
    all seven elements, activations included; a later epoch gets a fresh
    forward of the moved policy."""
    cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                   batch_size=16, inner_epochs=3, lr=3e-3, outer_steps=3)
    policy = init_policy(2, 0.7, RngStream(86, 0), hidden=(8, 8))
    seen = []

    def recording(actor, terms, ref_terms, record, rl_cfg):
        fresh = _policy_terms(actor, record.feats)
        assert len(terms) == 7 and len(terms[0]) == len(policy.net.sizes)
        seen.append((terms is record.terms,
                     as_bytes([*terms[0], *terms[1:]]) == as_bytes([*fresh[0], *fresh[1:]])))
        return _ppo_loss(actor, terms, ref_terms, record, rl_cfg)

    monkeypatch.setattr(rl, "_ppo_loss", recording)
    _, metrics = train_tpm(policy, [oracle_field()], [STD2], cfg, ScheduleConfig(),
                           RngStream(86, 1))
    assert len(metrics) == cfg.outer_steps
    assert seen == ([(True, True)] + [(False, True)] * (cfg.inner_epochs - 1)) * cfg.outer_steps


def test_training_and_evaluation_never_build_trajectories(monkeypatch, tmp_path):
    def forbidden(self):
        raise AssertionError("per-trajectory objects rebuilt")

    monkeypatch.setattr(Lanes, "trajectories", forbidden)
    cfg = RLConfig(group_size=4, batch_size=8, inner_epochs=1, lr=1e-3, outer_steps=2)
    policy = init_policy(2, 0.7, RngStream(58, 0), hidden=(8,))
    for fields, targets in (([oracle_field()], [STD2]),
                            ([oracle_field(), VelocityField("oracle", target=SHIFTED)],
                             [STD2, SHIFTED])):
        _, metrics = train_tpm(policy, fields, targets, cfg, ScheduleConfig(),
                               RngStream(58, 1))
        assert len(metrics) == cfg.outer_steps
    summary = evaluate_policy(policy, oracle_field(), STD2, ScheduleConfig(), 0.95,
                              RngStream(58, 2), 50, deterministic=False)
    assert summary.n_rollouts == 50
    config = tmp_path / "config.json"
    ExperimentConfig(out_dir=str(tmp_path / "run"), policy_hidden=[8],
                     eval_rollouts=8).save(config)
    assert main(["sample", "--config", str(config), "--n-trajectories", "3"]) == 0
    assert (tmp_path / "run" / "trajectory_2.csv").exists()
    assert main(["compare-baselines", "--config", str(config)]) == 0
    assert (tmp_path / "run" / "baselines.csv").exists()


# -------------------------------------------------------------- training loop


def test_train_tpm_high_kl_weight_pins_policy_to_reference():
    cfg = RLConfig(gamma=0.95, kl_weight=1e3, clip=0.2, group_size=4,
                   batch_size=16, inner_epochs=2, lr=3e-3, outer_steps=10)
    policy = init_policy(2, 0.75, RngStream(51, 0), hidden=(16,))
    trained, metrics = train_tpm(policy, [oracle_field()], [STD2], cfg,
                                 ScheduleConfig(), RngStream(51, 1))
    assert len(metrics) == 10
    assert metrics[-1].mean_kl < 0.01


def test_train_tpm_is_deterministic():
    def run():
        cfg = RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                       batch_size=8, inner_epochs=2, lr=3e-3, outer_steps=5)
        policy = init_policy(2, 0.7, RngStream(52, 0), hidden=(8,))
        return train_tpm(policy, [oracle_field()], [STD2], cfg, ScheduleConfig(),
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
    train_tpm(policy, [oracle_field()], [STD2], cfg, ScheduleConfig(),
              RngStream(53, 1), checkpoint_path=path)
    assert path.exists() and path.stat().st_size > 0


def test_train_tpm_rejects_mismatched_fields_and_targets():
    policy = init_policy(2, 0.7, RngStream(54, 0), hidden=(8,))
    with pytest.raises(ValueError, match="one velocity field per target"):
        train_tpm(policy, [oracle_field()], [STD2, STD2], RLConfig(),
                  ScheduleConfig(), RngStream(54, 1))


def diverging_desk_run(tmp_path, caplog, **rl_overrides):
    """(initial policy, returned policy, metrics) of desk train_tpm on the
    standard-normal oracle at lr = 1e308, which drives the policy to
    non-finite raw outputs; the overflows are expected there."""
    cfg = preset_config("desk")
    rl_cfg = dataclasses.replace(cfg.rl, lr=1e308, outer_steps=3, **rl_overrides)
    initial = _init_policy(cfg, 2)
    with caplog.at_level("WARNING", logger="flowsched.rl"), \
            np.errstate(over="ignore", invalid="ignore"):
        policy, metrics = train_tpm(initial.copy(), [oracle_field()], [STD2], rl_cfg,
                                    cfg.schedule, RngStream(cfg.seed, STREAM_RL_TRAIN),
                                    checkpoint_path=tmp_path / "policy.ckpt")
    return initial, policy, metrics


def test_train_tpm_diverging_update_returns_the_initial_policy(tmp_path, caplog):
    initial, policy, metrics = diverging_desk_run(tmp_path, caplog)
    assert np.array_equal(policy.net.theta, initial.net.theta)
    assert metrics == []
    assert "aborting at outer step 0: diverged: the policy gave non-finite raw outputs" \
        in caplog.text


def test_train_tpm_diverging_rollout_rewrites_the_checkpoint(tmp_path, caplog):
    """Outer step 0's update gives a policy whose next rollout diverges: its
    row is kept, and the checkpoint it left is overwritten with the last
    policy whose rollout came out finite."""
    initial, policy, metrics = diverging_desk_run(tmp_path, caplog, inner_epochs=1)
    assert [row.outer_step for row in metrics] == [0]
    assert np.array_equal(policy.net.theta, initial.net.theta)
    save_policy(policy, tmp_path / "returned.ckpt")
    assert (tmp_path / "policy.ckpt").read_bytes() == (tmp_path / "returned.ckpt").read_bytes()
    assert "aborting at outer step 1" in caplog.text


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


def naive_step_grad_reference(policy, field, target, rng, batch_size):
    """The clipped gradient of one train_naive_two_step step, with d loss / d t1
    formed sample by sample from one-row velocity_vjp calls."""
    x0 = target.sample(batch_size, rng)
    eps = rng.standard_normal((batch_size, field.d))
    v0 = field(eps, 1.0)
    feats = step_features(eps, v0, 1.0)
    raw, alpha, beta, acts = tpm_params_batch(policy, feats)
    t1 = alpha / (alpha + beta)
    x1 = eps + (t1[:, None] - 1.0) * v0
    v1 = field(x1, t1)
    g_y = 2.0 * (x1 - t1[:, None] * v1 - x0) / batch_size
    dl_dt1 = np.zeros(batch_size)
    for i in range(batch_size):
        _, g_jx, g_jt = field.velocity_vjp(x1[i:i + 1], t1[i:i + 1], g_y[i:i + 1])
        dl_dt1[i] = (float(g_y[i] @ v0[i]) - float(g_y[i] @ v1[i])
                     - float(t1[i]) * (float(g_jx[0] @ v0[i]) + float(g_jt[0])))
    denom = (alpha + beta) ** 2
    out_grad = np.stack([dl_dt1 * beta / denom, dl_dt1 * (-alpha) / denom],
                        axis=1) * shape_grad_wrt_raw(raw)
    grad, _ = policy.net.backward(feats, out_grad, acts)
    clip_global_norm(policy.net.unflatten(grad), 1.0)
    return grad


@pytest.mark.parametrize("kind", ["oracle", "learned"])
def test_naive_step_gradient_matches_per_sample_reference(kind, monkeypatch):
    import flowsched.nn as nn

    if kind == "oracle":
        field, tol = VelocityField("oracle", target=SHIFTED), 0.0
    else:
        net = make_velocity_net(2, (16,), RngStream(63, 2))
        field, tol = VelocityField("learned", net=net), 1e-12
    policy = init_policy(2, 0.6, RngStream(63, 0), hidden=(8,))
    want = naive_step_grad_reference(policy.copy(), field, SHIFTED, RngStream(63, 1), 64)
    seen, adamw = [], nn.adamw_step

    def recording_adamw(params, grads, state):
        seen.append(grads[0].copy())
        return adamw(params, grads, state)

    monkeypatch.setattr(nn, "adamw_step", recording_adamw)
    train_naive_two_step(policy, field, SHIFTED, steps=1, lr=0.02,
                         rng=RngStream(63, 1), batch_size=64)
    assert len(seen) == 1 and np.max(np.abs(seen[0] - want)) <= tol
    assert np.any(want != 0.0)


def test_naive_two_step_aborts_on_divergence():
    policy = init_policy(2, 0.6, RngStream(62, 0), hidden=(8,))
    policy.net.biases[-1][0] = float("nan")
    with pytest.raises(RuntimeError, match="diverged"):
        train_naive_two_step(policy, oracle_field(), STD2, steps=3,
                             lr=0.02, rng=RngStream(62, 1), batch_size=8)


# ------------------------------------------------------ zero-mean policy score


@pytest.fixture(scope="module")
def desk_scores():
    """10^4 rollouts of the desk initial policy on the standard-normal oracle,
    as one record scored at unit advantages, with the score of each rollout's
    kept draws with respect to the two output biases, and the same score at
    fresh Beta draws at the same features."""
    policy = init_policy(2, 0.75, RngStream(20240801, 1), hidden=(32,))
    streams = [RngStream(59, 1).child(i) for i in range(10_000)]
    lanes = roll_lanes(oracle_field(), ScheduleConfig(), streams, policy=policy)
    record = Rollouts.from_lanes(policy, lanes, toy_reward(lanes.finals, STD2), 4, 0.95)
    record.advantage[...] = 1.0
    res = ppo_loss(policy, policy, record, RLConfig(kl_weight=0.0, clip=0.0))

    _, alpha, beta, _ = tpm_params_batch(policy, record.feats)
    rng = RngStream(59, 2)
    gamma_a, gamma_b = rng.gamma(alpha), rng.gamma(beta)
    fresh = gamma_a / (gamma_a + gamma_b)

    def scores(rates):  # (rollouts, 2): summed d log pdf / d (output biases)
        psi_ab = special.digamma(alpha + beta)
        steps = np.stack([(np.log(rates) - special.digamma(alpha) + psi_ab) * (alpha - 1.0),
                          (np.log1p(-rates) - special.digamma(beta) + psi_ab) * (beta - 1.0)],
                         axis=1)
        return np.stack([np.bincount(record.lane, weights=steps[:, j], minlength=10_000)
                         for j in range(2)], axis=1)

    return -res.grad[-2:], scores(record.rates), scores(fresh)


def z_scores(scores: np.ndarray) -> np.ndarray:
    return scores.mean(axis=0) / (scores.std(axis=0, ddof=1) / np.sqrt(len(scores)))


def test_ppo_gradient_at_unit_advantages_is_minus_the_mean_score(desk_scores):
    minus_grad, kept, _ = desk_scores
    np.testing.assert_allclose(minus_grad, kept.mean(axis=0), rtol=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "the sampler drops the Beta draw that triggers the forced jump to t=0, so "
    "the kept draws' score misses a term and its mean is not 0"))
def test_kept_draw_score_has_zero_mean(desk_scores):
    _, kept, _ = desk_scores
    assert np.all(np.abs(z_scores(kept)) < 4.0)


def test_fresh_draw_score_has_zero_mean(desk_scores):
    # the control: a complete score at the same features has mean 0
    _, _, fresh = desk_scores
    assert np.all(np.abs(z_scores(fresh)) < 4.0)
