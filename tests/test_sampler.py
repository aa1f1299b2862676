import csv

import numpy as np
import pytest

from flowsched.flow import (VelocityField, make_velocity_net,
                            standard_normal_target)
from flowsched.nn import DenseNet, Diverged
from flowsched.policy import (TimePolicy, feature_length, init_policy,
                              step_log_pdf, tpm_params_batch)
from flowsched.rng import RngStream
from flowsched.sampler import (GridExhausted, Lanes, ScheduleConfig, quantize_times,
                               roll_lanes, sample_adaptive, sample_fixed, timeshift,
                               trajectory_to_csv, transport_uniform)
from flowsched.special_math import beta_log_pdf


def constant_output_policy(d: int, a: float, b: float) -> TimePolicy:
    net = DenseNet([feature_length(d), 2])
    net.biases[0][...] = (a, b)
    return TimePolicy(net, d)


def oracle_field() -> VelocityField:
    return VelocityField("oracle", target=standard_normal_target(2))


def roll(policy, cfg, rng, n, deterministic=False, field=None) -> Lanes:
    """n adaptive rollouts, lane i drawing from rng.child(i)."""
    return roll_lanes(field or oracle_field(), cfg, [rng.child(i) for i in range(n)],
                      policy=policy, deterministic=deterministic)


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(mode="bogus")
    with pytest.raises(ValueError):
        ScheduleConfig(t_min=0.2)
    with pytest.raises(ValueError):
        ScheduleConfig(n_max=1)
    with pytest.raises(ValueError):
        ScheduleConfig(mode="fixed-uniform")  # fixed_n required
    with pytest.raises(ValueError):
        ScheduleConfig(grid_size=5)
    assert ScheduleConfig(t_min=0.1).t_min == 0.1  # the boundary is accepted


def test_adaptive_halving_schedule_example():
    # mode of Beta(2,2) is 0.5, so deterministic inference halves the time
    # until 0.0625 < t_min = 0.1 forces the final jump
    policy = constant_output_policy(2, 0.0, 0.0)
    cfg = ScheduleConfig(mode="adaptive", t_min=0.1)
    traj = sample_adaptive(policy, oracle_field(), cfg, RngStream(1, 0),
                           deterministic=True)
    assert traj.times == [1.0, 0.5, 0.25, 0.125, 0.0]
    assert traj.n_steps == 4
    assert len(traj.decay_rates) == 3  # the triggering prediction is discarded
    assert len(traj.features) == 3
    assert traj.decay_rates == [0.5, 0.5, 0.5]


def test_adaptive_step_budget_binds():
    policy = init_policy(2, 0.999, RngStream(2, 0))
    cfg = ScheduleConfig(mode="adaptive", n_max=40)
    traj = sample_adaptive(policy, oracle_field(), cfg, RngStream(2, 1),
                           deterministic=True)
    assert traj.n_steps == 40
    assert len(traj.decay_rates) == 39  # budget step consults no policy
    assert traj.times[-1] == 0.0


def test_adaptive_rollouts_unbiased_with_known_euler_contraction():
    # Coarse geometric schedules under-shoot the target variance: the big
    # early steps land where the oracle's contraction coefficient peaks
    # (the first 1 -> 0.75 step multiplies std by 0.75 vs the exact 0.7906).
    # The mean stays unbiased, the contraction is a stable reproducible
    # quantity, and longer schedules recover variance toward 1 (the
    # 200-step uniform transport check reaches [0.9, 1.1]).
    cfg = ScheduleConfig(mode="adaptive")
    policy = init_policy(2, 0.75, RngStream(3, 0))
    finals = roll(policy, cfg, RngStream(3, 1), 4000).finals
    assert np.all(np.abs(finals.mean(axis=0)) <= 0.05)
    var_stoch = finals.var(axis=0)
    assert np.all(var_stoch >= 0.52) and np.all(var_stoch <= 0.64)

    # Beta-mode inference decays at 5/6 per step (~26 steps vs ~15.6):
    # finer schedule, measurably less contraction.
    var_det = roll(policy, cfg, RngStream(3, 2), 4000, deterministic=True).finals.var(axis=0)
    assert np.all(var_det >= 0.73) and np.all(var_det <= 0.85)
    assert np.all(var_det > var_stoch + 0.1)


def test_trajectory_invariants_over_many_rollouts():
    policy = init_policy(2, 0.7, RngStream(4, 0))
    cfg = ScheduleConfig(mode="adaptive", n_max=25)
    lanes = roll(policy, cfg, RngStream(4, 1), 3000)
    lanes.validate()
    ns, visited = lanes.n_steps, np.arange(26) <= lanes.n_steps[:, None]
    assert np.all(lanes.times[:, 0] == 1.0)
    assert np.all(lanes.times[np.arange(3000), ns] == 0.0)
    assert np.all(np.diff(lanes.times, axis=1)[visited[:, 1:]] < 0.0)
    assert np.all(ns <= 25)
    assert np.all(np.isfinite(lanes.states[visited]))
    assert np.all((lanes.n_kept == ns - 1) | (lanes.n_kept == ns))
    feats, rates, lane = lanes.kept()
    assert np.array_equal(np.bincount(lane, minlength=3000), lanes.n_kept)
    assert np.all(np.isfinite(feats)) and np.all(np.isfinite(rates))
    _, alpha, beta, _ = tpm_params_batch(policy, feats)
    assert np.all(alpha > 1.0) and np.all(beta > 1.0)
    assert np.all(np.isfinite(step_log_pdf(policy, feats, rates)))


def test_adaptive_fresh_noise_uses_stream():
    policy = init_policy(2, 0.6, RngStream(5, 0))
    cfg = ScheduleConfig(mode="adaptive")
    t1 = sample_adaptive(policy, oracle_field(), cfg, RngStream(5, 1))
    t2 = sample_adaptive(policy, oracle_field(), cfg, RngStream(5, 1))
    assert np.array_equal(t1.states[0], t2.states[0])
    assert t1.times == t2.times
    with pytest.raises(ValueError):
        sample_adaptive(policy, oracle_field(), cfg, RngStream(5, 2),
                        initial_noise=np.zeros(3))


def test_sample_fixed_uniform_times():
    cfg = ScheduleConfig(mode="fixed-uniform", fixed_n=4)
    traj = sample_fixed(oracle_field(), cfg, RngStream(6, 0))
    assert np.allclose(traj.times, [1.0, 0.75, 0.5, 0.25, 0.0], atol=1e-15)
    assert traj.n_steps == 4
    assert traj.features == [] and traj.decay_rates == []


def test_sample_fixed_shift_one_is_uniform():
    noise = np.array([0.3, 1.1])
    uniform = sample_fixed(oracle_field(),
                           ScheduleConfig(mode="fixed-uniform", fixed_n=6),
                           RngStream(7, 0), initial_noise=noise)
    shifted = sample_fixed(oracle_field(),
                           ScheduleConfig(mode="fixed-shifted", fixed_n=6, shift=1.0),
                           RngStream(7, 0), initial_noise=noise)
    assert np.allclose(uniform.times, shifted.times, atol=1e-15)
    assert np.allclose(uniform.states[-1], shifted.states[-1], atol=1e-15)


def test_timeshift_examples():
    assert timeshift(0.5, 3.0) == pytest.approx(0.75, abs=1e-15)
    assert timeshift(0.0, 3.0) == 0.0
    assert timeshift(1.0, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert timeshift(0.25, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_sample_fixed_shifted_times_follow_map():
    cfg = ScheduleConfig(mode="fixed-shifted", fixed_n=4, shift=3.0)
    traj = sample_fixed(oracle_field(), cfg, RngStream(8, 0))
    expected = [timeshift((4 - k) / 4, 3.0) for k in range(5)]
    assert np.allclose(traj.times, expected, atol=1e-15)


def test_quantize_time_examples():
    t, index = quantize_times(np.array([0.5004, 0.9996, 0.0004]), 1000,
                              np.array([1000, 1000, 500]))
    assert t.tolist() == [0.5, 0.999, 0.0] and index.tolist() == [500, 999, 0]
    with pytest.raises(ValueError):
        quantize_times(np.array([0.5, 1.4]), 1000, np.array([900, 900]))


def test_batched_grid_mask_raises_grid_exhausted():
    # one lane already at grid index 0 cannot take another step
    with pytest.raises(GridExhausted):
        quantize_times(np.array([0.3, 0.2]), 1000, np.array([500, 0]))


def test_discrete_mode_terminates_by_prediction_at_grid_zero():
    # Beta(2, ~3300): the mode sits below half a grid cell, so the very first
    # prediction quantizes to index 0 and is kept with its features
    policy = constant_output_policy(2, 0.0, 8.1)
    cfg = ScheduleConfig(mode="discrete-adaptive", grid_size=1000)
    traj = sample_adaptive(policy, oracle_field(), cfg, RngStream(9, 0),
                           deterministic=True)
    assert traj.times == [1.0, 0.0]
    assert traj.n_steps == 1
    assert len(traj.decay_rates) == 1
    assert len(traj.features) == 1


def test_discrete_mode_forces_jump_below_t_min_and_drops_prediction():
    # Beta(2,2) mode 0.5 on a 1000-point grid: 0.016 * 0.5 snaps to 0.008,
    # inside (0, t_min), so that prediction is dropped and the step lands on 0
    policy = constant_output_policy(2, 0.0, 0.0)
    cfg = ScheduleConfig(mode="discrete-adaptive", grid_size=1000, t_min=0.01)
    field = oracle_field()
    traj = sample_adaptive(policy, field, cfg, RngStream(9, 1), deterministic=True)
    assert traj.times == [1.0, 0.5, 0.25, 0.125, 0.063, 0.032, 0.016, 0.0]
    assert traj.decay_rates == [0.5] * 6 and len(traj.features) == 6
    x, t = traj.states[-2], traj.times[-2]
    assert np.array_equal(traj.states[-1], x + (0.0 - t) * field(x, t))


def test_discrete_mode_times_live_on_grid():
    policy = init_policy(2, 0.7, RngStream(10, 0))
    cfg = ScheduleConfig(mode="discrete-adaptive", grid_size=1000)
    lanes = roll(policy, cfg, RngStream(10, 1), 200)
    times = lanes.times[np.isfinite(lanes.times)]
    assert times.size == np.sum(lanes.n_steps + 1)
    assert np.all(np.abs(times * 1000 - np.round(times * 1000)) < 1e-9)


def test_discrete_mode_is_small_perturbation_of_continuous():
    policy = init_policy(2, 0.75, RngStream(11, 0))
    cont = ScheduleConfig(mode="adaptive")
    disc = ScheduleConfig(mode="discrete-adaptive", grid_size=1000)
    field = oracle_field()
    cont_finals = roll(policy, cont, RngStream(11, 1), 10**4, field=field).finals
    disc_finals = roll(policy, disc, RngStream(11, 1), 10**4, field=field).finals
    mean_gap = np.abs(cont_finals.mean(axis=0) - disc_finals.mean(axis=0))
    assert np.all(mean_gap <= 0.01), f"per-axis mean gap {mean_gap}"


def test_sampler_aborts_on_non_finite_state():
    net = make_velocity_net(2, (4,), RngStream(12, 0))
    net.biases[-1][0] = float("nan")
    bad_field = VelocityField("learned", net=net)
    policy = init_policy(2, 0.7, RngStream(12, 1))
    with pytest.raises(RuntimeError, match="non-finite"):
        sample_adaptive(policy, bad_field, ScheduleConfig(), RngStream(12, 2))


def test_policy_whose_outputs_overflow_diverges():
    """A raw output of +inf is refused although the clamp would map it to a
    finite Beta shape: a net that overflows at some states gives inf - inf,
    a NaN shape, at others."""
    policy = init_policy(2, 0.7, RngStream(13, 0), hidden=(8,))
    policy.net.biases[-1][0] = np.inf
    with pytest.raises(Diverged, match="diverged: the policy gave non-finite raw outputs"):
        roll(policy, ScheduleConfig(), RngStream(13, 1), 4)


# ------------------------------------------------------------ lane batches


def jittered_policy(seed: int) -> TimePolicy:
    policy = init_policy(2, 0.75, RngStream(seed, 0), hidden=(8,))
    policy.net.weights[-1][...] = 0.3 * RngStream(seed, 1).standard_normal((2, 8))
    return policy


def roll_in_chunks(size, field, cfg, policy, deterministic, seed, n=23):
    """Roll n lanes from fresh child streams, size lanes per roll_lanes call."""
    streams = [RngStream(seed, 2).child(i) for i in range(n)]
    parts = [roll_lanes(field, cfg, streams[i:i + size], policy=policy,
                        deterministic=deterministic)
             for i in range(0, n, size)]
    return {key: np.concatenate([getattr(p, key) for p in parts])
            for key in ("n_steps", "n_kept", "rates", "states", "times")}


@pytest.mark.parametrize("mode, deterministic", [
    ("adaptive", False), ("adaptive", True), ("discrete-adaptive", False)])
def test_lane_chunks_do_not_change_draws_or_step_counts(mode, deterministic):
    # a learned field and a hidden-layer policy, so the batched matmuls run
    field = VelocityField("learned", net=make_velocity_net(2, (16,), RngStream(15, 0)))
    policy = jittered_policy(15)
    cfg = ScheduleConfig(mode=mode, n_max=30)
    alone, sevens, whole = (roll_in_chunks(size, field, cfg, policy, deterministic, 15)
                            for size in (1, 7, 23))
    for other in (sevens, whole):
        assert np.array_equal(alone["n_steps"], other["n_steps"])
        assert np.array_equal(alone["n_kept"], other["n_kept"])
        for key in ("rates", "states", "times"):
            np.testing.assert_allclose(alone[key], other[key], rtol=1e-12, atol=1e-12)
    assert len(set(alone["n_steps"].tolist())) > 1  # lanes finish at different steps


@pytest.mark.parametrize("mode", ["fixed-uniform", "fixed-shifted"])
def test_fixed_modes_with_given_noise_draw_nothing(mode, tmp_path):
    streams = [RngStream(16, 1).child(i) for i in range(5)]
    noise = RngStream(16, 0).standard_normal((5, 2))
    lanes = roll_lanes(oracle_field(), ScheduleConfig(mode=mode, fixed_n=6),
                       streams, noise)
    assert lanes.n_steps.tolist() == [6] * 5 and lanes.n_kept.tolist() == [0] * 5
    for i, stream in enumerate(streams):
        assert stream.standard_normal() == RngStream(16, 1).child(i).standard_normal()
    # fixed lanes keep no predictions: zero-width rates and feats, empty stacks
    assert lanes.rates.shape == (5, 0) and lanes.feats.shape == (5, 0, 6)
    feats, rates, lane = lanes.kept()
    assert feats.shape == (0, 6) and rates.shape == (0,) and lane.shape == (0,)
    lanes.validate()
    both = Lanes.concat([lanes, lanes])
    assert both.rates.shape == (10, 0) and both.feats.shape == (10, 0, 6)
    assert np.array_equal(both.states[5:], lanes.states, equal_nan=True)
    both.validate()
    path = tmp_path / "fixed.csv"
    trajectory_to_csv(lanes, 3, [], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 7 and all(r[4:] == ["", ""] for r in rows[1:])
    assert [float(r[1]) for r in rows[1:]] == lanes.times[3].tolist()


def test_non_finite_velocity_in_one_lane_names_its_time():
    class NanForFarLanes:
        """The oracle, except non-finite below t = 0.3 for states beyond |x0| = 10;
        like the oracle, it takes no workspace."""
        d = 2

        def workspace(self, n):
            return None

        def __call__(self, x, t, work=None):
            v = oracle_field()(x, t)
            v[(np.abs(x[:, 0]) > 10.0) & (t < 0.3)] = np.nan
            return v

    def streams():
        return [RngStream(17, 1).child(i) for i in range(4)]

    noise = RngStream(17, 0).standard_normal((4, 2))
    noise[2, 0] = 100.0
    policy = constant_output_policy(2, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="non-finite value at t=") as alone:
        roll_lanes(NanForFarLanes(), ScheduleConfig(), streams()[2:3], noise[2:3], policy)
    # the lanes run in lockstep, but the message names lane 2's own time
    with pytest.raises(RuntimeError) as batched:
        roll_lanes(NanForFarLanes(), ScheduleConfig(), streams(), noise, policy)
    assert str(batched.value) == str(alone.value)


def one_lane(times, rates=None, n_kept=0) -> Lanes:
    """One lane over times with zero states; rates padded with NaN to the
    step budget, and a feature row of zeros at every given rate. Without
    rates it is a fixed-schedule lane: zero-width rates and feats."""
    n = len(times) - 1
    width = 0 if rates is None else n
    lane = Lanes(np.array([times], dtype=float), np.zeros((1, n + 1, 2)),
                 np.array([n]), np.array([n_kept]),
                 np.full((1, width), np.nan), np.full((1, width, 6), np.nan))
    if rates is not None:
        lane.rates[0, :len(rates)] = rates
        lane.feats[0, :len(rates)] = 0.0
    return lane


def test_trajectory_validate_rules():
    one_lane([1.0, 0.5, 0.0], [0.5], 1).validate()
    with pytest.raises(ValueError, match="start at 1"):
        one_lane([0.9, 0.0]).validate()
    with pytest.raises(ValueError, match="strictly decreasing"):
        one_lane([1.0, 0.5, 0.5, 0.0]).validate()
    with pytest.raises(ValueError, match="prediction count"):
        one_lane([1.0, 0.5, 0.25, 0.125, 0.0], [0.5, 0.5], 2).validate()
    # a kept prediction without its rate: kept rates and features must align
    with pytest.raises(ValueError, match="kept rates and features must be finite"):
        one_lane([1.0, 0.5, 0.0], [0.5], 2).validate()


def test_trajectory_to_csv_layout(tmp_path):
    policy = constant_output_policy(2, 0.0, 0.0)
    cfg = ScheduleConfig(mode="adaptive", t_min=0.1)
    lanes = roll(policy, cfg, RngStream(13, 0), 2, deterministic=True)
    feats, rates, lane = lanes.kept()
    log_probs = step_log_pdf(policy, feats, rates)[lane == 1]
    n = int(lanes.n_steps[1])
    path = tmp_path / "traj.csv"
    trajectory_to_csv(lanes, 1, log_probs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "x0", "x1", "r", "log_prob"]
    assert len(rows) == n + 2
    assert rows[1][4] == "" and rows[1][5] == ""      # no prediction at t0
    assert rows[-1][4] == "" and rows[-1][5] == ""    # forced jump row is blank
    assert float(rows[2][4]) == lanes.rates[1, 0]     # repr round-trips
    assert [float(r[5]) for r in rows[2:-1]] == list(log_probs)
    assert float(rows[2][5]) == pytest.approx(beta_log_pdf(0.5, 2.0, 2.0), abs=1e-12)
    assert [float(r[1]) for r in rows[1:]] == lanes.times[1, :n + 1].tolist()
    assert [[float(c) for c in r[2:4]] for r in rows[1:]] == lanes.states[1, :n + 1].tolist()
    with pytest.raises(ValueError, match="log-probs"):
        trajectory_to_csv(lanes, 1, log_probs[:-1], path)


def test_transport_uniform_deterministic():
    field = oracle_field()
    a = transport_uniform(field, 64, 50, RngStream(14, 0))
    b = transport_uniform(field, 64, 50, RngStream(14, 0))
    assert np.array_equal(a, b)
