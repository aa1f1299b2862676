import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowsched.flow import (TargetSpec, VelocityField, eval_fm_loss, fm_loss,
                            interpolate, make_velocity_net, oracle_velocity,
                            ref_log_density, ring_mixture_target,
                            single_gaussian_target, standard_normal_target,
                            train_flow)
import flowsched.flow as flow
from flowsched.nn import DenseNet, OptimizerState, adamw_step
from flowsched.rng import RngStream
from flowsched.sampler import transport_uniform

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec([[0.0, 0.0]], [1.0], [0.5])  # weights must sum to 1
    with pytest.raises(ValueError):
        TargetSpec([[0.0, 0.0]], [-1.0], [1.0])
    with pytest.raises(ValueError):
        TargetSpec([[0.0, 0.0], [1.0, 1.0]], [1.0], [1.0])  # count mismatch
    with pytest.raises(ValueError):
        TargetSpec([[float("nan"), 0.0]], [1.0], [1.0])


def test_target_log_density_matches_hand_formula():
    target = standard_normal_target(2)
    x = np.array([0.3, -1.2])
    expected = -np.log(2 * np.pi) - 0.5 * float(x @ x)
    assert target.log_density(x) == pytest.approx(expected, abs=1e-12)

    mix = TargetSpec([[0.0, 0.0], [4.0, 0.0]], [1.0, 0.5], [0.25, 0.75])
    pt = np.array([1.0, 1.0])
    comps = [
        0.25 * np.exp(-0.5 * float((pt - [0, 0]) @ (pt - [0, 0]))) / (2 * np.pi),
        0.75 * np.exp(-0.5 * float((pt - [4, 0]) @ (pt - [4, 0])) / 0.25) / (2 * np.pi * 0.25),
    ]
    assert mix.log_density(pt) == pytest.approx(np.log(sum(comps)), abs=1e-12)


def test_target_sample_moments():
    target = single_gaussian_target([2.0, -1.0], 0.5)
    pts = target.sample(20000, RngStream(1, 0))
    assert np.allclose(pts.mean(axis=0), [2.0, -1.0], atol=0.02)
    assert np.allclose(pts.var(axis=0), 0.25, atol=0.02)


def test_ring_mixture_layout():
    target = ring_mixture_target(4, radius=2.0, sigma=0.35)
    assert target.complexity == 4
    assert np.allclose(np.linalg.norm(target.means, axis=1), 2.0)
    assert np.allclose(target.weights, 0.25)
    single = ring_mixture_target(1)
    assert single.complexity == 1 and np.allclose(single.means[0], [2.0, 0.0])
    with pytest.raises(ValueError):
        ring_mixture_target(0)


def test_ref_log_density_single_component_closed_form():
    target = single_gaussian_target([3.0, 3.0], 2.0)
    expected = -0.5 * 2 * (np.log(2 * np.pi * 4.0) + 1.0)
    assert ref_log_density(target) == pytest.approx(expected, abs=1e-12)
    # standard normal: E[log p] = -ln(2 pi) - 1
    assert ref_log_density(standard_normal_target(2)) == pytest.approx(
        -np.log(2 * np.pi) - 1.0, abs=1e-12)


def test_ref_log_density_mixture_frozen_and_sane():
    target = ring_mixture_target(4)
    first = ref_log_density(target)
    assert first == ref_log_density(target)  # cached constant
    # independent Monte-Carlo estimate agrees at its own noise scale
    pts = target.sample(200000, RngStream(2, 0))
    vals = target.log_density(pts)
    stderr = vals.std() / np.sqrt(len(vals))
    assert abs(first - vals.mean()) <= 5 * stderr + 0.01


def test_interpolate_endpoints_and_midpoint():
    x0 = np.array([0.0, 0.0])
    eps = np.array([2.0, 2.0])
    assert np.array_equal(interpolate(x0, eps, 0.0), x0)
    assert np.array_equal(interpolate(x0, eps, 1.0), eps)
    assert np.array_equal(interpolate(x0, eps, 0.5), [1.0, 1.0])
    with pytest.raises(ValueError):
        interpolate(x0, eps, 1.5)
    with pytest.raises(ValueError):
        interpolate(x0, np.zeros(3), 0.5)


@given(unit, st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_interpolate_fixed_point_and_affine(t, a, b):
    x = np.array([a, b])
    assert np.allclose(interpolate(x, x, t), x, atol=1e-12)
    y = np.array([b, a])
    # affine in each endpoint: doubling both endpoints doubles the output
    assert np.allclose(interpolate(2 * x, 2 * y, t), 2 * interpolate(x, y, t),
                       atol=1e-9)


def mc_posterior_velocity(x, t, target, n=10**6, bandwidth=0.08, seed=0):
    """Kernel-weighted Monte-Carlo estimate of E[eps - x0 | x_t near x]."""
    gen = np.random.default_rng(seed)
    mu, sigma = target.means[0], float(target.sigmas[0])
    x0 = mu + sigma * gen.standard_normal((n, 2))
    eps = gen.standard_normal((n, 2))
    xt = t * eps + (1.0 - t) * x0
    w = np.exp(-np.sum((xt - x) ** 2, axis=1) / (2.0 * bandwidth**2))
    vals = eps - x0
    wsum = w.sum()
    est = (w[:, None] * vals).sum(axis=0) / wsum
    var = (w[:, None] * (vals - est) ** 2).sum(axis=0) / wsum
    neff = wsum**2 / np.sum(w**2)
    return est, np.sqrt(var / neff)


def test_oracle_velocity_standard_normal_closed_form():
    target = standard_normal_target(2)
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        for x in (np.array([1.0, 0.0]), np.array([-2.0, 3.0])):
            expected = (2 * t - 1) * x / (t**2 + (1 - t) ** 2)
            assert np.allclose(oracle_velocity(x, t, target), expected, atol=1e-12)
        assert np.array_equal(oracle_velocity(np.zeros(2), t, target), np.zeros(2))


def test_oracle_velocity_midpoint_is_zero_by_monte_carlo():
    target = standard_normal_target(2)
    for x in (np.array([0.7, -0.3]), np.array([1.5, 1.5])):
        assert np.array_equal(oracle_velocity(x, 0.5, target), np.zeros(2))
        est, stderr = mc_posterior_velocity(x, 0.5, target, seed=11)
        assert np.all(np.abs(est) <= 3.0 * stderr)


def test_oracle_velocity_noise_endpoint_by_monte_carlo():
    target = standard_normal_target(2)
    x = np.array([1.0, 0.0])
    assert np.allclose(oracle_velocity(x, 1.0, target), x, atol=1e-12)
    est, stderr = mc_posterior_velocity(x, 1.0, target, seed=12)
    # the kernel pulls the conditioning point toward the mode by O(h^2)
    assert np.all(np.abs(est - x) <= 3.0 * stderr + 0.01)


def test_oracle_velocity_general_gaussian_by_monte_carlo():
    target = single_gaussian_target([1.0, -0.5], 1.5)
    x = np.array([0.8, 0.2])
    t = 0.7
    est, stderr = mc_posterior_velocity(x, t, target, bandwidth=0.06, seed=13)
    assert np.all(np.abs(oracle_velocity(x, t, target) - est) <= 3.0 * stderr + 0.01)


def test_oracle_velocity_rejects_mixtures():
    with pytest.raises(ValueError):
        oracle_velocity(np.zeros(2), 0.5, ring_mixture_target(4))
    with pytest.raises(ValueError):
        oracle_velocity(np.zeros(2), 1.5, standard_normal_target(2))


def test_velocity_field_construction_rules():
    with pytest.raises(ValueError):
        VelocityField("oracle")  # needs a target
    with pytest.raises(ValueError):
        VelocityField("oracle", target=ring_mixture_target(2))
    with pytest.raises(ValueError):
        VelocityField("learned", net=DenseNet([2, 2]))  # must be (d+1) -> d
    with pytest.raises(ValueError):
        VelocityField("nonsense")
    field = VelocityField("learned", net=make_velocity_net(2, (8,), RngStream(3, 0)))
    assert field.d == 2


def test_velocity_field_batch_matches_single():
    field = VelocityField("learned", net=make_velocity_net(2, (8,), RngStream(4, 0)))
    xs = RngStream(5, 0).standard_normal((6, 2))
    batch = field(xs, 0.4)
    for i in range(6):
        assert np.allclose(batch[i], field(xs[i], 0.4), atol=1e-12)
    oracle = VelocityField("oracle", target=standard_normal_target(2))
    ts = np.full(6, 0.4)
    assert np.allclose(oracle(xs, ts), np.stack([oracle(x, 0.4) for x in xs]),
                       atol=1e-12)


def test_velocity_vjp_matches_finite_differences():
    h = 1e-6
    g = np.array([0.7, -1.1])
    cases = [
        VelocityField("learned", net=make_velocity_net(2, (8,), RngStream(6, 0))),
        VelocityField("oracle", target=single_gaussian_target([0.5, 0.0], 2.0)),
    ]
    for field in cases:
        x = np.array([0.9, -0.4])
        t = 0.6
        v, gx, gt = field.velocity_vjp(x[None, :], np.array([t]), g[None, :])
        assert v.shape == gx.shape == (1, 2) and gt.shape == (1,)
        assert np.allclose(v[0], field(x, t), atol=1e-12)
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = float(g @ (field(xp, t) - field(xm, t))) / (2 * h)
            assert gx[0, i] == pytest.approx(fd, abs=1e-6)
        fd_t = float(g @ (field(x, t + h) - field(x, t - h))) / (2 * h)
        assert gt[0] == pytest.approx(fd_t, abs=1e-6)


def test_velocity_vjp_rows_equal_one_row_calls():
    rng = RngStream(6, 1)
    x = rng.standard_normal((5, 2))
    g = rng.standard_normal((5, 2))
    t = np.array([0.05, 0.3, 0.6, 0.9, 1.0])
    cases = [
        (VelocityField("oracle", target=single_gaussian_target([0.5, 0.0], 2.0)), 0.0),
        (VelocityField("learned", net=make_velocity_net(2, (8,), RngStream(6, 0))), 1e-12),
    ]
    for field, tol in cases:
        rows = field.velocity_vjp(x, t, g)
        for i in range(5):
            one = field.velocity_vjp(x[i:i + 1], t[i:i + 1], g[i:i + 1])
            for got, want in zip(rows, one):
                assert np.max(np.abs(got[i] - want[0])) <= tol


def test_fm_loss_zero_for_exact_field():
    # constant-velocity net reproduces eps - x0 when that difference is constant
    net = DenseNet([3, 2])
    net.biases[0][...] = (1.0, -2.0)
    field = VelocityField("learned", net=net)
    x0 = RngStream(7, 0).standard_normal((5, 2))
    eps = x0 + np.array([1.0, -2.0])
    t = RngStream(7, 1).uniform(size=5)
    loss, grad = fm_loss(field, x0, eps, t)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_fm_loss_zero_field_single_item():
    field = VelocityField("learned", net=DenseNet([3, 2]))
    loss, _ = fm_loss(field, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                      np.array([0.3]))
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_fm_loss_gradients_match_finite_differences():
    net = make_velocity_net(2, (8,), RngStream(8, 0))
    field = VelocityField("learned", net=net)
    rng = RngStream(8, 1)
    x0 = rng.standard_normal((4, 2))
    eps = rng.standard_normal((4, 2))
    t = rng.uniform(size=4)
    _, grad = fm_loss(field, x0, eps, t)
    analytic = net.unflatten(grad)
    h = 1e-5
    for pi, p in enumerate(net.parameters()):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = fm_loss(field, x0, eps, t)
            flat[i] = orig - h
            down, _ = fm_loss(field, x0, eps, t)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            a = analytic[pi].reshape(-1)[i]
            denom = max(abs(fd), 1e-8)
            assert abs(a - fd) / denom <= 1e-4, f"param {pi}[{i}]"


def test_fm_loss_input_validation():
    field = VelocityField("learned", net=DenseNet([3, 2]))
    with pytest.raises(ValueError):
        fm_loss(field, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    oracle = VelocityField("oracle", target=standard_normal_target(2))
    with pytest.raises(ValueError):
        fm_loss(oracle, np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.5]))


def test_train_flow_reaches_oracle_level():
    target = standard_normal_target(2)
    net = make_velocity_net(2, (64, 64), RngStream(9, 0))
    field = VelocityField("learned", net=net)
    field, losses = train_flow(field, target, 5000, RngStream(9, 1))
    assert losses.shape == (5000,)
    assert losses[-500:].mean() < losses[:500].mean()

    rng = RngStream(9, 2)
    x0 = target.sample(4096, rng)
    eps = rng.standard_normal((4096, 2))
    t = rng.uniform(size=4096)
    oracle = VelocityField("oracle", target=target)
    oracle_loss = eval_fm_loss(oracle, x0, eps, t)
    learned_loss = eval_fm_loss(field, x0, eps, t)
    assert learned_loss <= 1.2 * oracle_loss
    # the exact marginal field lower-bounds any square-loss competitor
    assert learned_loss >= oracle_loss - 0.05


def test_train_flow_deterministic():
    target = standard_normal_target(2)

    def run():
        net = make_velocity_net(2, (16,), RngStream(10, 0))
        field = VelocityField("learned", net=net)
        _, losses = train_flow(field, target, 300, RngStream(10, 1), batch_size=64)
        return losses

    assert np.array_equal(run(), run())


def test_train_flow_divergence_aborts():
    target = standard_normal_target(2)
    net = make_velocity_net(2, (8,), RngStream(11, 0))
    net.biases[-1][0] = float("nan")  # poisoned parameter -> non-finite loss
    field = VelocityField("learned", net=net)
    with pytest.raises(RuntimeError, match="diverged"):
        train_flow(field, target, 200, RngStream(11, 1), batch_size=8)


def test_oracle_transport_reproduces_standard_normal():
    field = VelocityField("oracle", target=standard_normal_target(2))
    samples = transport_uniform(field, 10**4, 200, RngStream(12, 0))
    assert float(np.linalg.norm(samples.mean(axis=0))) <= 0.05
    assert np.all(samples.var(axis=0) >= 0.9) and np.all(samples.var(axis=0) <= 1.1)


def unblocked_ref_log_density(target):
    """ref_log_density as one log_density call over all the Monte-Carlo points."""
    digest = hashlib.blake2b(target.key(), digest_size=8).digest()
    rng = RngStream(flow._REF_MC_SEED, int.from_bytes(digest, "little"))
    pts = target.sample(flow._REF_MC_SAMPLES, rng)
    return float(np.mean(target.log_density(pts)))


def test_ref_log_density_blocks_equal_one_unblocked_pass(monkeypatch):
    monkeypatch.setattr(flow, "_REF_LOG_DENSITY_CACHE", {})
    mixture_3d = TargetSpec([[0.0, 0.0, 0.0], [1.5, -1.0, 0.5], [-2.0, 1.0, 1.0]],
                            [0.4, 0.7, 1.1], [0.5, 0.3, 0.2])
    for target in (ring_mixture_target(4), ring_mixture_target(8), mixture_3d):
        assert ref_log_density(target) == unblocked_ref_log_density(target)


def per_layer_train_flow(field, target, steps, rng, batch_size, lr):
    """train_flow as a per-layer loop: the forward repeated inside backward,
    AdamW over the list of layer arrays, and set_parameters every step."""
    net = field.net
    params = net.parameters()
    state = OptimizerState.for_params(params, lr=lr)
    losses = np.zeros(steps)
    for step in range(steps):
        x0 = target.sample(batch_size, rng)
        eps = rng.standard_normal((batch_size, field.d))
        t = rng.uniform(size=batch_size)
        inp = np.concatenate([flow.interpolate(x0, eps, t), t[:, None]], axis=1)
        resid = net.forward(inp) - (eps - x0)
        losses[step] = float(np.mean(np.sum(resid * resid, axis=1)))
        grad, _ = net.backward(inp, 2.0 * resid / batch_size)
        params, state = adamw_step(params, net.unflatten(grad), state)
        net.set_parameters(params)
    return losses


def test_train_flow_equals_per_layer_loop_bit_for_bit():
    target = ring_mixture_target(4)
    runs = []
    for train in (lambda f, r: train_flow(f, target, 50, r, batch_size=64, lr=1e-3)[1],
                  lambda f, r: per_layer_train_flow(f, target, 50, r, 64, 1e-3)):
        field = VelocityField("learned", net=make_velocity_net(2, (16, 16), RngStream(18, 0)))
        runs.append((train(field, RngStream(18, 1)), field.net.theta))
    (losses, theta), (ref_losses, ref_theta) = runs
    assert np.array_equal(losses, ref_losses)
    assert np.array_equal(theta, ref_theta)
