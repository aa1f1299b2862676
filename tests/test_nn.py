import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flowsched
from flowsched.nn import (CHECKPOINT_MAGIC, DenseNet, Diverged, OptimizerState,
                          adamw_step, clip_global_norm, descend, global_norm,
                          load_checkpoint, save_checkpoint, write_csv)
from flowsched.rng import RngStream


def finite_difference_grads(net: DenseNet, x, output_grad, h=1e-5):
    """Central differences of g . f(x) with respect to every parameter."""
    out_g = np.asarray(output_grad, dtype=float)

    def objective():
        out = net.forward(x)
        return float(np.sum(out_g * out))

    fd = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = objective()
            flat[i] = orig - h
            down = objective()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        fd.append(g)
    return fd


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-8):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), abs_floor)
        small = np.abs(n) < abs_floor
        err = np.abs(a - n)
        rel = np.where(small, err, err / denom)
        assert float(rel.max()) <= rel_tol, f"max rel err {rel.max():.3e}"


def assert_views_share_theta(net):
    views = [*net.weights, *net.biases, *net.parameters()]
    assert all(np.shares_memory(v, net.theta) for v in views)
    assert np.array_equal(np.concatenate([p.ravel() for p in net.parameters()]), net.theta)


def test_layer_views_share_theta_through_every_writer(tmp_path):
    from flowsched.flow import (VelocityField, make_velocity_net, ring_mixture_target,
                                standard_normal_target, train_flow)
    from flowsched.policy import init_policy
    from flowsched.rl import RLConfig, train_tpm
    from flowsched.sampler import ScheduleConfig

    net = DenseNet.init_random([3, 5, 2], RngStream(15, 0))
    assert_views_share_theta(net)
    save_checkpoint(net, tmp_path / "net.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "net.ckpt")
    assert_views_share_theta(loaded)
    twin = net.copy()
    assert_views_share_theta(twin)
    assert not np.shares_memory(twin.theta, net.theta)
    twin.weights[0][...] = 1.0
    assert not np.any(net.weights[0] == 1.0)
    net.theta = 2.0 * net.theta
    assert_views_share_theta(net)

    field = VelocityField("learned", net=make_velocity_net(2, (6,), RngStream(15, 1)))
    train_flow(field, ring_mixture_target(4), 3, RngStream(15, 2), batch_size=8)
    assert_views_share_theta(field.net)
    target = standard_normal_target(2)
    cfg = RLConfig(group_size=2, batch_size=4, inner_epochs=2, outer_steps=2)
    policy, _ = train_tpm(init_policy(2, 0.7, RngStream(15, 3), hidden=(4,)),
                          [VelocityField("oracle", target=target)], [target], cfg,
                          ScheduleConfig(), RngStream(15, 4))
    assert_views_share_theta(policy.net)


def test_rebinding_a_layer_raises_and_parameters_keep_identity():
    net = DenseNet.init_random([3, 4, 2], RngStream(16, 0))
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((4, 3))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(2)
    first, again = net.parameters(), net.parameters()
    assert all(a is b for a, b in zip(first, again))
    net.theta = net.theta.copy()
    assert not any(a is b for a, b in zip(first, net.parameters()))
    assert_views_share_theta(net)


def test_backward_with_forward_acts_equals_recompute():
    net = DenseNet.init_random([3, 7, 5, 2], RngStream(17, 0))
    rng = RngStream(17, 1)
    for x, g in ((rng.standard_normal(3), rng.standard_normal(2)),
                 (rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))):
        acts = net.forward_acts(x)
        assert np.array_equal(net.forward(x), acts[-1] if x.ndim > 1 else acts[-1][0])
        want_grad, want_in = net.backward(x, g, wrt_input=True)
        assert want_in.shape == x.shape
        for given_acts in ({"acts": acts}, {}):
            got_grad, got_in = net.backward(x, g, **given_acts, wrt_input=True)
            assert np.array_equal(got_grad, want_grad)
            assert np.array_equal(got_in, want_in)
            # without wrt_input: the same grad bits and no input gradient
            got_grad, got_in = net.backward(x, g, **given_acts)
            assert np.array_equal(got_grad, want_grad)
            assert got_in is None


@pytest.mark.parametrize("sizes", [[3, 7, 5, 2], [3, 6, 4, 5, 2]])
def test_workspace_calls_equal_fresh_calls_bit_for_bit(sizes):
    net = DenseNet.init_random(sizes, RngStream(19, len(sizes)))
    rng = RngStream(19, 0)
    for rows in ((), (6,)):
        work = net.workspace(rows[0] if rows else 1)
        # two calls on one workspace with different inputs: nothing stale survives
        for _ in range(2):
            x = rng.standard_normal((*rows, sizes[0]))
            g = rng.standard_normal((*rows, sizes[-1]))
            want_acts = net.forward_acts(x)
            want_grad, want_in = net.backward(x, g, wrt_input=True)
            acts = net.forward_acts(x, work)
            assert all(np.array_equal(a, b) for a, b in zip(acts, want_acts))
            for got_grad, got_in in (net.backward(x, g, acts, work, wrt_input=True),
                                     net.backward(x, g, work=work, wrt_input=True)):
                assert np.array_equal(got_grad, want_grad)
                assert np.array_equal(got_in, want_in)
                assert got_in.shape == want_in.shape
            # the documented views: activations, grad and input_grad live in the workspace
            assert all(a is b for a, b in zip(acts[1:], work.acts))
            assert got_grad is work.grad
            assert np.shares_memory(got_in, work.deltas[0])
            # without wrt_input: the same grad bits, and delta @ W0 is never written
            work.deltas[0][...] = np.nan
            for got_grad, got_in in (net.backward(x, g, acts, work), net.backward(x, g, work=work)):
                assert got_grad is work.grad and np.array_equal(got_grad, want_grad)
                assert got_in is None
                assert np.isnan(work.deltas[0]).all()
            # backward reads no output rows, so a loss may overwrite them
            acts[-1][...] = np.nan
            assert np.array_equal(net.backward(x, g, acts, work)[0], want_grad)


def test_workspace_of_another_batch_size_raises_naming_both():
    net = DenseNet.init_random([3, 5, 2], RngStream(20, 0))
    work = net.workspace(4)
    x, g = np.zeros((6, 3)), np.zeros((6, 2))
    for call in (lambda: net.forward_acts(x, work), lambda: net.backward(x, g, work=work),
                 lambda: net.backward(x, g, net.forward_acts(x), work),
                 lambda: net.forward_acts(np.zeros(3), work)):
        with pytest.raises(ValueError, match=r"workspace for 4 rows .* used with [61] rows"):
            call()
    with pytest.raises(ValueError, match="sizes"):
        DenseNet([3, 6, 2]).forward_acts(np.zeros((4, 3)), work)


def test_workspace_rows_serve_every_smaller_batch_bit_for_bit():
    """rows(m) is views of the first m rows of one workspace, so it serves
    forward_acts and backward at every batch size up to n."""
    net = DenseNet.init_random([3, 6, 4, 2], RngStream(21, 0))
    rng = RngStream(21, 1)
    work = net.workspace(9)
    assert work.rows(9) is work
    for m in (9, 8, 5, 1, 0):
        part = work.rows(m)
        assert part.n == m and part.inp.shape == (m, 3) and part.grad is work.grad
        assert part.grad_views is work.grad_views
        assert all(np.shares_memory(a, b) for a, b in zip(part.acts, work.acts) if m)
        x, g = rng.standard_normal((m, 3)), rng.standard_normal((m, 2))
        acts = net.forward_acts(x, part)
        assert all(np.array_equal(a, b) for a, b in zip(acts, net.forward_acts(x)))
        for got, want in zip(net.backward(x, g, acts, part, wrt_input=True),
                             net.backward(x, g, wrt_input=True)):
            assert np.array_equal(got, want)
    # the gradient's layer views: unflatten's layout, made once over work.grad
    work.grad[:] = np.arange(work.grad.size)
    assert all(v.base is work.grad and np.array_equal(v, u)
               for v, u in zip(work.grad_views, net.unflatten(work.grad)))
    for m in (10, -1):
        with pytest.raises(ValueError, match=f"{m} rows asked of a workspace for 9"):
            work.rows(m)


def test_forward_identity_linear_layer():
    net = DenseNet([2, 2])
    net.weights[0][...] = np.eye(2)
    assert np.allclose(net.forward(np.array([1.0, 2.0])), [1.0, 2.0])


def test_forward_zero_net_is_zero():
    net = DenseNet([3, 4, 2])
    for x in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
        assert np.array_equal(net.forward(x), np.zeros(2))


def test_forward_is_pure():
    net = DenseNet.init_random([3, 8, 2], RngStream(1, 0))
    x = np.array([0.3, -1.1, 2.0])
    assert np.array_equal(net.forward(x), net.forward(x))


def test_forward_shape_errors():
    net = DenseNet([3, 2])
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))
    with pytest.raises(ValueError):
        net.backward(np.zeros(3), np.zeros(3))


def test_param_count_invariant():
    sizes = [5, 7, 3, 2]
    net = DenseNet.init_random(sizes, RngStream(2, 0))
    expected = sum((i + 1) * o for i, o in zip(sizes, sizes[1:]))
    assert net.n_params == expected


def test_backward_matches_finite_differences_2_16_16_2():
    net = DenseNet.init_random([2, 16, 16, 2], RngStream(3, 0))
    x = np.array([0.7, -0.4])
    out_g = np.array([1.3, -0.8])
    analytic, _ = net.backward(x, out_g)
    numeric = finite_difference_grads(net, x, out_g)
    assert_grads_close(net.unflatten(analytic), numeric)


def test_backward_random_nets_match_finite_differences():
    pool = ([2, 8, 2], [3, 5, 5, 1], [4, 6, 3], [1, 12, 1], [2, 4, 4, 4, 2])
    for k in range(10):
        sizes = pool[k % len(pool)]
        net = DenseNet.init_random(sizes, RngStream(4, k))
        rng = RngStream(5, k)
        x = rng.standard_normal(sizes[0])
        out_g = rng.standard_normal(sizes[-1])
        analytic, input_grad = net.backward(x, out_g, wrt_input=True)
        numeric = finite_difference_grads(net, x, out_g)
        assert_grads_close(net.unflatten(analytic), numeric)
        # input gradient against finite differences too
        h = 1e-5
        fd_in = np.zeros_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd_in[i] = float(out_g @ (net.forward(xp) - net.forward(xm))) / (2 * h)
        assert np.max(np.abs(input_grad - fd_in)) <= 1e-6


def test_backward_zero_output_grad():
    net = DenseNet.init_random([3, 6, 2], RngStream(6, 0))
    grads, input_grad = net.backward(np.array([1.0, 2.0, 3.0]), np.zeros(2), wrt_input=True)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    assert np.array_equal(input_grad, np.zeros(3))


def test_backward_linear_net_hand_gradient():
    # single linear layer, squared error: dL/dW_ij = 2 * resid_i * x_j
    net = DenseNet([3, 2])
    net.weights[0][...] = [[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]]
    net.biases[0][...] = (0.1, -0.2)
    x = np.array([1.0, -2.0, 0.5])
    y = np.array([2.0, 1.0])
    resid = net.forward(x) - y
    grads = net.unflatten(net.backward(x, 2.0 * resid)[0])
    assert np.allclose(grads[0], 2.0 * np.outer(resid, x), atol=1e-12)
    assert np.allclose(grads[1], 2.0 * resid, atol=1e-12)


def test_backward_batch_sums_per_item_gradients():
    net = DenseNet.init_random([2, 5, 2], RngStream(7, 0))
    xs = RngStream(8, 0).standard_normal((4, 2))
    gs = RngStream(8, 1).standard_normal((4, 2))
    batch_grads, batch_in = net.backward(xs, gs, wrt_input=True)
    single = [net.backward(xs[i], gs[i], wrt_input=True) for i in range(4)]
    for j, bg in enumerate(batch_grads):
        assert np.allclose(bg, sum(s[0][j] for s in single), atol=1e-12)
    assert np.allclose(batch_in, np.stack([s[1] for s in single]), atol=1e-12)


def test_adamw_first_step_hand_case():
    params = [np.array([1.0])]
    grads = [np.array([1.0])]
    state = OptimizerState.for_params(params, lr=1e-5)
    new_params, new_state = adamw_step(params, grads, state)
    # bias-corrected m_hat = v_hat = 1, so the update is lr / (1 + eps)
    assert new_params[0][0] == pytest.approx(1.0 - 1e-5, abs=1e-12)
    assert new_state.step == 1


def test_adamw_zero_grad_zero_decay_is_identity():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    before = [p.copy() for p in params]
    state = OptimizerState.for_params(params, lr=0.1)
    new_params, _ = adamw_step(params, [np.zeros(2), np.zeros((1, 1))], state)
    for p, q in zip(before, new_params):
        assert np.array_equal(p, q)


def reference_adamw_step(params, grads, m, v, step, lr, weight_decay=0.0,
                         beta1=0.9, beta2=0.99, eps=1e-8):
    """The AdamW update with decoupled weight decay as it stood before weight
    decay was dropped; at weight_decay=0.0 it is the reference for adamw_step."""
    t = step + 1
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    out_p, out_m, out_v = [], [], []
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i = beta1 * m_i + (1.0 - beta1) * g
        v_i = beta2 * v_i + (1.0 - beta2) * g * g
        update = (m_i / bc1) / (np.sqrt(v_i / bc2) + eps)
        out_p.append(p - lr * (update + weight_decay * p))
        out_m.append(m_i)
        out_v.append(v_i)
    return out_p, out_m, out_v, t


def test_adamw_equals_zero_decay_reference_bit_for_bit():
    """Dropping the weight-decay term moves no bit, signed zeros included:
    parameters at +0.0 and -0.0 under zero and non-zero gradients, a step
    with all-zero gradients, and ordinary values over several steps."""
    gen = np.random.default_rng(5)
    params = [np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.5]), gen.standard_normal((3, 4))]
    steps = [[np.array([0.0, 0.0, -0.0, -0.0, 0.3, -0.2]), gen.standard_normal((3, 4))],
             [np.zeros(6), np.zeros((3, 4))],
             [-np.zeros(6), -np.zeros((3, 4))],
             [gen.standard_normal(6), gen.standard_normal((3, 4)) * 1e-3]]
    for lr in (1e-3, 0.1):
        p = [a.copy() for a in params]
        state = OptimizerState.for_params(p, lr=lr)
        # copies: adamw_step overwrites p, state.m and state.v in place
        ref_p, ref_m, ref_v = ([a.copy() for a in arrays] for arrays in (p, state.m, state.v))
        ref_t = 0
        for grads in steps:
            p, state = adamw_step(p, grads, state)
            ref_p, ref_m, ref_v, ref_t = reference_adamw_step(ref_p, grads, ref_m, ref_v,
                                                              ref_t, lr)
            assert state.step == ref_t and state.lr == lr
            for got, want in zip(p + state.m + state.v, ref_p + ref_m + ref_v):
                assert got.tobytes() == want.tobytes()


def test_adamw_deterministic():
    grads = [np.array([0.11, 0.22])]
    outs = []
    for _ in range(2):  # two states built identically
        params = [np.array([0.3, -0.7])]
        outs.append(adamw_step(params, grads, OptimizerState.for_params(params, lr=1e-3)))
    (p1, s1), (p2, s2) = outs
    assert p1[0].tobytes() == p2[0].tobytes()
    assert s1.m[0].tobytes() == s2.m[0].tobytes() and s1.v[0].tobytes() == s2.v[0].tobytes()
    assert s1.step == s2.step == 1


def test_adamw_updates_in_place_and_returns_its_arguments():
    params = [np.array([0.3, -0.7]), np.array([[1.5]])]
    state = OptimizerState.for_params(params, lr=1e-3)
    arrays = [*params, *state.m, *state.v]
    new_params, new_state = adamw_step(params, [np.array([0.11, 0.22]), np.array([[-0.5]])],
                                       state)
    assert new_params is params and new_state is state
    assert all(a is b for a, b in zip(arrays, [*params, *state.m, *state.v]))
    assert not np.array_equal(params[0], [0.3, -0.7])


def test_adamw_rejects_non_finite_gradients():
    params = [np.array([1.0])]
    state = OptimizerState.for_params(params)
    with pytest.raises(ValueError):
        adamw_step(params, [np.array([float("nan")])], state)
    with pytest.raises(ValueError):
        adamw_step(params, [np.array([float("inf")])], state)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "shape"])
def test_adamw_bad_gradient_raises_and_writes_nothing(bad):
    """Every gradient is checked before the first write: a non-finite entry,
    or a shape that would broadcast, in the last gradient leaves every
    parameter, m and v and the step count bit-unchanged."""
    gen = np.random.default_rng(7)
    params = [gen.standard_normal(5), gen.standard_normal((2, 3))]
    state = OptimizerState.for_params(params, lr=1e-2)
    adamw_step(params, [gen.standard_normal(5), gen.standard_normal((2, 3))], state)
    before = [a.tobytes() for a in (*params, *state.m, *state.v)]
    grads = [gen.standard_normal(5), gen.standard_normal((2, 3))]
    if bad == "shape":
        grads[-1] = grads[-1][:1]
    else:
        grads[-1][1, 2] = float(bad)
    with pytest.raises(ValueError, match="shape" if bad == "shape" else "non-finite"):
        adamw_step(params, grads, state)
    assert [a.tobytes() for a in (*params, *state.m, *state.v)] == before
    assert state.step == 1


def test_adamw_step_counter_increases():
    params = [np.array([1.0])]
    grads = [np.array([0.5])]
    state = OptimizerState.for_params(params)
    for expected in (1, 2, 3):
        params, state = adamw_step(params, grads, state)
        assert state.step == expected


def test_clip_global_norm_examples():
    grads = [np.array([3.0]), np.array([4.0])]
    assert clip_global_norm(grads, 1.0) == pytest.approx(5.0)
    assert np.allclose(np.concatenate(grads), [0.6, 0.8], atol=1e-12)
    unchanged = [np.array([0.3]), np.array([0.4])]
    assert clip_global_norm(unchanged, 1.0) == pytest.approx(0.5)
    assert np.array_equal(np.concatenate(unchanged), [0.3, 0.4])


def test_clip_global_norm_clips_a_flat_gradient_through_its_views():
    net = DenseNet([2, 3, 1])
    grad = np.arange(net.n_params, dtype=float)
    norm = clip_global_norm(net.unflatten(grad), 1.0)
    assert norm == pytest.approx(float(np.linalg.norm(np.arange(net.n_params))))
    assert global_norm([grad]) == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8),
       st.floats(min_value=1e-3, max_value=100.0))
def test_clip_global_norm_bound_and_idempotence(values, max_norm):
    grads = [np.array(values)]
    clip_global_norm(grads, max_norm)
    assert global_norm(grads) <= max_norm + 1e-12
    once = grads[0].copy()
    clip_global_norm(grads, max_norm)
    assert np.allclose(once, grads[0], rtol=0, atol=1e-12)


def test_global_norm_value():
    assert global_norm([np.array([3.0]), np.array([4.0])]) == pytest.approx(5.0)


def desk_policy_step_inputs():
    """A net the size of the desk policy (6 -> 32 -> 2), an optimizer state
    one step in, and a gradient whose norm is well above 1."""
    net = DenseNet.init_random([6, 32, 2], RngStream(16, 0))
    gen = RngStream(16, 1)
    state = OptimizerState.for_params([net.theta], lr=3e-3)
    adamw_step([net.theta], [gen.standard_normal(net.n_params)], state)
    return net, state, 5.0 * gen.standard_normal(net.n_params)


def snapshot(net, state):
    return [a.tobytes() for a in (net.theta, *state.m, *state.v)], state.step


@pytest.mark.parametrize("max_norm", [None, 1.0, 1e6])
def test_descend_is_clip_then_adamw_step_bit_for_bit(max_norm):
    net, state, grad = desk_policy_step_inputs()
    ref_net, ref_state, ref_grad = desk_policy_step_inputs()
    for _ in range(3):
        norm = descend(net, state, 0.5, grad.copy(), max_norm)
        ref_norm = None
        if max_norm is not None:
            ref_norm = clip_global_norm(ref_net.unflatten(ref_grad), max_norm)
        adamw_step([ref_net.theta], [ref_grad.copy()], ref_state)
        ref_grad = grad.copy()
        assert norm == ref_norm
        assert snapshot(net, state) == snapshot(ref_net, ref_state)
    assert max_norm is None or norm > 1.0


@pytest.mark.parametrize("loss", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("max_norm", [None, 1.0])
def test_descend_non_finite_loss_raises_diverged_and_writes_nothing(loss, max_norm):
    net, state, grad = desk_policy_step_inputs()
    before = snapshot(net, state)
    with pytest.raises(Diverged, match="diverged: loss"):
        descend(net, state, loss, grad, max_norm)
    assert snapshot(net, state) == before


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
def test_descend_non_finite_gradient_norm_raises_diverged_and_writes_nothing(bad):
    """With max_norm a non-finite entry, or finite ones whose squared norm
    overflows, is divergence; the gradient is not scaled either."""
    net, state, grad = desk_policy_step_inputs()
    grad[3] = bad
    before, grad_before = snapshot(net, state), grad.tobytes()
    with pytest.raises(Diverged, match="diverged: gradient norm"), np.errstate(over="ignore"):
        descend(net, state, 0.5, grad, max_norm=1.0)
    assert snapshot(net, state) == before and grad.tobytes() == grad_before


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_descend_unclipped_leaves_a_non_finite_gradient_to_adamw_step(bad):
    net, state, grad = desk_policy_step_inputs()
    grad[3] = bad
    before = snapshot(net, state)
    with pytest.raises(ValueError, match="non-finite gradient"):
        descend(net, state, 0.5, grad)
    assert snapshot(net, state) == before


def test_only_nn_calls_the_optimizer_primitives():
    """Every trainer steps through nn.descend: no other module of the
    package imports or calls adamw_step or clip_global_norm."""
    primitives = {"adamw_step", "clip_global_norm"}
    users = set()
    for path in sorted(Path(flowsched.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Call):
                func = node.func
                names = {getattr(func, "id", None) or getattr(func, "attr", None)}
            else:
                continue
            if names & primitives:
                users.add(path.stem)
    assert users == {"nn"}


def test_checkpoint_roundtrip(tmp_path):
    net = DenseNet.init_random([3, 9, 2], RngStream(9, 0))
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, extra_header=b"purpose=test")
    loaded, header = load_checkpoint(path)
    assert header == b"purpose=test"
    assert loaded.sizes == net.sizes
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)


def test_checkpoint_deterministic_bytes(tmp_path):
    net = DenseNet.init_random([2, 4, 1], RngStream(10, 0))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(net, p1)
    save_checkpoint(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTME\x00" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a flowsched checkpoint"):
        load_checkpoint(path)
    net = DenseNet([2, 2])
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[len(CHECKPOINT_MAGIC)] = 99  # corrupt the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_documented_layout(tmp_path):
    # magic | u32 version | u32 header len | header | u32 n sizes | sizes | <f8 data
    import struct

    net = DenseNet([2, 3])
    net.weights[0][...] = np.arange(6, dtype=float).reshape(3, 2)
    net.biases[0][...] = (7.0, 8.0, 9.0)
    path = tmp_path / "layout.ckpt"
    save_checkpoint(net, path, extra_header=b"hd")
    raw = path.read_bytes()
    off = len(CHECKPOINT_MAGIC)
    assert raw[:off] == CHECKPOINT_MAGIC
    version, hlen = struct.unpack_from("<II", raw, off)
    off += 8
    assert version == 1 and raw[off:off + hlen] == b"hd"
    off += hlen
    n_sizes, = struct.unpack_from("<I", raw, off)
    off += 4
    assert struct.unpack_from(f"<{n_sizes}I", raw, off) == (2, 3)
    off += 4 * n_sizes
    data = np.frombuffer(raw, dtype="<f8", offset=off)
    assert np.array_equal(data, [0, 1, 2, 3, 4, 5, 7, 8, 9])


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    net = DenseNet.init_random([3, 4, 2], RngStream(11, 0))
    good = tmp_path / "good.ckpt"
    save_checkpoint(net, good, extra_header=b"hd")
    raw = good.read_bytes()
    path = tmp_path / "cut.ckpt"
    # every proper prefix: inside the magic, the header fields, the sizes
    # and the weights
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="cut.ckpt"):
            load_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="cut.ckpt: 1 trailing bytes"):
        load_checkpoint(path)
    raw_sizes = bytearray(raw)
    raw_sizes[14 + 2 : 14 + 2 + 4] = (10**6).to_bytes(4, "little")  # layer count
    path.write_bytes(bytes(raw_sizes))
    with pytest.raises(ValueError, match="cut.ckpt: truncated"):
        load_checkpoint(path)


def test_load_checkpoint_checks_length_before_allocating(tmp_path):
    import struct
    import tracemalloc

    # a 94-byte file declaring sizes [6, 10**6, 2]: 8 million parameters
    raw = (CHECKPOINT_MAGIC + struct.pack("<III", 1, 0, 3)
           + struct.pack("<3I", 6, 10**6, 2) + bytes(64))
    assert len(raw) == 94
    path = tmp_path / "huge.ckpt"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="huge.ckpt: truncated"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    import flowsched.nn as nn

    path = tmp_path / "net.ckpt"
    old = DenseNet.init_random([2, 3, 1], RngStream(12, 0))
    save_checkpoint(old, path)
    before = path.read_bytes()

    def killed(src, dst):
        raise KeyboardInterrupt  # the run dies between the write and the rename

    monkeypatch.setattr(nn.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(DenseNet.init_random([2, 3, 1], RngStream(13, 0)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]
    loaded, _ = load_checkpoint(path)
    assert all(np.array_equal(a, b) for a, b in zip(old.parameters(), loaded.parameters()))


def test_write_csv_cells(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("x", "n", "blank", "name", "y"),
              [(np.float64(0.5), np.int64(5), None, "adaptive", 0.1),
               (1e-300, 2, None, "", float(3))])
    assert path.read_bytes() == b"x,n,blank,name,y\n0.5,5,,adaptive,0.1\n1e-300,2,,,3.0\n"
    write_csv(path, ("step", "loss"), [])
    assert path.read_bytes() == b"step,loss\n"


def test_write_csv_is_atomic(tmp_path, monkeypatch):
    import flowsched.nn as nn

    path = tmp_path / "table.csv"
    write_csv(path, ("step", "loss"), [(0, 0.5)])
    before = path.read_bytes()

    def killed(src, dst):
        raise KeyboardInterrupt  # the run dies between the write and the rename

    monkeypatch.setattr(nn.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        write_csv(path, ("step", "loss"), [(1, 0.25)] * 3)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
