import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowsched.nn import DenseNet, load_checkpoint, save_checkpoint
from flowsched.policy import (FEATURE_LAYOUT, RAW_PARAM_CLAMP, TimePolicy,
                              feature_length, init_policy, load_policy,
                              next_time, predict_decay, raw_to_shape, save_policy,
                              shape_grad_wrt_raw, step_features, tpm_params_batch)
from flowsched.rng import RngStream
from flowsched.special_math import BetaParams, beta_log_pdf, beta_sample

from beta_reference import log_pdf_grad_wrt_raw


def beta_params_at(policy: TimePolicy, feats: np.ndarray) -> BetaParams:
    """Beta shapes at one feature vector, read from the batched path."""
    _, alpha, beta, _ = tpm_params_batch(policy, np.asarray(feats)[None, :])
    return BetaParams(float(alpha[0]), float(beta[0]))


def constant_output_policy(d: int, a: float, b: float) -> TimePolicy:
    """Zero-weight policy emitting fixed raw (a, b) for any features."""
    net = DenseNet([feature_length(d), 2])
    net.biases[0][...] = (a, b)
    return TimePolicy(net, d)


def test_step_features_layout():
    x = np.array([1.0, 2.0])
    v = np.array([-0.5, 0.25])
    feats = step_features(x, v, 0.8)
    assert feats.shape == (feature_length(2),)
    assert np.allclose(feats, [1.0, 2.0, -0.5, 0.25, 0.8, 0.64], atol=1e-15)
    with pytest.raises(ValueError):
        step_features(x, np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        step_features(x, v, 1.2)


def test_time_policy_validates_net_shape():
    with pytest.raises(ValueError):
        TimePolicy(DenseNet([5, 2]), d=2)  # needs 2d+2 = 6 inputs
    with pytest.raises(ValueError):
        TimePolicy(DenseNet([6, 3]), d=2)  # must output exactly (a, b)
    TimePolicy(DenseNet([6, 2]), d=2)


def test_tpm_params_examples():
    pol = constant_output_policy(2, 0.0, 0.0)
    params = beta_params_at(pol, np.zeros(6))
    assert params.alpha == pytest.approx(2.0, abs=1e-12)
    assert params.beta == pytest.approx(2.0, abs=1e-12)

    pol = constant_output_policy(2, math.log(3.0), 0.0)
    params = beta_params_at(pol, np.zeros(6))
    assert params.alpha == pytest.approx(4.0, abs=1e-12)
    assert params.beta == pytest.approx(2.0, abs=1e-12)
    assert params.mean == pytest.approx(2.0 / 3.0, abs=1e-12)

    pol = constant_output_policy(2, -30.0, 0.0)
    params = beta_params_at(pol, np.zeros(6))
    assert params.alpha > 1.0
    assert params.alpha == pytest.approx(1.0 + math.exp(-30.0), abs=1e-25)


def test_raw_to_shape_clamps_overflow():
    shapes = raw_to_shape(np.array([1e9, -1e9]))
    assert shapes[0] == pytest.approx(1.0 + math.exp(30.0))
    assert shapes[1] == pytest.approx(1.0 + math.exp(-30.0))
    assert np.all(np.isfinite(shapes)) and np.all(shapes > 1.0)
    # gradient is zero outside the clamp window, e^raw inside
    assert shape_grad_wrt_raw(np.array([35.0]))[0] == 0.0
    assert shape_grad_wrt_raw(np.array([2.0]))[0] == pytest.approx(math.exp(2.0))


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_tpm_params_always_unimodal(a, b):
    params = beta_params_at(constant_output_policy(1, a, b), np.zeros(4))
    assert params.alpha > 1.0 and params.beta > 1.0
    assert math.isfinite(params.alpha) and math.isfinite(params.beta)


def test_tpm_params_batch_matches_single():
    # rows of the batched path agree with the 1-D forward predict_decay draws from
    pol = init_policy(2, 0.6, RngStream(1, 0))
    pol.net.weights[-1][...] = RngStream(1, 1).standard_normal((2, 32)) * 0.3
    feats = RngStream(1, 2).uniform(size=(5, 6))
    raw, alpha, beta, _ = tpm_params_batch(pol, feats)
    for i in range(5):
        single_raw = pol.net.forward(feats[i])
        single_alpha, single_beta = raw_to_shape(single_raw)
        assert alpha[i] == pytest.approx(single_alpha, abs=1e-12)
        assert beta[i] == pytest.approx(single_beta, abs=1e-12)
        assert np.allclose(raw[i], single_raw, atol=1e-12)


def test_predict_decay_deterministic_mode_is_beta_mode():
    pol = constant_output_policy(2, 0.0, 0.0)  # alpha = beta = 2
    r = predict_decay(pol, np.zeros(6), RngStream(2, 0), deterministic=True)
    assert r == pytest.approx(0.5, abs=1e-12)
    pol = constant_output_policy(2, math.log(3.0), 0.0)  # Beta(4, 2): mode 3/4
    assert predict_decay(pol, np.zeros(6), RngStream(2, 0),
                         deterministic=True) == pytest.approx(0.75, abs=1e-12)


def test_predict_decay_is_deterministic_given_stream():
    pol = init_policy(2, 0.7, RngStream(3, 0))
    feats = step_features(np.ones(2), -np.ones(2), 0.9)
    r1 = predict_decay(pol, feats, RngStream(3, 1))
    r2 = predict_decay(pol, feats, RngStream(3, 1))
    assert r1 == r2 and 0.0 < r1 < 1.0
    # the sample comes from the shared Beta sampler at the 1-D forward's shapes
    alpha, beta = raw_to_shape(pol.net.forward(feats))
    assert r1 == beta_sample(BetaParams(float(alpha), float(beta)), RngStream(3, 1))


def test_next_time_examples_and_domain():
    assert next_time(0.8, 0.5) == pytest.approx(0.4, abs=1e-15)
    assert next_time(1.0, 0.999999) < 1.0
    for t_prev, r in ((0.0, 0.5), (1.2, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            next_time(t_prev, r)


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1 - 1e-9))
def test_next_time_strictly_decreasing(t_prev, r):
    t = next_time(t_prev, r)
    assert 0.0 < t < t_prev


def test_init_policy_half_target_gives_symmetric_beta():
    pol = init_policy(2, 0.5, RngStream(4, 0))
    assert np.allclose(pol.net.biases[-1], [0.0, 0.0], atol=1e-12)
    params = beta_params_at(pol, RngStream(4, 1).standard_normal(6))
    assert params.alpha == pytest.approx(2.0, abs=1e-12)
    assert params.beta == pytest.approx(2.0, abs=1e-12)


def test_init_policy_mean_is_state_independent():
    for r_target in (0.25, 0.5, 0.75, 0.9):
        pol = init_policy(2, r_target, RngStream(5, 0))
        for k in range(8):
            feats = RngStream(5, 1 + k).standard_normal(6) * 3.0
            params = beta_params_at(pol, feats)
            assert params.mean == pytest.approx(r_target, abs=1e-9)
    with pytest.raises(ValueError):
        init_policy(2, 1.0, RngStream(5, 9))


def test_init_policy_expected_step_count():
    # mean decay 0.75 from t0=1 down to t_min=0.01 needs about
    # ln(0.01)/ln(0.75) + 1 ~ 17 steps
    pol = init_policy(2, 0.75, RngStream(6, 0))
    params = beta_params_at(pol, np.zeros(6))
    rng = RngStream(6, 1)
    counts = []
    for _ in range(10**4):
        t, steps = 1.0, 0
        while t >= 0.01:
            t *= beta_sample(params, rng)
            steps += 1
        counts.append(steps + 1)  # the final forced jump is a real step
    mean_n = float(np.mean(counts))
    assert abs(mean_n - 17.0) <= 2.0, f"mean N = {mean_n}"


def test_log_pdf_grad_matches_finite_differences():
    h = 1e-6
    gen = np.random.default_rng(7)
    for _ in range(25):
        raw = gen.uniform(-3.0, 3.0, size=2)
        r = gen.uniform(0.05, 0.95)
        alpha, beta = raw_to_shape(raw)
        grad = log_pdf_grad_wrt_raw(r, raw, alpha, beta)
        for j in range(2):
            up, down = raw.copy(), raw.copy()
            up[j] += h
            down[j] -= h
            ua, ub = raw_to_shape(up)
            da, db = raw_to_shape(down)
            fd = (beta_log_pdf(r, ua, ub) - beta_log_pdf(r, da, db)) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(grad[j] - fd) / denom <= 1e-4


def test_policy_checkpoint_roundtrip(tmp_path):
    pol = init_policy(3, 0.66, RngStream(8, 0))
    path = tmp_path / "policy.ckpt"
    save_policy(pol, path)
    loaded = load_policy(path)
    assert loaded.d == 3
    assert load_checkpoint(path)[1] == f"layout={FEATURE_LAYOUT};d=3".encode("ascii")
    for a, b in zip(pol.net.parameters(), loaded.net.parameters()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("header, message", [
    (b"garbage", "no field 'layout'"),
    (b"layout=x", "no field 'd'"),
    (b"layout=x;d=two", "field d='two'"),
    ("layout=x;d=2\u00e9".encode("utf-8"), "not ASCII"),
    (b"layout=x;d=3", "field d='3' does not match the net's input size 6"),
    (b"layout=foo;d=2", "field layout='foo' is not the feature layout"),
], ids=["garbage", "no_d", "d_not_integer", "non_ascii", "d_mismatch", "layout"])
def test_load_policy_rejects_bad_header(tmp_path, header, message):
    path = tmp_path / "policy.ckpt"
    save_checkpoint(init_policy(2, 0.66, RngStream(8, 0)).net, path,
                    extra_header=header)
    with pytest.raises(ValueError, match="policy header") as err:
        load_policy(path)
    assert str(path) in str(err.value) and message in str(err.value)


def _saved_policy_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "policy.ckpt"
        save_policy(init_policy(2, 0.7, RngStream(9, 0), hidden=(4,)), path)
        return path.read_bytes()


SAVED_POLICY = _saved_policy_bytes()
HEADER_END = 14 + SAVED_POLICY[10]  # the header is shorter than 256 bytes


def flip(pos: int, mask: int) -> bytes:
    """SAVED_POLICY with byte pos XOR-ed by mask (1..255: any other value)."""
    return SAVED_POLICY[:pos] + bytes([SAVED_POLICY[pos] ^ mask]) + SAVED_POLICY[pos + 1:]


checkpoint_mutations = st.one_of(
    st.integers(0, len(SAVED_POLICY) - 1).map(lambda n: SAVED_POLICY[:n]),
    st.builds(flip, st.integers(0, len(SAVED_POLICY) - 1), st.integers(1, 255)),
    st.binary(min_size=1, max_size=32).map(lambda tail: SAVED_POLICY + tail),
)


@given(checkpoint_mutations)
@example(flip(HEADER_END - 1, 0x01))                   # d=2 -> d=3
@example(flip(HEADER_END - 4, ord(";") ^ ord("x")))    # the field separator
@example(flip(HEADER_END, 0x01))                       # layer count 3 -> 2
@example(flip(HEADER_END + 12, 0x01))                  # output size 2 -> 3
@example(flip(10, 0x80))                               # header length + 128
@example(flip(len(SAVED_POLICY) - 1, 0x7F))            # top byte of the last float
def test_load_policy_fuzzed_bytes_round_trip_or_raise_naming_the_path(raw):
    """Any truncation, single-byte change or appended bytes of a saved policy
    either loads, and saving it again reproduces the bytes, or raises a
    ValueError naming the path (never struct.error, IndexError, MemoryError...)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.ckpt"
        path.write_bytes(raw)
        try:
            load_policy(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        net, header = load_checkpoint(path)
        again = Path(tmp) / "again.ckpt"
        save_checkpoint(net, again, extra_header=header)
        assert again.read_bytes() == raw


def test_raw_clamp_constant_is_wide_enough():
    # shapes at the clamp boundary dwarf anything reachable in training
    assert raw_to_shape(np.array([RAW_PARAM_CLAMP]))[0] > 1e12
