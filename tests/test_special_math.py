import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from flowsched.rng import RngStream, mix_stream
from flowsched.special_math import (_DIGAMMA_COEF, _HALF_LOG_2PI,
                                    _LGAMMA_COEF, SAMPLE_EPS, BetaParams,
                                    beta_kl, beta_log_pdf, beta_sample,
                                    beta_terms, digamma, log_gamma,
                                    log_gamma_digamma)

# ln Gamma(x) to 50 digits, rounded to the nearest float64.
LOG_GAMMA_REFS = [
    (0.5, 0.5723649429247001),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.7, 1.428072326665388),
    (5.0, 3.1780538303479458),
    (10.0, 12.801827480081469),
    (123.456, 469.6055471299295),
    (1000.0, 5905.220423209181),
    (100000.0, 1051287.7089736569),
    (1000000.0, 12815504.569147611),
]

# psi(x) to 50 digits, rounded to the nearest float64.
DIGAMMA_REFS = [
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (2.0, 0.42278433509846713),
    (3.3, 1.0348224890596216),
    (4.0, 1.2561176684318005),
    (7.77, 1.9845420583479447),
    (100.0, 4.600161852738087),
    (1000.0, 6.907255195648812),
    (100000.0, 11.512920464961896),
    (1000000.0, 13.815510057964191),
]


class BetaArrays(NamedTuple):
    """Shape arrays in the form beta_kl reads from BetaParams."""

    alpha: np.ndarray
    beta: np.ndarray


shapes = st.floats(min_value=1.0001, max_value=50.0, allow_nan=False,
                   allow_infinity=False)


def quad_tight(fn, lo=0.0, hi=1.0):
    value, _ = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def test_log_gamma_reference_values():
    for x, ref in LOG_GAMMA_REFS:
        assert abs(log_gamma(x) - ref) <= 1e-10, f"x={x}"


def test_log_gamma_small_identities():
    assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-12
    assert abs(log_gamma(1.0)) <= 1e-12
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12


def test_log_gamma_domain_errors():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_log_gamma_vectorized_matches_scalar():
    xs = np.array([0.5, 1.7, 42.0, 9999.0])
    out = log_gamma(xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        got = log_gamma(float(x))
        assert type(got) is float and got == v


def test_digamma_reference_values():
    for x, ref in DIGAMMA_REFS:
        assert abs(digamma(x) - ref) <= 1e-9, f"x={x}"


def test_digamma_recurrence_examples():
    euler = 0.5772156649015329
    assert abs(digamma(2.0) - (1.0 - euler)) <= 1e-12
    assert abs(digamma(4.0) - (-euler + 1.0 + 0.5 + 1.0 / 3.0)) <= 1e-12


def test_digamma_domain_errors():
    for bad in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError):
            digamma(bad)


@given(st.floats(min_value=0.5, max_value=1e5))
def test_digamma_recurrence_property(x):
    # psi(x + 1) = psi(x) + 1/x
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-9)


# ------------------------------------------- fused kernel, exact equality


def _separate_log_gamma(x):
    """The array ln Gamma as one standalone loop: shift while z < 9, then Stirling."""
    z = np.array(x, dtype=float)
    shift = np.zeros_like(z)
    while np.any(z < 9.0):
        mask = z < 9.0
        shift = np.where(mask, shift - np.log(z), shift)
        z = np.where(mask, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    series = np.zeros_like(z)
    term = 1.0 / z
    for c in _LGAMMA_COEF:
        series = series + c * term
        term = term * inv2
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series + shift


def _separate_digamma(x):
    """The array digamma as one standalone loop."""
    z = np.array(x, dtype=float)
    shift = np.zeros_like(z)
    while np.any(z < 9.0):
        mask = z < 9.0
        shift = np.where(mask, shift - 1.0 / z, shift)
        z = np.where(mask, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    series = np.zeros_like(z)
    term = inv2
    for c in _DIGAMMA_COEF:
        series = series + c * term
        term = term * inv2
    return np.log(z) - 0.5 / z - series + shift


EDGE_ARGS = np.array([1.0, np.nextafter(9.0, 0.0), 9.0, 1e6])


def kernel_inputs():
    """Log-uniform draws over [1e-3, 1e6] in a spread of shapes, edges included."""
    rng = np.random.default_rng(7)
    shapes = [(0,), (1,), (3,), (4,), (7,), (60,), (61,), (180,), (1000,), (5, 12), (2, 3, 4)]
    out = [EDGE_ARGS]
    for shape in shapes:
        out.append(10.0 ** rng.uniform(-3.0, 6.0, size=shape))
    out.append(np.concatenate([EDGE_ARGS, 1.0 + 30.0 * rng.random(57)]))
    return out


def test_log_gamma_digamma_equals_separate_kernels():
    for x in kernel_inputs():
        lg, dg = log_gamma_digamma(x)
        assert lg.shape == dg.shape == x.shape
        assert np.array_equal(lg, log_gamma(x)) and np.array_equal(lg, _separate_log_gamma(x))
        assert np.array_equal(dg, digamma(x)) and np.array_equal(dg, _separate_digamma(x))


def test_beta_terms_equal_separate_calls():
    rng = np.random.default_rng(8)
    for a in kernel_inputs():
        b = rng.permutation(a.ravel()).reshape(a.shape)
        lb, psi_a, psi_b, psi_ab = beta_terms(a, b)
        want_lb = _separate_log_gamma(a) + _separate_log_gamma(b) - _separate_log_gamma(a + b)
        assert np.array_equal(lb, want_lb)
        assert np.array_equal(psi_a, digamma(a))
        assert np.array_equal(psi_b, digamma(b))
        assert np.array_equal(psi_ab, digamma(a + b))


def test_log_gamma_digamma_domain_errors():
    for bad in (np.array([1.0, 0.0]), np.array([-1.0]), np.array([2.0, np.nan]),
                np.array([np.inf])):
        with pytest.raises(ValueError):
            log_gamma_digamma(bad)
        with pytest.raises(ValueError):
            beta_terms(bad, np.ones_like(bad))


def test_beta_params_validation():
    p = BetaParams(2.0, 6.0)
    assert p.mean == pytest.approx(0.25)
    assert p.mode == pytest.approx(1.0 / 6.0)
    for alpha, beta in ((1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (float("nan"), 2.0)):
        with pytest.raises(ValueError):
            BetaParams(alpha, beta)


def test_beta_log_pdf_examples():
    # Beta(2,2): pdf = 6 r (1-r), so pdf(0.5) = 1.5
    assert beta_log_pdf(0.5, 2.0, 2.0) == pytest.approx(math.log(1.5), abs=1e-12)
    # Beta(2,1): pdf = 2r; shapes at the unimodality boundary are still a density
    assert beta_log_pdf(0.25, 2.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)


def test_beta_log_pdf_domain_errors():
    for r in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            beta_log_pdf(r, 2.0, 2.0)


def test_beta_log_pdf_normalizes_spec_case():
    total = quad_tight(lambda r: math.exp(beta_log_pdf(r, 3.7, 1.9)))
    assert abs(total - 1.0) <= 1e-8
    assert math.isfinite(beta_log_pdf(0.3, 3.7, 1.9))


def test_beta_log_pdf_normalizes_random_pairs():
    rng = np.random.default_rng(20240801)
    for _ in range(20):
        alpha, beta = 1.05 + 9.0 * rng.random(2)
        total = quad_tight(lambda r: math.exp(beta_log_pdf(r, alpha, beta)))
        assert abs(total - 1.0) <= 1e-8, f"alpha={alpha}, beta={beta}"


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), shapes, shapes)
def test_beta_log_pdf_always_finite(r, alpha, beta):
    assert math.isfinite(beta_log_pdf(r, alpha, beta))


def test_beta_sample_moments():
    rng = RngStream(42, 1)
    n = 10**6
    draws = np.array([beta_sample(BetaParams(3.0, 3.0), rng) for _ in range(n)])
    stderr = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - 0.5) <= 3.0 * stderr

    rng = RngStream(42, 2)
    draws = np.array([beta_sample(BetaParams(2.0, 6.0), rng) for _ in range(n)])
    stderr = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - 0.25) <= 3.0 * stderr


def test_beta_sample_determinism_and_bounds():
    seq_a = [beta_sample(BetaParams(2.5, 4.0), RngStream(7, k)) for k in range(32)]
    seq_b = [beta_sample(BetaParams(2.5, 4.0), RngStream(7, k)) for k in range(32)]
    assert seq_a == seq_b
    rng1, rng2 = RngStream(7, 0), RngStream(7, 0)
    assert [beta_sample(BetaParams(3.0, 2.0), rng1) for _ in range(10)] == \
           [beta_sample(BetaParams(3.0, 2.0), rng2) for _ in range(10)]
    assert all(SAMPLE_EPS <= r <= 1.0 - SAMPLE_EPS for r in seq_a)


def test_beta_sample_goodness_of_fit():
    params = BetaParams(2.5, 1.7)
    rng = RngStream(20240801, 5)
    n = 10**5
    draws = np.array([beta_sample(params, rng) for _ in range(n)])
    edges = np.linspace(0.0, 1.0, 41)
    observed, _ = np.histogram(draws, bins=edges)
    expected = np.array([
        n * quad_tight(lambda r: math.exp(beta_log_pdf(r, params.alpha, params.beta)),
                       lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = stats.chi2.sf(stat, df=len(observed) - 1)
    assert p_value > 1e-3, f"chi2={stat:.2f}, p={p_value:.2e}"


def test_beta_kl_identical_is_zero():
    for alpha, beta in ((2.0, 2.0), (5.5, 1.3), (1.01, 9.0)):
        p = BetaParams(alpha, beta)
        assert beta_kl(p, p) == pytest.approx(0.0, abs=1e-12)


def kl_quadrature(p: BetaParams, q: BetaParams) -> float:
    """KL(p || q) by quadrature of log-densities normalized by scipy's betaln,
    independent of the package's kernel."""
    lb_p = float(special.betaln(p.alpha, p.beta))
    lb_q = float(special.betaln(q.alpha, q.beta))

    def integrand(r):
        log_r, log_1mr = math.log(r), math.log1p(-r)
        lp = (p.alpha - 1.0) * log_r + (p.beta - 1.0) * log_1mr - lb_p
        lq = (q.alpha - 1.0) * log_r + (q.beta - 1.0) * log_1mr - lb_q
        return math.exp(lp) * (lp - lq)

    # oracle only needs to resolve 1e-6 agreement
    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-9, epsrel=1e-9)
    return value


def test_beta_kl_matches_quadrature_2233():
    closed = beta_kl(BetaParams(2.0, 2.0), BetaParams(3.0, 3.0))
    assert abs(closed - kl_quadrature(BetaParams(2, 2), BetaParams(3, 3))) <= 1e-6


def test_beta_kl_grid_vs_quadrature():
    grid = [1.2, 2.0, 5.0]
    params = [BetaParams(a, b) for a in grid for b in grid]
    for p in params:
        for q in params:
            closed = beta_kl(p, q)
            assert abs(closed - kl_quadrature(p, q)) <= 1e-6, f"{p} || {q}"
            if (p.alpha, p.beta) == (q.alpha, q.beta):
                assert closed == pytest.approx(0.0, abs=1e-12)
            else:
                assert closed > 0.0


def test_beta_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        a1, b1, a2, b2 = 1.01 + 20.0 * rng.random(4)
        assert beta_kl(BetaParams(a1, b1), BetaParams(a2, b2)) >= -1e-12


@given(shapes, shapes, shapes, shapes)
def test_beta_kl_nonnegative_property(a1, b1, a2, b2):
    assert beta_kl(BetaParams(a1, b1), BetaParams(a2, b2)) >= -1e-10


def test_log_beta_symmetry():
    assert beta_terms(2.3, 4.5)[0] == pytest.approx(beta_terms(4.5, 2.3)[0], abs=1e-12)
    # B(1,1) = 1
    assert beta_terms(1.0, 1.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_beta_log_pdf_and_kl_on_arrays_equal_float_calls():
    rng = np.random.default_rng(12)
    r = rng.uniform(SAMPLE_EPS, 1.0 - SAMPLE_EPS, 200)
    a1, b1, a2, b2 = 1.01 + 20.0 * rng.random((4, 200))
    lp = beta_log_pdf(r, a1, b1)
    kl = beta_kl(BetaArrays(a1, b1), BetaArrays(a2, b2))
    assert lp.shape == kl.shape == r.shape
    for i in range(r.size):
        want_lp = beta_log_pdf(float(r[i]), float(a1[i]), float(b1[i]))
        want_kl = beta_kl(BetaParams(float(a1[i]), float(b1[i])),
                          BetaParams(float(a2[i]), float(b2[i])))
        assert type(want_lp) is float and type(want_kl) is float
        assert lp[i] == want_lp and kl[i] == want_kl


def test_rng_stream_determinism():
    a = RngStream(123, 9).standard_normal(8)
    b = RngStream(123, 9).standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(123, 10).standard_normal(8)
    assert not np.array_equal(a, c)


def test_rng_child_streams_are_stable_and_distinct():
    base = RngStream(55, 0)
    u1 = base.child(3, 1).uniform(size=4)
    u2 = RngStream(55, 0).child(3, 1).uniform(size=4)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, base.child(3, 2).uniform(size=4))
    assert mix_stream(1, 2, 3) != mix_stream(1, 3, 2)


def test_rng_choice_respects_weights():
    rng = RngStream(11, 0)
    idx = rng.choice(3, p=np.array([0.2, 0.5, 0.3]), size=20000)
    freq = np.bincount(idx, minlength=3) / 20000
    assert np.all(np.abs(freq - np.array([0.2, 0.5, 0.3])) < 0.02)
