"""Release acceptance suite: one test per criterion, `pytest -v` gives one
pass/fail line each.

Every criterion below runs its full pipeline twice, here and at the same
time in a fresh interpreter, and records a digest of the numeric outputs (or,
for CLI criteria, the emitted CSV text) in a module table; the final test
asserts each pair is bit-identical, which is the determinism criterion: a
rerun in another process, which shares no state with this one, reproduces
every output. CLI criteria digest only the CSVs because the run stamp embeds
the temporary output path, which legitimately differs between runs.
"""

import hashlib
import math
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy import integrate, special

from flowsched.cli import main
from flowsched.config import DESK_RL
from flowsched.flow import (VelocityField, fm_loss, make_velocity_net,
                            single_gaussian_target, standard_normal_target)
from flowsched.nn import DenseNet
from flowsched.policy import (init_policy, raw_to_shape,
                              step_features, tpm_params_batch)
from flowsched.rl import (RLConfig, discounted_reward, ppo_loss,
                          rloo_advantages, rollout_group, train_naive_two_step,
                          train_tpm)
from flowsched.rng import RngStream
from flowsched.sampler import ScheduleConfig, roll_lanes, transport_uniform
from flowsched.special_math import (beta_log_pdf, beta_terms, digamma,
                                    kl_from_terms, log_gamma)

from beta_reference import log_pdf_grad_wrt_raw

SEED = 20240801

_DIGESTS: dict[str, tuple[str, str]] = {}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            p = p.tolist()
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _criterion_digest(name) -> str:
    return _CRITERIA[name]()[1]


def _run_twice(name):
    """Criterion name's values, run here while a fresh interpreter (one BLAS
    thread, as conftest sets) runs it too; both digests go to _DIGESTS."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        fresh = pool.submit(_criterion_digest, name)
        values, d1 = _CRITERIA[name]()
        _DIGESTS[name] = (d1, fresh.result())
    return values


def _rel_err(analytic, fd):
    worst = 0.0
    for a, f in zip(analytic, fd):
        denom = np.maximum(1.0, np.abs(f))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _central_diff(loss_fn, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gf = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def _roll(policy, field, sched, rng, n):
    """n adaptive rollouts, lane i drawing from rng.child(i)."""
    return roll_lanes(field, sched, [rng.child(i) for i in range(n)], policy=policy)


def _jitter_policy(policy, scale, rng):
    for w in policy.net.weights:
        w += scale * rng.standard_normal(w.shape)
    for b in policy.net.biases:
        b += scale * rng.standard_normal(b.shape)
    return policy


# criterion 1: closed-form kernels against independent quadrature/library
# oracles plus exact discounting identities.
def _criterion_math_kernel():
    norm_errs = []
    for a, b in [(1.2, 5.0), (2.0, 2.0), (3.7, 1.9), (8.3, 1.1), (5.5, 9.25)]:
        total, _ = integrate.quad(
            lambda r: math.exp(beta_log_pdf(r, a, b)), 0.0, 1.0,
            epsabs=1e-12, limit=200)
        norm_errs.append(abs(total - 1.0))

    kl_errs = []
    for (a1, b1), (a2, b2) in [((2.0, 3.0), (3.0, 2.0)),
                               ((5.5, 1.4), (2.2, 2.2)),
                               ((1.3, 8.0), (6.0, 1.1))]:
        def integrand(r):
            lp = beta_log_pdf(r, a1, b1)
            return math.exp(lp) * (lp - beta_log_pdf(r, a2, b2))
        ref, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-9, limit=200)
        kl = kl_from_terms((a1, b1, *beta_terms(a1, b1)), (a2, b2, *beta_terms(a2, b2)))
        kl_errs.append(abs(float(kl) - ref))

    xs = [0.12, 0.5, 1.0, 1.5, 2.0, 3.7, 5.25, 9.0, 17.3, 42.0]
    lg_err = max(abs(log_gamma(x) - float(special.gammaln(x))) for x in xs)
    dg_err = max(abs(digamma(x) - float(special.psi(x))) for x in xs)

    rng = RngStream(SEED, 11)
    zero_sums = [
        abs(float(np.sum(rloo_advantages(rng.uniform(-10.0, 10.0, size=k)))))
        for k in (2, 3, 5, 8)
    ]

    values = {
        "beta_norm_err": max(norm_errs),
        "beta_kl_err": max(kl_errs),
        "log_gamma_err": lg_err,
        "digamma_err": dg_err,
        "rloo_zero_sum": max(zero_sums),
        "gamma_one_exact": discounted_reward(2.5, 7, 1.0) == 2.5
        and discounted_reward(-7.0, 23, 1.0) == -7.0,
        "one_step_exact": discounted_reward(-3.0, 1, 0.4) == -3.0
        and discounted_reward(2.5, 1, 0.3) == 2.5,
        "discount_case_err": abs(discounted_reward(1.0, 3, 0.9) - 271 / 300),
    }
    return values, _digest(sorted(values.items()))


def test_math_kernel_accuracy():
    v = _run_twice("math-kernel")
    assert v["beta_norm_err"] <= 1e-8
    assert v["beta_kl_err"] <= 1e-6
    assert v["log_gamma_err"] <= 1e-10
    assert v["digamma_err"] <= 1e-9
    assert v["rloo_zero_sum"] <= 1e-12
    assert v["gamma_one_exact"] and v["one_step_exact"]
    assert v["discount_case_err"] <= 1e-15


# criterion 2: every analytic gradient against central finite differences.
def _criterion_gradients():
    # network backward on a fixed batch with a fixed cotangent
    net = DenseNet.init_random([3, 6, 2], RngStream(SEED, 21))
    x = RngStream(SEED, 22).standard_normal((4, 3))
    cot = RngStream(SEED, 23).standard_normal((4, 2))
    analytic_net = net.unflatten(net.backward(x, cot)[0])
    fd_net = _central_diff(lambda: float(np.sum(cot * net.forward(x))),
                           net.parameters())
    net_err = _rel_err(analytic_net, fd_net)

    # flow-matching loss gradients
    field = VelocityField("learned",
                          net=make_velocity_net(2, (6,), RngStream(SEED, 24)))
    x0 = RngStream(SEED, 25).standard_normal((8, 2))
    eps = RngStream(SEED, 26).standard_normal((8, 2))
    t = RngStream(SEED, 27).uniform(size=8)
    analytic_fm = field.net.unflatten(fm_loss(field, x0, eps, t)[1])
    fd_fm = _central_diff(lambda: fm_loss(field, x0, eps, t)[0],
                          field.net.parameters())
    fm_err = _rel_err(analytic_fm, fd_fm)

    # decay log-density through the shape map and the policy net
    policy = _jitter_policy(init_policy(2, 0.7, RngStream(SEED, 28), hidden=(6,)),
                            0.05, RngStream(SEED, 29))
    feats = step_features(np.array([0.3, -1.1]), np.array([-0.4, 0.9]), 0.62)
    r = 0.71

    def logpdf():
        alpha, beta = raw_to_shape(policy.net.forward(feats))
        return beta_log_pdf(r, float(alpha), float(beta))

    raw = policy.net.forward(feats)
    alpha, beta = raw_to_shape(raw)
    dlp_draw = log_pdf_grad_wrt_raw(r, raw, float(alpha), float(beta))
    analytic_lp = policy.net.unflatten(policy.net.backward(feats, dlp_draw)[0])
    lp_err = _rel_err(analytic_lp, _central_diff(logpdf, policy.net.parameters()))

    # full surrogate loss: clipped ratios, advantages, and the KL penalty
    target = standard_normal_target(2)
    oracle = VelocityField("oracle", target=target)
    actor = init_policy(2, 0.72, RngStream(SEED, 30), hidden=(6,))
    group = rollout_group(actor, oracle, target, ScheduleConfig(), 4,
                          RngStream(SEED, 31), 0.95)
    ref = _jitter_policy(init_policy(2, 0.72, RngStream(SEED, 30), hidden=(6,)),
                         0.02, RngStream(SEED, 32))
    _jitter_policy(actor, 0.01, RngStream(SEED, 33))
    cfg = RLConfig(gamma=0.95, kl_weight=0.3, clip=0.2, group_size=4,
                   batch_size=8, inner_epochs=1, lr=1e-3, outer_steps=1)
    analytic_ppo = actor.net.unflatten(ppo_loss(actor, ref, group, cfg).grad)
    fd_ppo = _central_diff(lambda: ppo_loss(actor, ref, group, cfg).loss,
                           actor.net.parameters())
    ppo_err = _rel_err(analytic_ppo, fd_ppo)

    values = {"net_err": net_err, "fm_err": fm_err, "lp_err": lp_err,
              "ppo_err": ppo_err}
    grads_flat = [g for gs in (analytic_net, analytic_fm, analytic_lp,
                               analytic_ppo) for g in gs]
    return values, _digest(sorted(values.items()), *grads_flat)


def test_gradient_finite_difference_agreement():
    v = _run_twice("gradients")
    assert v["net_err"] <= 1e-4
    assert v["fm_err"] <= 1e-4
    assert v["lp_err"] <= 1e-4
    assert v["ppo_err"] <= 1e-3


# criterion 3: oracle-field Euler transport reproduces the target law, and
# the grid-quantized sampler agrees with the continuous one on paired noise.
def _criterion_transport():
    field = VelocityField("oracle", target=standard_normal_target(2))
    finals = transport_uniform(field, 10_000, 200, RngStream(SEED, 31))
    mean = finals.mean(axis=0)
    var = finals.var(axis=0)

    policy = init_policy(2, 0.75, RngStream(SEED, 32))
    cont = _roll(policy, field, ScheduleConfig(mode="adaptive"), RngStream(SEED, 33), 10_000)
    disc = _roll(policy, field, ScheduleConfig(mode="discrete-adaptive", grid_size=1000),
                 RngStream(SEED, 33), 10_000)
    mean_cont = cont.finals.mean(axis=0)
    mean_disc = disc.finals.mean(axis=0)

    values = {
        "mean_norm": float(np.linalg.norm(mean)),
        "var": var,
        "mean_gap": np.abs(mean_cont - mean_disc),
    }
    return values, _digest(mean, var, mean_cont, mean_disc, finals[:50])


def test_oracle_transport_statistics():
    v = _run_twice("transport")
    assert v["mean_norm"] <= 0.05
    assert np.all(v["var"] >= 0.9) and np.all(v["var"] <= 1.1)
    assert np.all(v["mean_gap"] <= 0.01)


# criterion 4: structural invariants over a large batch of adaptive rollouts.
def _criterion_schedule_invariants():
    field = VelocityField("oracle", target=standard_normal_target(2))
    policy = _jitter_policy(init_policy(2, 0.75, RngStream(SEED, 41)),
                            0.05, RngStream(SEED, 42))
    sched = ScheduleConfig(mode="adaptive")
    lanes = _roll(policy, field, sched, RngStream(SEED, 43), 10_000)
    lanes.validate()
    ns = lanes.n_steps
    rows = np.arange(len(ns))
    visited = np.arange(lanes.times.shape[1]) <= ns[:, None]
    assert np.all(lanes.times[:, 0] == 1.0) and np.all(lanes.times[rows, ns] == 0.0)
    assert np.all(np.diff(lanes.times, axis=1)[visited[:, 1:]] < 0.0)
    assert np.all(ns <= sched.n_max)
    feats, _, _ = lanes.kept()
    _, alpha, beta, _ = tpm_params_batch(policy, feats)
    min_shape = min(alpha.min(), beta.min())
    values = {
        "n_rollouts": len(ns),
        "min_shape": float(min_shape),
        "max_n": int(ns.max()),
        "n_hist": np.bincount(ns),
    }
    return values, _digest(values["min_shape"], values["n_hist"])


def test_schedule_invariants_bulk():
    v = _run_twice("schedule-invariants")
    assert v["n_rollouts"] == 10_000
    assert v["min_shape"] > 1.0
    assert v["max_n"] <= 40


def _csv_column(text, idx):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return [float(row[idx]) for row in rows]


# criterion 5: training raises the discounted reward, and the trained policy
# matches the fixed-uniform baseline at its own mean step count.
def _criterion_rl_improvement():
    with tempfile.TemporaryDirectory() as td:
        if main(["train-tpm", "--out", td]) != 0:
            raise RuntimeError("train-tpm failed")
        metrics_text = Path(td, "metrics.csv").read_text()
        if main(["compare-baselines", "--out", td]) != 0:
            raise RuntimeError("compare-baselines failed")
        baselines_text = Path(td, "baselines.csv").read_text()
    rewards = _csv_column(metrics_text, 1)
    rows = [line.split(",") for line in baselines_text.strip().splitlines()[1:]]
    by_name = {row[0]: (float(row[1]), float(row[2])) for row in rows}
    values = {
        "leading20": float(np.mean(rewards[:20])),
        "trailing20": float(np.mean(rewards[-20:])),
        "adaptive_ir": by_name["adaptive"][1],
        "matched_ir": by_name["fixed-matched"][1],
        "matched_n": by_name["fixed-matched"][0],
    }
    return values, _digest(metrics_text, baselines_text)


def test_rl_training_improves_reward_and_matches_fixed_baseline():
    v = _run_twice("rl-improvement")
    assert v["trailing20"] > v["leading20"]
    assert v["adaptive_ir"] >= v["matched_ir"] - 0.02


# criterion 6: larger discount factors keep more steps.
def _criterion_gamma_trend():
    with tempfile.TemporaryDirectory() as td:
        if main(["sweep-gamma", "--out", td, "--gammas", "0.85,0.90,0.95"]) != 0:
            raise RuntimeError("sweep-gamma failed")
        text = Path(td, "sweep_gamma.csv").read_text()
    values = {"gammas": _csv_column(text, 0), "mean_ns": _csv_column(text, 1)}
    return values, _digest(text)


def test_discount_factor_controls_step_count():
    v = _run_twice("gamma-trend")
    assert v["gammas"] == [0.85, 0.90, 0.95]
    ns = v["mean_ns"]
    assert ns[0] <= ns[1] <= ns[2]
    assert ns[2] - ns[0] >= 1.0


# criterion 7: one policy on mixed ring targets spends more steps on the
# harder ones, with positive step-count/complexity correlation.
def _criterion_complexity_trend():
    with tempfile.TemporaryDirectory() as td:
        if main(["complexity-sweep", "--out", td, "--levels", "1,4,8"]) != 0:
            raise RuntimeError("complexity-sweep failed")
        complexity_text = Path(td, "complexity.csv").read_text()
        correlation_text = Path(td, "correlation.csv").read_text()
        metrics_text = Path(td, "metrics.csv").read_text()
    levels = _csv_column(complexity_text, 0)
    mean_ns = _csv_column(complexity_text, 1)
    values = {
        "mean_n_by_level": dict(zip(levels, mean_ns)),
        "pearson_r": _csv_column(correlation_text, 0)[0],
    }
    return values, _digest(complexity_text, correlation_text, metrics_text)


def test_target_complexity_scales_step_count():
    v = _run_twice("complexity-trend")
    assert v["mean_n_by_level"][8.0] >= v["mean_n_by_level"][1.0]
    assert v["pearson_r"] > 0.0


# criterion 8: optimizing two-step reconstruction collapses the schedule;
# the discounted objective keeps it long under identical settings.
def _criterion_negative_control():
    target = single_gaussian_target([0.0, 0.0], 2.0)
    field = VelocityField("oracle", target=target)
    sched = ScheduleConfig()

    def mean_n(policy):
        return float(np.mean(_roll(policy, field, sched, RngStream(SEED, 3), 300).n_steps))

    naive = init_policy(2, 0.6, RngStream(SEED, 1))
    naive, _ = train_naive_two_step(naive, field, target, 500, 0.02,
                                    RngStream(SEED, 2), batch_size=64)
    disc = init_policy(2, 0.6, RngStream(SEED, 1))
    disc, _ = train_tpm(disc, [field], [target], RLConfig(gamma=0.95, **DESK_RL),
                        sched, RngStream(SEED, 4))
    values = {"naive_mean_n": mean_n(naive), "discounted_mean_n": mean_n(disc)}
    return values, _digest(sorted(values.items()),
                           *naive.net.parameters(), *disc.net.parameters())


def test_naive_objective_collapses_step_count():
    v = _run_twice("negative-control")
    assert v["naive_mean_n"] <= 3.0
    assert v["discounted_mean_n"] >= 5.0


_CRITERIA = {
    "math-kernel": _criterion_math_kernel,
    "gradients": _criterion_gradients,
    "transport": _criterion_transport,
    "schedule-invariants": _criterion_schedule_invariants,
    "rl-improvement": _criterion_rl_improvement,
    "gamma-trend": _criterion_gamma_trend,
    "complexity-trend": _criterion_complexity_trend,
    "negative-control": _criterion_negative_control,
}


# criterion 9: every pipeline above is bit-identical across two seeded runs,
# one in a fresh interpreter.
def test_full_determinism_bit_identical_reruns():
    for name in _CRITERIA:
        if name not in _DIGESTS:
            _run_twice(name)
    mismatched = sorted(n for n, (d1, d2) in _DIGESTS.items() if d1 != d2)
    assert mismatched == []
