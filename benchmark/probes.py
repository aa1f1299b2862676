"""Per-layer probes: each times one public flowsched function from outside.

A probe looks its functions up at run time. When one is gone (the ROADMAP
plans to delete ``sample_adaptive``, ``rollout_batch`` and the scalar
``tpm_params``, for example) the probe is reported as absent; that is not a
failed run. Each probe warms up first (while OpenBLAS started its threads,
the first hundred ``fm_loss`` calls were once twelve times slower than the
rest), then times single calls and reports the median and p99 with the
sample count.
"""

from __future__ import annotations

import importlib
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

WARM_S = 0.05
WARM_CALLS = 20
RUN_S = 0.25
MIN_SAMPLES = 25
MAX_SAMPLES = 20_000


class Absent(Exception):
    """A public name a probe needs no longer exists."""


def need(module: str, name: str):
    try:
        obj = getattr(importlib.import_module(f"flowsched.{module}"), name)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"flowsched.{module}.{name}") from exc
    return obj


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1, int(np.ceil(q * len(sorted_vals))) - 1))
    return sorted_vals[k]


def measure(fn, scale: float, clock=time.perf_counter) -> dict:
    """Time single calls of fn after a warm-up. fn returns the number of
    units it did (None for one); samples are `scale` * seconds per unit."""
    end = clock() + WARM_S
    k = 0
    while k < WARM_CALLS or clock() < end:
        fn()
        k += 1
    samples = []
    end = clock() + RUN_S
    while (len(samples) < MIN_SAMPLES or clock() < end) and len(samples) < MAX_SAMPLES:
        t0 = clock()
        units = fn()
        samples.append(scale * (clock() - t0) / (units or 1))
    samples.sort()
    return {"median": statistics.median(samples), "p99": percentile(samples, 0.99),
            "n": len(samples)}


class Context:
    """Inputs shared by the probes, all derived from the workload seed."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.gen = np.random.default_rng(seed)
        RngStream = need("rng", "RngStream")
        self.rng = RngStream(seed, 99)
        self._cache = {}

    def once(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def shapes(self, n: int) -> np.ndarray:
        # Beta shapes as the policy emits them: 1 + e^a with a around 1.
        return 1.0 + np.exp(self.gen.normal(1.0, 0.7, n))

    def policy(self):
        return self.once("policy", lambda: need("policy", "init_policy")(
            2, 0.75, self.rng.child(1)))

    def field_net(self):
        return self.once("field", lambda: need("flow", "make_velocity_net")(
            2, (64, 64), self.rng.child(2)))

    def learned(self):
        VelocityField = need("flow", "VelocityField")
        return self.once("learned", lambda: VelocityField("learned", net=self.field_net()))

    def oracle(self):
        VelocityField = need("flow", "VelocityField")
        target = need("flow", "standard_normal_target")()
        return self.once("oracle", lambda: VelocityField("oracle", target=target))

    def sched(self, **kw):
        return need("sampler", "ScheduleConfig")(**kw)

    def feats(self, n: int) -> np.ndarray:
        x = self.gen.standard_normal((n, 2))
        t = self.gen.uniform(0.05, 1.0, (n, 1))
        return np.concatenate([x, -x, t, t * t], axis=1)


def _call(fn, *args):
    """fn(*args) as a one-unit probe body (its result is not a unit count)."""
    return lambda: (fn(*args), None)[1]


def _counter():
    box = [0]

    def nxt():
        box[0] += 1
        return box[0]
    return nxt


def p_log_gamma(n):
    def build(c):
        log_gamma = need("special_math", "log_gamma")
        x = float(c.shapes(1)[0]) if n == 1 else c.shapes(n)
        return _call(log_gamma, x)
    return build


def p_digamma_n60(c):
    return _call(need("special_math", "digamma"), c.shapes(60))


def p_beta_sample(c):
    params = need("special_math", "BetaParams")(*map(float, c.shapes(2)))
    return _call(need("special_math", "beta_sample"), params, c.rng.child(3))


def p_rng_child(c):
    nxt = _counter()
    return lambda: (c.rng.child(nxt()), None)[1]


def p_rng_gamma(c):
    stream, shape = c.rng.child(4), float(c.shapes(1)[0])
    return _call(stream.gamma, shape)


def p_forward(kind, batch):
    def build(c):
        net = c.policy().net if kind == "policy" else c.field_net()
        x = c.gen.standard_normal((batch, net.sizes[0]))
        return _call(net.forward, x[0] if batch == 1 else x)
    return build


def p_backward(kind, batch):
    def build(c):
        net = c.policy().net if kind == "policy" else c.field_net()
        x = c.gen.standard_normal((batch, net.sizes[0]))
        g = c.gen.standard_normal((batch, net.sizes[-1]))
        return _call(net.backward, x, g)
    return build


def p_adamw(kind):
    def build(c):
        adamw_step = need("nn", "adamw_step")
        OptimizerState = need("nn", "OptimizerState")
        net = (c.policy().net if kind == "policy" else c.field_net()).copy()
        box = [net.parameters()]
        grads = [c.gen.standard_normal(p.shape) * 1e-3 for p in box[0]]
        box.append(OptimizerState.for_params(box[0], lr=1e-3))

        def step():
            box[0], box[1] = adamw_step(box[0], grads, box[1])
        return step
    return build


def p_save_checkpoint(c):
    path = c.workdir / "probe_policy.ckpt"
    return _call(need("nn", "save_checkpoint"), c.policy().net, path)


def p_velocity(kind):
    def build(c):
        field = c.oracle() if kind == "oracle" else c.learned()
        return _call(field, c.gen.standard_normal(2), 0.5)
    return build


def p_log_density(c):
    target = need("flow", "ring_mixture_target")(4)
    return _call(target.log_density, c.gen.standard_normal(2))


def p_fm_loss(c):
    x0 = c.gen.standard_normal((256, 2))
    eps = c.gen.standard_normal((256, 2))
    t = c.gen.uniform(size=256)
    return _call(need("flow", "fm_loss"), c.learned(), x0, eps, t)


def p_predict_decay(c):
    return _call(need("policy", "predict_decay"), c.policy(), c.feats(1)[0],
                 c.rng.child(5))


def p_step_features(c):
    x, v = c.gen.standard_normal(2), c.gen.standard_normal(2)
    return _call(need("policy", "step_features"), x, v, 0.5)


def p_tpm_params_batch(c):
    return _call(need("policy", "tpm_params_batch"), c.policy(), c.feats(64))


def p_sample_adaptive(kind):
    def build(c):
        sample_adaptive = need("sampler", "sample_adaptive")
        field = c.oracle() if kind == "oracle" else c.learned()
        sched, policy, stream, nxt = c.sched(), c.policy(), c.rng.child(6), _counter()
        return lambda: sample_adaptive(policy, field, sched, stream.child(nxt())).n_steps
    return build


def p_sample_fixed(c):
    sample_fixed = need("sampler", "sample_fixed")
    sched = c.sched(mode="fixed-uniform", fixed_n=16, n_max=17)
    field, stream, nxt = c.learned(), c.rng.child(7), _counter()
    return lambda: sample_fixed(field, sched, stream.child(nxt())).n_steps


def p_transport_uniform(c):
    transport_uniform = need("sampler", "transport_uniform")
    field, stream = c.learned(), c.rng.child(8)

    def run():
        transport_uniform(field, 1000, 16, stream)
        return 1000 * 16
    return run


def _group(c):
    rollout_group = need("rl", "rollout_group")
    target = need("flow", "standard_normal_target")()
    return rollout_group, target


def p_rollout_group(c):
    rollout_group, target = _group(c)
    policy, field, sched, stream = c.policy(), c.oracle(), c.sched(), c.rng.child(9)
    nxt = _counter()
    return lambda: (rollout_group(policy, field, target, sched, 4,
                                  stream.child(nxt()), 0.95), None)[1]


def p_ppo_loss(c):
    rollout_group, target = _group(c)
    ppo_loss = need("rl", "ppo_loss")
    cfg = need("rl", "RLConfig")(batch_size=64, outer_steps=60, lr=3e-3, kl_weight=0.2)
    policy = c.policy()
    group = rollout_group(policy, c.oracle(), target, c.sched(), 4, c.rng.child(10), 0.95)
    return _call(ppo_loss, policy, policy.copy(), group, cfg)


def p_write_run_stamp(c):
    write_run_stamp = need("config", "write_run_stamp")
    cfg = need("config", "preset_config")("desk")
    return _call(write_run_stamp, cfg, c.workdir / "stamp")


# name -> (unit, builder); the name's unit suffix says us per call, us per
# step or ms per call.
PROBES = {
    "special_math.log_gamma.us.n60": ("us", p_log_gamma(60)),
    "special_math.digamma.us.n60": ("us", p_digamma_n60),
    "special_math.log_gamma.us.n1": ("us", p_log_gamma(1)),
    "special_math.beta_sample.us": ("us", p_beta_sample),
    "special_math.log_gamma.us.n10000": ("us", p_log_gamma(10_000)),
    "rng.child.us": ("us", p_rng_child),
    "rng.gamma.us": ("us", p_rng_gamma),
    "nn.forward.us.policy_b1": ("us", p_forward("policy", 1)),
    "nn.forward.us.field_b1": ("us", p_forward("field", 1)),
    "nn.forward.us.policy_b64": ("us", p_forward("policy", 64)),
    "nn.backward.us.policy_b64": ("us", p_backward("policy", 64)),
    "nn.adamw_step.us.policy": ("us", p_adamw("policy")),
    "nn.save_checkpoint.us.policy": ("us", p_save_checkpoint),
    "nn.forward.us.field_b256": ("us", p_forward("field", 256)),
    "nn.backward.us.field_b256": ("us", p_backward("field", 256)),
    "nn.adamw_step.us.field": ("us", p_adamw("field")),
    "flow.velocity.us.oracle_b1": ("us", p_velocity("oracle")),
    "flow.velocity.us.learned_b1": ("us", p_velocity("learned")),
    "flow.log_density.us.ring4_b1": ("us", p_log_density),
    "flow.fm_loss.us.b256": ("us", p_fm_loss),
    "policy.predict_decay.us": ("us", p_predict_decay),
    "policy.step_features.us": ("us", p_step_features),
    "policy.tpm_params_batch.us.b64": ("us", p_tpm_params_batch),
    "sampler.sample_adaptive.us_per_step.oracle": ("us", p_sample_adaptive("oracle")),
    "sampler.sample_adaptive.us_per_step.learned": ("us", p_sample_adaptive("learned")),
    "sampler.sample_fixed.us_per_step.learned": ("us", p_sample_fixed),
    "sampler.transport_uniform.us_per_step.learned": ("us", p_transport_uniform),
    "rl.ppo_loss.us.group4": ("us", p_ppo_loss),
    "rl.rollout_group.us.group4": ("us", p_rollout_group),
    "config.write_run_stamp.ms": ("ms", p_write_run_stamp),
}
SCALE = {"us": 1e6, "ms": 1e3}


def run_probes(seed: int, workdir: Path, probes=None) -> tuple[dict, dict]:
    """({probe: {median, p99, n, unit}}, {absent probe: reason}).

    A probe whose functions are gone, or whose call no longer fits the
    function it names, is absent: the layer was refactored, which is not a
    failure of the run.
    """
    probes = PROBES if probes is None else probes
    results, absent = {}, {}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        try:
            ctx = Context(seed, Path(tmp))
        except Absent as exc:
            return {}, {name: str(exc) for name in probes}
        for name, (unit, build) in probes.items():
            try:
                results[name] = dict(measure(build(ctx), SCALE[unit]), unit=unit)
            except (Absent, TypeError, AttributeError) as exc:
                absent[name] = f"{type(exc).__name__}: {exc}"
    return results, absent
