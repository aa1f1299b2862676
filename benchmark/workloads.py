"""The three benchmark workloads, why each was chosen, and which layer
metric should move which end-to-end metric on which workload.

Every workload is a closed loop: one ``flowsched`` CLI invocation at a time,
each a fresh process started from this single benchmark process, BLAS pinned
to one thread. The workload seed (``--seed``) becomes the config ``seed``;
the program receives only the generated config and, for ``eval-ring4``, the
field and policy checkpoints made during set-up. The eval-ring4 field and
policy are that workload's fixed model, made from the example config's own
seed, so the seed varies its rollouts but not the model they sample.

Many short invocations
----------------------
Each timed invocation is a small slice of the workload, a second or two
(``TIMED_OUTER_STEPS``, ``TIMED_FLOW_STEPS``, ``EVAL_ROLLOUTS``), and a run
repeats it until ``--seconds`` are used, so a median has ten to twenty
samples and ``hostspeed.py`` can time the host between them: two sets of
ten runs of whole 7-second train-flow invocations spread 25% on one host.
Quality needs more than one slice: the full desk training on train-oracle,
2000 rollouts on eval-ring4 (500 spread 5% across seeds). These two also run
that full-size config once per run and take ``quality_loss`` from it alone.

Why these workloads
-------------------
train-oracle
    Desk-preset ``train-tpm`` on the default standard-normal oracle field:
    the paper's core loop. Cost sits in batched PPO work (``rl.ppo_loss`` ->
    array ``special_math`` -> ``nn.backward``) and in per-step scalar rollouts
    (``sampler`` -> ``policy`` -> ``flow``/``nn`` -> scalar ``special_math``).
    The oracle field is cheap, so batched ``nn`` work barely shows here.
eval-ring4
    ``compare-baselines`` (stochastic inference) on the 4-component ring of
    ``configs/example.json`` with a learned field; ``eval_rollouts`` raised so
    the command runs for seconds. Pure inference: per-step Python loops over
    batch-1 ``DenseNet.forward`` of the 64x64 field, ``sample_adaptive`` and
    ``sample_fixed``, ``predict_decay`` and scalar special functions. No
    ``rl`` training, no backward pass, no optimizer. Set-up makes the field
    with ``train-flow`` and a fixed-seed policy with ``init_policy`` +
    ``save_policy``, so the run never relies on the CLI's untrained-policy
    fallback.
train-flow-ring4
    ``train-flow`` with ``configs/example.json``: ``nn`` used the other way,
    batch-256 forward, backward and AdamW. No sampler, policy, special
    functions or PPO. An ``nn`` change that helps batch-1 forward but costs
    batched backward (or the reverse) shows here.

Layer -> end-to-end map
-----------------------
``LAYER_MAP`` below gives, for each per-layer probe of ``probes.py``, the
end-to-end metrics it should move and on which workload; on a workload it
does not name, the prediction is no change. ``test_benchmark.py`` checks that
it names only real probes, workloads and metrics. Traced self time per module
(``tracer.py``) shows the same split from inside a run: ``special_math`` and
``rl`` dominate train-oracle, batch-1 ``nn.forward`` and ``sampler`` dominate
eval-ring4, and ``nn`` dominates train-flow-ring4.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

# Size of one timed invocation (see "Short invocations, best of many").
# Outer PPO steps of a timed train-tpm run; the desk preset trains 60.
TIMED_OUTER_STEPS = 6
# Flow-training steps of a timed train-flow run; the example trains 5000.
TIMED_FLOW_STEPS = 1000
# Rollouts per timed compare-baselines run: the desk default.
EVAL_ROLLOUTS = 500
# Rollouts of the compare-baselines run that quality_loss is read from.
QUALITY_EVAL_ROLLOUTS = 2000
# Flow-training steps of the eval-ring4 field, made in set-up. The example's
# 5000 would make set-up (timed three times a run) longer than the timed
# command; inference cost does not depend on how long the field trained.
EVAL_FIELD_STEPS = 2000
# A fixed stream for the eval-ring4 policy checkpoint (same id the CLI uses
# for policy init, so the checkpoint equals what `train-tpm` starts from).
POLICY_INIT_STREAM = 1
# Rows of metrics.csv that make up final_reward.
REWARD_TAIL_ROWS = 20
# Share of flow_loss_0.csv rows that make up the flow-matching loss tail.
LOSS_TAIL_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # flowsched CLI subcommand that is timed
    why: str          # one line, copied into BENCHMARK.json
    base: str         # "desk" preset or the example config
    outputs: tuple[str, ...]  # result files compared byte for byte


WORKLOADS = {
    w.name: w for w in (
        Workload("train-oracle", "train-tpm",
                 "desk train-tpm on the oracle field: PPO loss, array special "
                 "functions and scalar rollouts, the paper's core loop",
                 "desk", ("metrics.csv", "policy.ckpt")),
        Workload("eval-ring4", "compare-baselines",
                 "compare-baselines on the learned ring-4 field: batch-1 field "
                 "forward and per-step sampling, no training",
                 "example", ("baselines.csv",)),
        Workload("train-flow-ring4", "train-flow",
                 "train-flow on the ring-4 example: batch-256 forward, backward "
                 "and AdamW; no sampler, policy or PPO",
                 "example", ("flow_loss_0.csv", "field_0.ckpt")),
    )
}

# probe -> the (workload, end-to-end metric) pairs it should move. A
# workload not listed for a probe should not move when only that layer
# changes; that is the prediction to check a layer change against.
ORACLE, EVAL, FLOW = "train-oracle", "eval-ring4", "train-flow-ring4"
SAMPLING = ((ORACLE, "field_evals_per_s"), (EVAL, "field_evals_per_s"))
LAYER_MAP = {
    "special_math.log_gamma.us.n60": ((ORACLE, "wall_s"),),
    "special_math.digamma.us.n60": ((ORACLE, "wall_s"),),
    "special_math.log_gamma.us.n1": ((EVAL, "field_evals_per_s"),),
    "special_math.beta_sample.us": ((EVAL, "field_evals_per_s"),),
    # the lane-batched shape a batch-first sampler would call
    "special_math.log_gamma.us.n10000": ((EVAL, "field_evals_per_s"),),
    "rng.child.us": SAMPLING,
    "rng.gamma.us": SAMPLING,
    "nn.forward.us.policy_b1": ((EVAL, "field_evals_per_s"),),
    "nn.forward.us.field_b1": ((EVAL, "field_evals_per_s"),),
    "nn.forward.us.policy_b64": ((ORACLE, "wall_s"),),
    "nn.backward.us.policy_b64": ((ORACLE, "wall_s"),),
    "nn.adamw_step.us.policy": ((ORACLE, "wall_s"),),
    "nn.save_checkpoint.us.policy": ((ORACLE, "wall_s"),),
    "nn.forward.us.field_b256": ((FLOW, "wall_s"), (EVAL, "setup_s")),
    "nn.backward.us.field_b256": ((FLOW, "wall_s"), (EVAL, "setup_s")),
    "nn.adamw_step.us.field": ((FLOW, "wall_s"), (EVAL, "setup_s")),
    "flow.velocity.us.oracle_b1": ((ORACLE, "field_evals_per_s"),),
    "flow.velocity.us.learned_b1": ((EVAL, "field_evals_per_s"),),
    "flow.log_density.us.ring4_b1": ((EVAL, "wall_s"),),
    "flow.fm_loss.us.b256": ((FLOW, "wall_s"), (EVAL, "setup_s")),
    "policy.predict_decay.us": SAMPLING,
    "policy.step_features.us": SAMPLING,
    "policy.tpm_params_batch.us.b64": ((ORACLE, "wall_s"),),
    "sampler.sample_adaptive.us_per_step.oracle": ((ORACLE, "field_evals_per_s"),),
    "sampler.sample_adaptive.us_per_step.learned": ((EVAL, "field_evals_per_s"),),
    "sampler.sample_fixed.us_per_step.learned": ((EVAL, "field_evals_per_s"),),
    # the vectorized floor a batch-first sampler should approach
    "sampler.transport_uniform.us_per_step.learned": ((EVAL, "field_evals_per_s"),),
    "rl.ppo_loss.us.group4": ((ORACLE, "wall_s"),),
    "rl.rollout_group.us.group4": ((ORACLE, "wall_s"),),
    # every CLI command stamps its run directory (spawning git describe)
    "config.write_run_stamp.ms": ((ORACLE, "wall_s"), (EVAL, "wall_s"), (FLOW, "wall_s")),
}

# End-to-end metrics: name -> (unit, better, bound). Every workload reports
# every one of them; the per-workload meaning of the last two is below.
#   wall_s: median wall time of the run's timed invocations, each one fresh
#     process from interpreter start to exit, at the reference host speed of
#     hostspeed.py.
#   setup_s: median wall time of the run's set-ups, at the reference speed.
#   peak_rss_mb: median peak resident memory of the timed invocations.
#   field_evals_per_s: median velocity-field point evaluations per second of
#     a timed invocation, at the reference speed. train-oracle: sum of
#     mean_N * batch_size over metrics.csv; eval-ring4: sum of
#     n_steps * eval_rollouts over baselines.csv (both are Euler steps);
#     train-flow-ring4: flow_steps * flow_batch (points evaluated and
#     differentiated).
#   quality_loss: bit-exact at a fixed seed, lower is better.
#     train-oracle: 1 / final_reward, the mean discounted reward over the
#     last 20 rows of metrics.csv of the full desk training; eval-ring4:
#     -mean log-density of the adaptive samples of the 2000-rollout run
#     under the target (mean_ir of baselines.csv plus the target's expected
#     log-density); train-flow-ring4: mean loss over the last 10% of
#     flow_loss_0.csv.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "field_evals_per_s": ("1/s", "higher", 0.25),
    "quality_loss": ("1", "lower", 0.1),
}


def base_config(workload: Workload, root: Path):
    """The documented config a workload starts from, as an ExperimentConfig."""
    from flowsched.config import ExperimentConfig, preset_config

    if workload.base == "desk":
        return preset_config("desk")
    return ExperimentConfig.load(root / "configs" / "example.json")


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite_floats(rows: list[dict[str, str]], columns: tuple[str, ...]) -> list[list[float]]:
    """Float columns of CSV rows; raises ValueError on a missing, unparsable
    or non-finite value."""
    out = []
    for i, row in enumerate(rows):
        vals = []
        for col in columns:
            cell = row.get(col)
            value = float(cell) if cell not in (None, "") else math.nan
            if not math.isfinite(value):
                raise ValueError(f"row {i}: {col}={cell!r} is not a finite number")
            vals.append(value)
        out.append(vals)
    return out


def target_expected_log_density(target: dict, n: int = 200_000) -> float:
    """E_{y~target}[log p(y)] for a Gaussian-mixture target given as config
    JSON, by Monte Carlo from a fixed generator. Computed here, not by the
    program, so the eval-ring4 quality metric does not move when the
    program's own centering constant changes."""
    import numpy as np

    means = np.asarray(target["means"], dtype=float)
    sigmas = np.asarray(target["sigmas"], dtype=float)
    weights = np.asarray(target["weights"], dtype=float)
    d = means.shape[1]
    gen = np.random.default_rng(0)
    idx = gen.choice(len(weights), p=weights, size=n)
    pts = means[idx] + sigmas[idx][:, None] * gen.standard_normal((n, d))
    sq = np.sum((pts[:, None, :] - means[None]) ** 2, axis=2) / sigmas[None] ** 2
    log_comp = (np.log(weights)[None] - d * np.log(sigmas)[None]
                - 0.5 * d * math.log(2 * math.pi) - 0.5 * sq)
    peak = log_comp.max(axis=1)
    log_p = peak + np.log(np.exp(log_comp - peak[:, None]).sum(axis=1))
    return float(log_p.mean())


def work_and_quality(workload: Workload, cfg: dict, out: Path) -> tuple[float, float]:
    """(field evaluations, quality_loss) of one finished invocation, read
    from its documented CSV outputs. Raises ValueError on malformed output."""
    if workload.name == "train-oracle":
        rows = finite_floats(read_rows(out / "metrics.csv"), ("mean_N", "mean_reward"))
        evals = sum(n for n, _ in rows) * cfg["rl"]["batch_size"]
        tail = [r for _, r in rows[-REWARD_TAIL_ROWS:]]
        reward = sum(tail) / len(tail)
        if reward <= 0.0:
            raise ValueError(f"final_reward {reward!r} is not positive")
        return evals, 1.0 / reward
    if workload.name == "eval-ring4":
        rows = read_rows(out / "baselines.csv")
        vals = finite_floats(rows, ("n_steps", "mean_ir"))
        evals = sum(n for n, _ in vals) * cfg["eval_rollouts"]
        adaptive = [v for row, v in zip(rows, vals) if row["name"] == "adaptive"]
        if len(adaptive) != 1:
            raise ValueError("baselines.csv has no single adaptive row")
        return evals, -(adaptive[0][1] + target_expected_log_density(cfg["targets"][0]))
    rows = finite_floats(read_rows(out / "flow_loss_0.csv"), ("loss",))
    tail = rows[-max(1, int(len(rows) * LOSS_TAIL_SHARE)):]
    return cfg["flow_steps"] * cfg["flow_batch"], sum(v for (v,) in tail) / len(tail)
