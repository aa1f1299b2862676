"""Set-up of one workload: resolve its config and make its inputs.

    python3 benchmark/setup_inputs.py WORKLOAD SEED DIR

Writes DIR/config.json, the config every timed invocation receives, with
the workload seed and the timed size of ``workloads.py``. For train-oracle
and eval-ring4 it also writes DIR/quality_config.json, the full-size run
(desk training, 2000 rollouts) that ``quality_loss`` is read from. For eval-ring4 it first makes DIR/field_0.ckpt
with the public ``train-flow`` command and DIR/policy.ckpt with
``init_policy`` + ``save_policy``, both from the example config's own seed,
and points the config at both. The benchmark times this whole process as ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from workloads import (EVAL_FIELD_STEPS, EVAL_ROLLOUTS, POLICY_INIT_STREAM,
                       QUALITY_EVAL_ROLLOUTS, TIMED_FLOW_STEPS, TIMED_OUTER_STEPS,
                       WORKLOADS, base_config)

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    workload, seed, out = WORKLOADS[argv[0]], int(argv[1]), Path(argv[2]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    cfg = base_config(workload, ROOT)
    cfg.out_dir = str(out)
    if workload.name == "eval-ring4":
        from flowsched.cli import main as cli_main
        from flowsched.policy import init_policy, save_policy
        from flowsched.rng import RngStream

        # Field and policy are this workload's model and keep the example's
        # own seed: the workload seed varies the rollouts, so quality_loss
        # measures sampling rather than one seed's field or initial policy.
        cfg.flow_steps = EVAL_FIELD_STEPS
        cfg.save(out / "flow_config.json")
        if cli_main(["train-flow", "--config", str(out / "flow_config.json")]) != 0:
            return 2
        policy = init_policy(cfg.targets[0].d, cfg.init_r_target,
                             RngStream(cfg.seed, POLICY_INIT_STREAM),
                             hidden=tuple(cfg.policy_hidden))
        save_policy(policy, out / "policy.ckpt")
        cfg.field_checkpoints = [str(out / "field_0.ckpt")]
        cfg.policy_checkpoint = str(out / "policy.ckpt")
    cfg.seed = seed
    if workload.name == "train-oracle":
        cfg.save(out / "quality_config.json")
        cfg.rl = dataclasses.replace(cfg.rl, outer_steps=TIMED_OUTER_STEPS)
    elif workload.name == "eval-ring4":
        cfg.eval_rollouts = QUALITY_EVAL_ROLLOUTS
        cfg.save(out / "quality_config.json")
        cfg.eval_rollouts = EVAL_ROLLOUTS
    elif workload.name == "train-flow-ring4":
        cfg.flow_steps = TIMED_FLOW_STEPS
    cfg.save(out / "config.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
