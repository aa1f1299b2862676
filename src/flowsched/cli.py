"""Experiment command line.

Subcommands mirror the analysis workflow: pretrain velocity fields, RL-train
the schedule policy, sample trajectories, and run the three preset studies
(discount sweep, fixed-schedule comparison, complexity sweep). Exit codes:
0 success, 1 command-line usage error, 2 any other failure, including a
config file that does not validate.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig, preset_config, write_run_stamp
from .flow import (TargetSpec, VelocityField, make_velocity_net,
                   ring_mixture_target, train_flow)
from .nn import load_checkpoint, save_checkpoint, write_atomic
from .policy import TimePolicy, init_policy, load_policy, save_policy
from .rl import (discounted_reward, step_log_probs, toy_reward, train_tpm,
                 write_metrics_csv)
from .rng import RngStream
from .sampler import ScheduleConfig, roll_lanes, rollout_batch, trajectory_to_csv
from .svg import polyline_plot

logger = logging.getLogger(__name__)

# stream ids for the independent random consumers of one experiment seed
STREAM_FLOW_INIT = 7
STREAM_FLOW_TRAIN = 8
STREAM_POLICY_INIT = 1
STREAM_RL_TRAIN = 2
STREAM_SAMPLE = 3
STREAM_EVAL = 4
STREAM_BASELINE_NOISE = 5
STREAM_BASELINE_DECAY = 6


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for every other
    failure, so command-line usage errors are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsched",
                     description="adaptive diffusion-time schedule experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train-flow": "pretrain velocity fields on the configured targets",
        "train-tpm": "RL-train the time policy against frozen fields",
        "sample": "roll trajectories with a policy and export them as CSV",
        "sweep-gamma": "train one policy per discount factor and compare step counts",
        "compare-baselines": "evaluate the trained policy against fixed schedules",
        "complexity-sweep": "train one policy across target complexities",
        "export-plots": "render SVG plots from the CSVs in a run directory",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=_seed_type, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--preset", choices=("desk", "paper"), default="desk")
        p.add_argument("--deterministic-inference", action="store_true",
                       help="use the Beta mode instead of sampling at evaluation")
        if name == "sample":
            p.add_argument("--n-trajectories", type=int, default=4)
        if name == "sweep-gamma":
            p.add_argument("--gammas", type=_float_list, default=[0.85, 0.90, 0.95])
        if name == "complexity-sweep":
            p.add_argument("--levels", type=_int_list, default=[1, 4, 8])
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.load(args.config) if args.config
           else preset_config(args.preset))
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _field_paths(cfg: ExperimentConfig, out: Path) -> list[Path]:
    if cfg.field_checkpoints:
        return [Path(p) for p in cfg.field_checkpoints]
    return [out / f"field_{i}.ckpt" for i in range(len(cfg.targets))]


def _build_fields(cfg: ExperimentConfig, out: Path) -> list[VelocityField]:
    if cfg.field_source == "oracle":
        return [VelocityField("oracle", target=t) for t in cfg.targets]
    fields = []
    for path in _field_paths(cfg, out):
        if not path.exists():
            raise FileNotFoundError(
                f"velocity checkpoint {path} not found; run train-flow first")
        net, _ = load_checkpoint(path)
        fields.append(VelocityField("learned", net=net))
    return fields


def _init_policy(cfg: ExperimentConfig, d: int) -> TimePolicy:
    return init_policy(d, cfg.init_r_target, RngStream(cfg.seed, STREAM_POLICY_INIT),
                       hidden=tuple(cfg.policy_hidden))


def _load_or_init_policy(cfg: ExperimentConfig, out: Path) -> TimePolicy:
    path = Path(cfg.policy_checkpoint) if cfg.policy_checkpoint else out / "policy.ckpt"
    if path.exists():
        return load_policy(path)
    logger.warning("no policy checkpoint at %s; using an untrained policy", path)
    return _init_policy(cfg, cfg.targets[0].d)


def _pretrain_field(cfg: ExperimentConfig, target: TargetSpec,
                    stream: int) -> tuple[VelocityField, np.ndarray]:
    """Flow-match a fresh velocity net on target; stream indexes the child
    of the flow init and flow training streams it draws from."""
    net = make_velocity_net(target.d, tuple(cfg.flow_hidden),
                            RngStream(cfg.seed, STREAM_FLOW_INIT).child(stream))
    return train_flow(VelocityField("learned", net=net), target, cfg.flow_steps,
                      RngStream(cfg.seed, STREAM_FLOW_TRAIN).child(stream),
                      batch_size=cfg.flow_batch, lr=cfg.flow_lr)


@dataclasses.dataclass
class EvalSummary:
    mean_n: float
    std_n: float
    mean_ir: float
    mean_reward: float
    n_rollouts: int
    curve_steps: list[int]
    curve_times: list[float]
    per_rollout_n: list[int]


def evaluate_policy(policy: TimePolicy, velocity_field: VelocityField,
                    target: TargetSpec, sched: ScheduleConfig, gamma: float,
                    rng: RngStream, n: int, deterministic: bool) -> EvalSummary:
    """n adaptive rollouts -> step-count/reward summary + mean schedule curve."""
    lanes = roll_lanes(velocity_field, sched, [rng.child(i) for i in range(n)],
                       policy=policy, deterministic=deterministic)
    ns = lanes.n_steps
    irs = toy_reward(lanes.finals, target)
    rewards = discounted_reward(irs, ns, gamma)
    # mean time at step k over the rollouts still running there
    curve = [float(np.mean(lanes.times[ns >= k, k])) for k in range(ns.max() + 1)]
    return EvalSummary(
        mean_n=float(ns.mean()), std_n=float(ns.std()),
        mean_ir=float(irs.mean()), mean_reward=float(rewards.mean()),
        n_rollouts=n, curve_steps=list(range(len(curve))), curve_times=curve,
        per_rollout_n=ns.tolist(),
    )


def _write_curve_csv(summary: EvalSummary, path: Path) -> None:
    write_atomic(path, "step,mean_t\n" + "".join(
        f"{k},{t!r}\n" for k, t in zip(summary.curve_steps, summary.curve_times)))


def cmd_train_flow(cfg: ExperimentConfig) -> None:
    out = write_run_stamp(cfg, cfg.out_dir)
    for i, target in enumerate(cfg.targets):
        velocity_field, losses = _pretrain_field(cfg, target, i)
        save_checkpoint(velocity_field.net, out / f"field_{i}.ckpt")
        write_atomic(out / f"flow_loss_{i}.csv", "step,loss\n" + "".join(
            f"{k},{float(loss)!r}\n" for k, loss in enumerate(losses)))
        logger.info("target %d: final flow loss %.4f", i, losses[-1])


def cmd_train_tpm(cfg: ExperimentConfig) -> None:
    out = write_run_stamp(cfg, cfg.out_dir)
    fields = _build_fields(cfg, out)
    policy, metrics = train_tpm(
        _init_policy(cfg, cfg.targets[0].d), fields, cfg.targets, cfg.rl,
        cfg.schedule, RngStream(cfg.seed, STREAM_RL_TRAIN),
        checkpoint_path=out / "policy.ckpt",
    )
    save_policy(policy, out / "policy.ckpt")
    write_metrics_csv(metrics, out / "metrics.csv")
    if metrics:
        logger.info("final mean N %.2f, mean reward %.4f",
                    metrics[-1].mean_n, metrics[-1].mean_reward)


def cmd_sample(cfg: ExperimentConfig, n_trajectories: int,
               deterministic: bool) -> None:
    out = write_run_stamp(cfg, cfg.out_dir)
    fields = _build_fields(cfg, out)
    policy = _load_or_init_policy(cfg, out)
    trajs = rollout_batch(policy, fields[0], cfg.schedule,
                          RngStream(cfg.seed, STREAM_SAMPLE), n_trajectories,
                          deterministic)
    for j, traj in enumerate(trajs):
        trajectory_to_csv(traj, step_log_probs(policy, traj),
                          out / f"trajectory_{j}.csv")


def cmd_sweep_gamma(cfg: ExperimentConfig, gammas: Sequence[float],
                    deterministic: bool) -> None:
    if any(not 0.0 < g < 1.0 for g in gammas):
        raise ValueError("gamma values must lie in (0, 1)")
    out = write_run_stamp(cfg, cfg.out_dir)
    fields = _build_fields(cfg, out)
    rows = []
    for gamma in gammas:
        rl = dataclasses.replace(cfg.rl, gamma=gamma)
        # identical streams per gamma: only the discount differs
        policy, _ = train_tpm(_init_policy(cfg, cfg.targets[0].d), fields,
                              cfg.targets, rl, cfg.schedule,
                              RngStream(cfg.seed, STREAM_RL_TRAIN))
        save_policy(policy, out / f"policy_gamma_{gamma!r}.ckpt")
        summary = evaluate_policy(policy, fields[0], cfg.targets[0], cfg.schedule,
                                  gamma, RngStream(cfg.seed, STREAM_EVAL),
                                  cfg.eval_rollouts, deterministic)
        rows.append((gamma, summary))
        logger.info("gamma %.2f: mean N %.2f, mean IR %.4f",
                    gamma, summary.mean_n, summary.mean_ir)
    write_atomic(out / "sweep_gamma.csv",
                 "gamma,mean_N,std_N,mean_ir,mean_reward,n_rollouts\n" + "".join(
                     f"{gamma!r},{s.mean_n!r},{s.std_n!r},{s.mean_ir!r},"
                     f"{s.mean_reward!r},{s.n_rollouts}\n" for gamma, s in rows))


def cmd_compare_baselines(cfg: ExperimentConfig, deterministic: bool) -> None:
    out = write_run_stamp(cfg, cfg.out_dir)
    fields = _build_fields(cfg, out)
    policy = _load_or_init_policy(cfg, out)
    target, velocity_field = cfg.targets[0], fields[0]
    n = cfg.eval_rollouts
    noise = np.array([
        RngStream(cfg.seed, STREAM_BASELINE_NOISE).child(j).standard_normal(target.d)
        for j in range(n)])
    decay_rng = RngStream(cfg.seed, STREAM_BASELINE_DECAY)
    adaptive = roll_lanes(velocity_field, cfg.schedule,
                          [decay_rng.child(j) for j in range(n)], noise, policy,
                          deterministic)
    mean_n = float(np.mean(adaptive.n_steps))
    matched = max(1, int(round(mean_n)))

    def fixed_ir(n_steps: int) -> float:
        sched = ScheduleConfig(mode="fixed-uniform", fixed_n=n_steps,
                               t_min=cfg.schedule.t_min, n_max=max(2, n_steps + 1),
                               grid_size=cfg.schedule.grid_size)
        lanes = roll_lanes(velocity_field, sched, noise=noise)
        return float(np.mean(toy_reward(lanes.finals, target)))

    rows = [
        ("adaptive", mean_n, float(np.mean(toy_reward(adaptive.finals, target)))),
        ("fixed-matched", float(matched), fixed_ir(matched)),
        ("fixed-2x", float(2 * matched), fixed_ir(2 * matched)),
    ]
    write_atomic(out / "baselines.csv", "name,n_steps,mean_ir\n" + "".join(
        f"{name},{steps!r},{ir!r}\n" for name, steps, ir in rows))
    for name, steps, ir in rows:
        logger.info("%s: N=%.2f mean IR %.4f", name, steps, ir)


def cmd_complexity_sweep(cfg: ExperimentConfig, levels: Sequence[int],
                         deterministic: bool) -> None:
    if any(lv < 1 for lv in levels):
        raise ValueError("complexity levels must be positive")
    out = write_run_stamp(cfg, cfg.out_dir)
    targets = [ring_mixture_target(lv) for lv in levels]
    fields = []
    for i, target in enumerate(targets):
        velocity_field, _ = _pretrain_field(cfg, target, 100 + i)
        save_checkpoint(velocity_field.net, out / f"field_level_{levels[i]}.ckpt")
        fields.append(velocity_field)
    policy, metrics = train_tpm(_init_policy(cfg, targets[0].d), fields, targets,
                                cfg.rl, cfg.schedule,
                                RngStream(cfg.seed, STREAM_RL_TRAIN),
                                checkpoint_path=out / "policy.ckpt")
    write_metrics_csv(metrics, out / "metrics.csv")
    rows = []
    pairs_level, pairs_n = [], []
    for level, target, velocity_field in zip(levels, targets, fields):
        summary = evaluate_policy(policy, velocity_field, target, cfg.schedule,
                                  cfg.rl.gamma,
                                  RngStream(cfg.seed, STREAM_EVAL).child(level),
                                  cfg.eval_rollouts, deterministic)
        rows.append((level, summary))
        pairs_level.extend([level] * summary.n_rollouts)
        pairs_n.extend(summary.per_rollout_n)
        _write_curve_csv(summary, out / f"schedule_curve_level_{level}.csv")
        logger.info("complexity %d: mean N %.2f", level, summary.mean_n)
    corr = float(np.corrcoef(np.array(pairs_level, dtype=float),
                             np.array(pairs_n, dtype=float))[0, 1])
    write_atomic(out / "complexity.csv", "level,mean_N,std_N,mean_ir,n_rollouts\n" + "".join(
        f"{level},{s.mean_n!r},{s.std_n!r},{s.mean_ir!r},{s.n_rollouts}\n"
        for level, s in rows))
    write_atomic(out / "correlation.csv",
                 f"pearson_r,n_samples\n{corr!r},{len(pairs_n)}\n")
    logger.info("complexity/step-count correlation %.3f over %d rollouts",
                corr, len(pairs_n))


def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise FileNotFoundError(f"expected CSV {path} is missing")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise RuntimeError(f"{path}: no data rows to plot")
    return rows[0], rows[1:]


def cmd_export_plots(out_dir: str) -> None:
    out = Path(out_dir)
    if not out.is_dir():
        raise FileNotFoundError(f"run directory {out} does not exist")
    made = 0

    def columns(header, rows, x_name, y_name):
        xi, yi = header.index(x_name), header.index(y_name)
        xs = [float(r[xi]) for r in rows]
        ys = [float(r[yi]) for r in rows]
        return xs, ys

    for path in sorted(out.glob("metrics.csv")):
        header, rows = _read_csv_rows(path)
        for col in ("mean_reward", "mean_N", "mean_kl"):
            xs, ys = columns(header, rows, "outer_step", col)
            polyline_plot([(col, xs, ys)], f"training {col}", "outer step", col,
                          out / f"metrics_{col}.svg")
            made += 1
    for path in sorted(out.glob("flow_loss_*.csv")):
        header, rows = _read_csv_rows(path)
        xs, ys = columns(header, rows, "step", "loss")
        polyline_plot([("fm_loss", xs, ys)], path.stem, "step", "loss",
                      out / f"{path.stem}.svg")
        made += 1
    schedule_series = []
    for path in sorted(out.glob("schedule_curve_*.csv")):
        header, rows = _read_csv_rows(path)
        xs, ys = columns(header, rows, "step", "mean_t")
        schedule_series.append((path.stem.replace("schedule_curve_", ""), xs, ys))
    for path in sorted(out.glob("trajectory_*.csv")):
        header, rows = _read_csv_rows(path)
        xs, ys = columns(header, rows, "step", "t")
        schedule_series.append((path.stem, xs, ys))
    if schedule_series:
        polyline_plot(schedule_series, "diffusion time vs step", "step", "t",
                      out / "schedules.svg")
        made += 1
    for path in sorted(out.glob("sweep_gamma.csv")):
        header, rows = _read_csv_rows(path)
        xs, ys = columns(header, rows, "gamma", "mean_N")
        polyline_plot([("mean_N", xs, ys)], "discount vs step count", "gamma",
                      "mean N", out / "sweep_gamma.svg")
        made += 1
    for path in sorted(out.glob("complexity.csv")):
        header, rows = _read_csv_rows(path)
        xs, ys = columns(header, rows, "level", "mean_N")
        polyline_plot([("mean_N", xs, ys)], "complexity vs step count", "level",
                      "mean N", out / "complexity.svg")
        made += 1
    if made == 0:
        raise FileNotFoundError(f"no plottable CSV files found in {out}")
    logger.info("wrote %d SVG plots to %s", made, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-plots":
            cmd_export_plots(args.out or (_resolve_config(args).out_dir))
            return 0
        cfg = _resolve_config(args)
        if args.command == "train-flow":
            cmd_train_flow(cfg)
        elif args.command == "train-tpm":
            cmd_train_tpm(cfg)
        elif args.command == "sample":
            cmd_sample(cfg, args.n_trajectories, args.deterministic_inference)
        elif args.command == "sweep-gamma":
            cmd_sweep_gamma(cfg, args.gammas, args.deterministic_inference)
        elif args.command == "compare-baselines":
            cmd_compare_baselines(cfg, args.deterministic_inference)
        elif args.command == "complexity-sweep":
            cmd_complexity_sweep(cfg, args.levels, args.deterministic_inference)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        return 0
    except Exception as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
