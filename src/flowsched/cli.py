"""Experiment command line.

Subcommands mirror the analysis workflow: pretrain velocity fields, RL-train
the schedule policy, sample trajectories, and run the three preset studies
(discount sweep, fixed-schedule comparison, complexity sweep). Exit codes:
0 success, 1 command-line usage error, 2 any other failure, including a
config file that does not validate.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

# One BLAS thread unless the environment names a count, set before numpy
# loads: the package's matrices are small, where a second thread only
# contends with the first and doubles a run's CPU time.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from .config import (PRESETS, ExperimentConfig, ScheduleConfig, preset_config,
                     write_run_stamp)
from .flow import (TargetSpec, VelocityField, field_header, make_velocity_net,
                   read_field_header, ring_mixture_target, toy_reward, train_flow)
from .nn import load_checkpoint, save_checkpoint, write_csv
from .rng import RngStream

# rl, policy, sampler and svg are imported by the commands that use them, so
# train-flow loads only config, flow, nn and rng, and compare-baselines adds
# only policy, sampler and special_math
if TYPE_CHECKING:
    from .policy import TimePolicy

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


def _resolve_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.load(args.config) if args.config
           else preset_config(args.preset))
    dims = sorted({target.d for target in cfg.targets})
    if COMMANDS[args.command].one_policy and len(dims) > 1:
        raise ValueError(f"{args.config}: {args.command} needs one target dimension for "
                         f"its policy, but the targets have dimensions {dims}")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _field_paths(cfg: ExperimentConfig, out: Path) -> list[Path]:
    if cfg.field_checkpoints:
        return [Path(p) for p in cfg.field_checkpoints]
    return [out / f"field_{i}.ckpt" for i in range(len(cfg.targets))]


def _build_fields(cfg: ExperimentConfig,
                  out: Path) -> tuple[list[VelocityField], list[TargetSpec]]:
    """The velocity field of each configured target, and the target to score
    it with: a learned field's target holds the reward-centering constant
    its checkpoint header carries (flow.read_field_header)."""
    if cfg.field_source == "oracle":
        return [VelocityField("oracle", target=t) for t in cfg.targets], cfg.targets
    fields, targets = [], []
    for path, target in zip(_field_paths(cfg, out), cfg.targets):
        if not path.exists():
            raise FileNotFoundError(
                f"velocity checkpoint {path} not found; run train-flow first")
        net, header = load_checkpoint(path)
        try:
            velocity_field = VelocityField("learned", net=net)
        except ValueError as exc:  # such as a policy checkpoint listed here
            raise ValueError(f"checkpoint {path}: {exc}") from None
        fields.append(_of_dimension(velocity_field, path, target.d))
        targets.append(read_field_header(header, target, path))
    return fields, targets


def _of_dimension(loaded, path: Path, d: int):
    """loaded, the field or policy read from path, if it is for dimension d."""
    if loaded.d != d:
        raise ValueError(f"checkpoint {path} is for dimension {loaded.d}, "
                         f"but its target has dimension {d}")
    return loaded


def _init_policy(cfg: ExperimentConfig, d: int) -> TimePolicy:
    from .policy import init_policy

    return init_policy(d, cfg.init_r_target, RngStream(cfg.seed, STREAM_POLICY_INIT),
                       hidden=tuple(cfg.policy_hidden))


def _load_or_init_policy(cfg: ExperimentConfig, out: Path) -> TimePolicy:
    from .policy import load_policy

    path = Path(cfg.policy_checkpoint) if cfg.policy_checkpoint else out / "policy.ckpt"
    if path.exists():
        return _of_dimension(load_policy(path), path, cfg.targets[0].d)
    logger.warning("no policy checkpoint at %s; using an untrained policy", path)
    return _init_policy(cfg, cfg.targets[0].d)


def _remove_stale(out: Path, *patterns: str) -> None:
    """Delete the files a previous run left in out under patterns, so a rerun
    that writes fewer of them leaves none behind (nor a plot of one)."""
    for pattern in patterns:
        for path in out.glob(pattern):
            path.unlink()


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
    curve_times: list[float]
    per_rollout_n: list[int]


def evaluate_policy(policy: TimePolicy, velocity_field: VelocityField,
                    target: TargetSpec, sched: ScheduleConfig, gamma: float,
                    rng: RngStream, n: int, deterministic: bool) -> EvalSummary:
    """n adaptive rollouts -> step-count/reward summary + mean schedule curve."""
    from .rl import discounted_reward
    from .sampler import roll_lanes

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
        n_rollouts=n, curve_times=curve, per_rollout_n=ns.tolist(),
    )


def cmd_train_flow(cfg: ExperimentConfig, args) -> None:
    out = write_run_stamp(cfg, cfg.out_dir)
    _remove_stale(out, "field_[0-9]*.ckpt", "flow_loss_*.csv")
    for i, target in enumerate(cfg.targets):
        velocity_field, losses = _pretrain_field(cfg, target, i)
        save_checkpoint(velocity_field.net, out / f"field_{i}.ckpt", field_header(target))
        write_csv(out / f"flow_loss_{i}.csv", ("step", "loss"), enumerate(losses))
        logger.info("target %d: final flow loss %.4f", i, losses[-1])


def cmd_train_tpm(cfg: ExperimentConfig, args) -> None:
    from .rl import train_tpm, write_metrics_csv

    out = write_run_stamp(cfg, cfg.out_dir)
    fields, targets = _build_fields(cfg, out)
    # train_tpm saves the policy it returns over the checkpoint
    _, metrics = train_tpm(
        _init_policy(cfg, cfg.targets[0].d), fields, targets, cfg.rl,
        cfg.schedule, RngStream(cfg.seed, STREAM_RL_TRAIN),
        checkpoint_path=out / "policy.ckpt",
    )
    write_metrics_csv(metrics, out / "metrics.csv")
    if metrics:
        logger.info("final mean N %.2f, mean reward %.4f",
                    metrics[-1].mean_n, metrics[-1].mean_reward)


def cmd_sample(cfg: ExperimentConfig, args) -> None:
    from .policy import step_log_pdf
    from .sampler import roll_lanes, trajectory_to_csv

    if args.n_trajectories < 1:
        raise ValueError(f"--n-trajectories must be at least 1, got {args.n_trajectories}")
    out = write_run_stamp(cfg, cfg.out_dir)
    fields, _ = _build_fields(cfg, out)
    # a fixed schedule draws nothing from a policy, so none is loaded
    policy = None if cfg.schedule.fixed else _load_or_init_policy(cfg, out)
    _remove_stale(out, "trajectory_*.csv")
    rng = RngStream(cfg.seed, STREAM_SAMPLE)
    lanes = roll_lanes(fields[0], cfg.schedule,
                       [rng.child(j) for j in range(args.n_trajectories)],
                       policy=policy, deterministic=args.deterministic_inference)
    # every kept rate of every lane scored in one forward, then split by lane;
    # fixed lanes keep none, so their r and log_prob cells stay blank
    log_probs = np.empty(0) if policy is None else step_log_pdf(policy, *lanes.kept()[:2])
    for j, lane_log_probs in enumerate(np.split(log_probs, np.cumsum(lanes.n_kept)[:-1])):
        trajectory_to_csv(lanes, j, lane_log_probs, out / f"trajectory_{j}.csv")


def cmd_sweep_gamma(cfg: ExperimentConfig, args) -> None:
    from .policy import save_policy
    from .rl import train_tpm

    if not args.gammas:
        raise ValueError("--gammas needs at least one value")
    if any(not 0.0 < g < 1.0 for g in args.gammas):
        raise ValueError("--gammas values must lie in (0, 1)")
    if len(set(args.gammas)) < len(args.gammas):
        # a repeated value would retrain its policy and overwrite its checkpoint
        raise ValueError(f"--gammas values must be distinct, got {args.gammas}")
    out = write_run_stamp(cfg, cfg.out_dir)
    fields, targets = _build_fields(cfg, out)
    rows = []
    for gamma in args.gammas:
        rl = dataclasses.replace(cfg.rl, gamma=gamma)
        # identical streams per gamma: only the discount differs
        policy, _ = train_tpm(_init_policy(cfg, cfg.targets[0].d), fields,
                              targets, rl, cfg.schedule,
                              RngStream(cfg.seed, STREAM_RL_TRAIN))
        save_policy(policy, out / f"policy_gamma_{gamma!r}.ckpt")
        summary = evaluate_policy(policy, fields[0], targets[0], cfg.schedule,
                                  gamma, RngStream(cfg.seed, STREAM_EVAL),
                                  cfg.eval_rollouts, args.deterministic_inference)
        rows.append((gamma, summary))
        logger.info("gamma %.2f: mean N %.2f, mean IR %.4f",
                    gamma, summary.mean_n, summary.mean_ir)
    write_csv(out / "sweep_gamma.csv",
              ("gamma", "mean_N", "std_N", "mean_ir", "mean_reward", "n_rollouts"),
              [(gamma, s.mean_n, s.std_n, s.mean_ir, s.mean_reward, s.n_rollouts)
               for gamma, s in rows])


def cmd_compare_baselines(cfg: ExperimentConfig, args) -> None:
    from .sampler import roll_lanes

    out = write_run_stamp(cfg, cfg.out_dir)
    fields, targets = _build_fields(cfg, out)
    policy = _load_or_init_policy(cfg, out)
    target, velocity_field = targets[0], fields[0]
    n = cfg.eval_rollouts
    noise_rng = RngStream(cfg.seed, STREAM_BASELINE_NOISE)
    noise = np.array([noise_rng.child(j).standard_normal(target.d) for j in range(n)])
    decay_rng = RngStream(cfg.seed, STREAM_BASELINE_DECAY)
    adaptive = roll_lanes(velocity_field, cfg.schedule,
                          [decay_rng.child(j) for j in range(n)], noise, policy,
                          args.deterministic_inference)
    mean_n = float(np.mean(adaptive.n_steps))
    matched = max(1, int(round(mean_n)))

    def fixed_ir(n_steps: int) -> float:
        sched = ScheduleConfig(mode="fixed-uniform", fixed_n=n_steps)
        lanes = roll_lanes(velocity_field, sched, noise=noise)
        return float(np.mean(toy_reward(lanes.finals, target)))

    rows = [
        ("adaptive", mean_n, float(np.mean(toy_reward(adaptive.finals, target)))),
        ("fixed-matched", float(matched), fixed_ir(matched)),
        ("fixed-2x", float(2 * matched), fixed_ir(2 * matched)),
    ]
    write_csv(out / "baselines.csv", ("name", "n_steps", "mean_ir"), rows)
    for name, steps, ir in rows:
        logger.info("%s: N=%.2f mean IR %.4f", name, steps, ir)


def cmd_complexity_sweep(cfg: ExperimentConfig, args) -> None:
    from .rl import train_tpm, write_metrics_csv

    levels = args.levels
    if any(lv < 1 for lv in levels):
        raise ValueError("--levels must be positive")
    if len(set(levels)) < max(2, len(levels)):
        # one level has no complexity spread to correlate step counts with, and
        # a repeated level would overwrite its own checkpoint and curve
        raise ValueError(f"--levels needs at least two levels, all distinct, got {levels}")
    out = write_run_stamp(cfg, cfg.out_dir)
    _remove_stale(out, "schedule_curve_level_*.csv", "field_level_*.ckpt")
    targets = [ring_mixture_target(lv) for lv in levels]
    fields = []
    for i, target in enumerate(targets):
        velocity_field, _ = _pretrain_field(cfg, target, 100 + i)
        save_checkpoint(velocity_field.net, out / f"field_level_{levels[i]}.ckpt",
                        field_header(target))
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
                                  cfg.eval_rollouts, args.deterministic_inference)
        rows.append((level, summary))
        pairs_level.extend([level] * summary.n_rollouts)
        pairs_n.extend(summary.per_rollout_n)
        write_csv(out / f"schedule_curve_level_{level}.csv", ("step", "mean_t"),
                  enumerate(summary.curve_times))
        logger.info("complexity %d: mean N %.2f", level, summary.mean_n)
    corr = float(np.corrcoef(np.array(pairs_level, dtype=float),
                             np.array(pairs_n, dtype=float))[0, 1])
    write_csv(out / "complexity.csv", ("level", "mean_N", "std_N", "mean_ir", "n_rollouts"),
              [(level, s.mean_n, s.std_n, s.mean_ir, s.n_rollouts) for level, s in rows])
    write_csv(out / "correlation.csv", ("pearson_r", "n_samples"), [(corr, len(pairs_n))])
    logger.info("complexity/step-count correlation %.3f over %d rollouts",
                corr, len(pairs_n))


def _read_columns(path: Path, x: str, y: str) -> tuple[list[float], list[float]]:
    """Columns x and y of a CSV table as floats; ValueError naming path if it is
    not UTF-8, has no data rows or no such column, or a bad row or a cell that
    is not a finite number."""
    try:
        table = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines() if line]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if len(table) < 2:
        raise ValueError(f"{path}: no data rows to plot")
    header, rows = table[0], table[1:]
    for name in (x, y):
        if name not in header:
            raise ValueError(f"{path}: no column {name!r} in header {','.join(header)}")
    xs, ys = [], []
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} cells, the header {len(header)}")
        for values, name in ((xs, x), (ys, y)):
            cell = row[header.index(name)]
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: data row {i}, column {name!r}: "
                                 f"{cell!r} is not a number") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: data row {i}, column {name!r}: "
                                 f"{cell!r} is not finite")
            values.append(value)
    return xs, ys


# one SVG per (CSV matching glob, y column): glob, x column, y columns, then the
# series label, title, x label, y label and SVG name, where {y} stands for the
# y column and {stem} for the CSV's file stem
PLOTS = (
    ("metrics.csv", "outer_step", ("mean_reward", "mean_N", "mean_kl"),
     "{y}", "training {y}", "outer step", "{y}", "metrics_{y}.svg"),
    ("flow_loss_*.csv", "step", ("loss",),
     "fm_loss", "{stem}", "step", "loss", "{stem}.svg"),
    ("sweep_gamma.csv", "gamma", ("mean_N",),
     "mean_N", "discount vs step count", "gamma", "mean N", "sweep_gamma.svg"),
    ("complexity.csv", "level", ("mean_N",),
     "mean_N", "complexity vs step count", "level", "mean N", "complexity.svg"),
)


def cmd_export_plots(cfg: Optional[ExperimentConfig], args) -> None:
    from .svg import polyline_plot

    out = Path(args.out or cfg.out_dir)
    if not out.is_dir():
        raise FileNotFoundError(f"run directory {out} does not exist")
    made = 0
    for pattern, x, ys, *texts in PLOTS:
        # every SVG the name can stand for, so a CSV that is gone leaves no plot
        _remove_stale(out, texts[-1].format(y="*", stem=Path(pattern).stem))
        for path in sorted(out.glob(pattern)):
            for y in ys:
                label, title, x_label, y_label, svg = (
                    text.format(y=y, stem=path.stem) for text in texts)
                polyline_plot([(label, *_read_columns(path, x, y))], title,
                              x_label, y_label, out / svg)
                made += 1
    # every schedule curve and sampled trajectory overlaid in one plot
    _remove_stale(out, "schedules.svg")
    schedule_series = (
        [(p.stem.replace("schedule_curve_", ""), *_read_columns(p, "step", "mean_t"))
         for p in sorted(out.glob("schedule_curve_*.csv"))]
        + [(p.stem, *_read_columns(p, "step", "t"))
           for p in sorted(out.glob("trajectory_*.csv"))])
    if schedule_series:
        polyline_plot(schedule_series, "diffusion time vs step", "step", "t",
                      out / "schedules.svg")
        made += 1
    if made == 0:
        raise FileNotFoundError(f"no plottable CSV files found in {out}")
    logger.info("wrote %d SVG plots to %s", made, out)


_DETERMINISTIC = ("--deterministic-inference", dict(
    action="store_true", help="use the Beta mode instead of sampling at evaluation"))


class Command(NamedTuple):
    help: str
    run: Callable[[Optional[ExperimentConfig], argparse.Namespace], None]
    flags: tuple = ()  # (flag, add_argument keywords) after the four every command takes
    one_policy: bool = False  # one policy serves every target, so they share one dimension


COMMANDS = {
    "train-flow": Command("pretrain velocity fields on the configured targets",
                          cmd_train_flow),
    "train-tpm": Command("RL-train the time policy against frozen fields", cmd_train_tpm,
                         one_policy=True),
    "sample": Command("roll trajectories with a policy and export them as CSV", cmd_sample,
                      (_DETERMINISTIC, ("--n-trajectories", dict(type=int, default=4))),
                      one_policy=True),
    "sweep-gamma": Command(
        "train one policy per discount factor and compare step counts", cmd_sweep_gamma,
        (_DETERMINISTIC, ("--gammas", dict(type=_float_list, default=[0.85, 0.90, 0.95]))),
        one_policy=True),
    "compare-baselines": Command("evaluate the trained policy against fixed schedules",
                                 cmd_compare_baselines, (_DETERMINISTIC,), one_policy=True),
    "complexity-sweep": Command(
        "train one policy across target complexities", cmd_complexity_sweep,
        (_DETERMINISTIC, ("--levels", dict(type=_int_list, default=[1, 4, 8])))),
    "export-plots": Command("render SVG plots from the CSVs in a run directory",
                            cmd_export_plots),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsched",
                     description="adaptive diffusion-time schedule experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=_seed_type, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--preset", choices=tuple(PRESETS), default="desk")
        for flag, keywords in command.flags:
            p.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # at exit, move the heap to the permanent generation so that finalization's
    # full collections skip what the OS frees anyway (every output is closed by
    # then, and logging.shutdown runs after); unregistering keeps one registration
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        # export-plots reads only out_dir from the config, so --out spares it the config
        cfg = None if args.command == "export-plots" and args.out else _resolve_config(args)
        COMMANDS[args.command].run(cfg, args)
        return 0
    except Exception as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
