"""Command-line workflows end to end: exit codes, emitted files, byte-level
rerun determinism, and the fixed-schedule comparison's quality clauses."""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import flowsched
import flowsched.flow as flow
import flowsched.rl as rl
from flowsched.cli import (STREAM_SAMPLE, _build_fields, _init_policy, build_parser,
                           evaluate_policy, main)
from flowsched.config import (DESK_EVAL_ROLLOUTS, ExperimentConfig,
                              preset_config, version_string, write_run_stamp)
from flowsched.flow import (VelocityField, field_header, make_velocity_net,
                            ring_mixture_target, single_gaussian_target,
                            standard_normal_target)
from flowsched.nn import load_checkpoint, save_checkpoint
from flowsched.policy import (init_policy, load_policy, save_policy, step_features,
                              step_log_pdf, tpm_params_batch)
from flowsched.rl import RLConfig
from flowsched.rng import RngStream
from flowsched.sampler import ScheduleConfig, roll_lanes, trajectory_to_csv


def reduced_config(out_dir, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        out_dir=str(out_dir),
        flow_steps=120, flow_batch=32, flow_hidden=[8], policy_hidden=[8],
        rl=RLConfig(gamma=0.95, kl_weight=0.2, clip=0.2, group_size=4,
                    batch_size=8, inner_epochs=1, lr=3e-3, outer_steps=4),
        eval_rollouts=40,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def save_config(cfg: ExperimentConfig, tmp_path) -> str:
    path = tmp_path / "config.json"
    cfg.save(path)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- exit codes


def test_usage_errors_exit_one():
    for argv in ([], ["not-a-command"], ["train-flow", "--bogus"],
                 ["sample", "--seed", "-3"], ["sample", "--seed", "x"],
                 # only the commands that roll a policy take the flag
                 ["train-flow", "--deterministic-inference"],
                 ["train-tpm", "--deterministic-inference"],
                 ["export-plots", "--deterministic-inference"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_runtime_errors_exit_two(tmp_path):
    # learned fields without checkpoints is a runtime failure, not usage
    cfg = reduced_config(tmp_path / "run", field_source="learned")
    rc = main(["train-tpm", "--config", save_config(cfg, tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("argv, name", [
    (["sample", "--n-trajectories", "0"], "--n-trajectories"),
    (["sample", "--n-trajectories", "-3"], "--n-trajectories"),
    (["sweep-gamma", "--gammas", ""], "--gammas"),
    (["sweep-gamma", "--gammas", "0.9,0.9"], "--gammas"),
    (["complexity-sweep", "--levels", ""], "--levels"),
    (["complexity-sweep", "--levels", "4"], "--levels"),
    (["complexity-sweep", "--levels", "4,4"], "--levels"),
    (["complexity-sweep", "--levels", "1,1,2"], "--levels"),
], ids=["no trajectories", "negative trajectories", "no gammas", "repeated gamma", "no levels",
        "one level", "one distinct level", "repeated level"])
def test_degenerate_counts_and_lists_exit_two_before_the_run_stamp(argv, name, tmp_path,
                                                                   caplog):
    out = tmp_path / "run"
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        rc = main(argv + ["--config", save_config(reduced_config(out), tmp_path)])
    assert rc == 2
    assert name in caplog.text
    assert not out.exists()


MIXED_DIMENSIONS = [standard_normal_target(2), standard_normal_target(3)]


@pytest.mark.parametrize("command", ["train-tpm", "sample", "sweep-gamma", "compare-baselines"])
def test_mixed_target_dimensions_exit_two_before_the_run_stamp(command, tmp_path, caplog):
    """One policy serves every target, so its commands refuse targets of two
    dimensions before writing anything, naming the config and the dimensions."""
    out = tmp_path / "run"
    path = save_config(reduced_config(out, targets=MIXED_DIMENSIONS), tmp_path)
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        assert main([command, "--config", path]) == 2
    assert path in caplog.text and "dimensions [2, 3]" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, kind", [
    ("compare-baselines", "policy"), ("sample", "policy"),
    ("compare-baselines", "field"), ("train-tpm", "field"), ("sample", "field")])
def test_checkpoint_of_another_dimension_exits_two_naming_it(command, kind, tmp_path, caplog):
    """A d = 2 policy or field checkpoint configured for a d = 3 target is
    refused, naming the checkpoint and both dimensions."""
    path = tmp_path / f"{kind}.ckpt"
    cfg = reduced_config(tmp_path / "run", targets=[standard_normal_target(3)], eval_rollouts=4)
    if kind == "policy":
        save_policy(init_policy(2, 0.75, RngStream(5, 0), hidden=(8,)), path)
        cfg.policy_checkpoint = str(path)
    else:
        save_checkpoint(make_velocity_net(2, (8,), RngStream(5, 0)), path)
        cfg.field_source, cfg.field_checkpoints = "learned", [str(path)]
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        assert main([command, "--config", save_config(cfg, tmp_path)]) == 2
    assert f"checkpoint {path} is for dimension 2" in caplog.text
    assert "target has dimension 3" in caplog.text


@pytest.mark.parametrize("command", ["compare-baselines", "train-tpm"])
def test_policy_checkpoint_listed_as_a_field_exits_two_naming_it(command, tmp_path, caplog):
    """A checkpoint whose net does not map d + 1 inputs to d outputs, such as
    a saved policy, is refused as a velocity field, naming the checkpoint."""
    path = tmp_path / "policy.ckpt"
    save_policy(init_policy(2, 0.75, RngStream(5, 0), hidden=(8,)), path)
    cfg = reduced_config(tmp_path / "run", field_source="learned",
                         field_checkpoints=[str(path)], eval_rollouts=4)
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        assert main([command, "--config", save_config(cfg, tmp_path)]) == 2
    assert f"checkpoint {path}: learned field must map (d+1) inputs to d outputs" in caplog.text


def test_train_flow_accepts_mixed_target_dimensions(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out, targets=MIXED_DIMENSIONS, flow_steps=5)
    assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
    assert [load_checkpoint(out / f"field_{i}.ckpt")[0].sizes for i in range(2)] == [
        [3, 8, 2], [4, 8, 3]]


def test_parser_lists_all_commands():
    names = {"train-flow", "train-tpm", "sample", "sweep-gamma",
             "compare-baselines", "complexity-sweep", "export-plots"}
    text = build_parser().format_help()
    assert all(name in text for name in names)


COMMON_OPTIONS = {"-h", "--help", "--config", "--seed", "--out", "--preset"}


@pytest.mark.parametrize("command, extra", [
    ("train-flow", set()),
    ("train-tpm", set()),
    ("sample", {"--deterministic-inference", "--n-trajectories"}),
    ("sweep-gamma", {"--deterministic-inference", "--gammas"}),
    ("compare-baselines", {"--deterministic-inference"}),
    ("complexity-sweep", {"--deterministic-inference", "--levels"}),
    ("export-plots", set()),
])
def test_each_command_takes_exactly_its_options(command, extra):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for action in sub.choices[command]._actions for s in action.option_strings}
    assert options == COMMON_OPTIONS | extra


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_study_script_help_exits_zero(script):
    src = str(Path(flowsched.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


# ------------------------------------------------------------------ train-flow


def test_train_flow_writes_fields_and_losses(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out, targets=[standard_normal_target(2),
                                       single_gaussian_target([0.5, -0.5], 1.5)])
    rc = main(["train-flow", "--config", save_config(cfg, tmp_path)])
    assert rc == 0
    for i in range(2):
        assert (out / f"field_{i}.ckpt").stat().st_size > 0
        header, rows = read_csv(out / f"flow_loss_{i}.csv")
        assert header == "step,loss"
        assert len(rows) == 120
        assert all(np.isfinite(float(r[1])) for r in rows)
    assert (out / "resolved_config.json").exists()
    assert (out / "version.txt").read_text().startswith("flowsched-")
    # a rerun with one target removes the second target's outputs, not complexity-sweep's
    (out / "field_level_1.ckpt").write_text("complexity-sweep output\n")
    cfg.targets = cfg.targets[:1]
    assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
    assert sorted(p.name for p in out.glob("f*")) == ["field_0.ckpt", "field_level_1.ckpt",
                                                      "flow_loss_0.csv"]


def test_train_flow_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = reduced_config(out)
        assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
        outs.append(out)
    assert (outs[0] / "field_0.ckpt").read_bytes() == (outs[1] / "field_0.ckpt").read_bytes()
    assert (outs[0] / "flow_loss_0.csv").read_text() == (outs[1] / "flow_loss_0.csv").read_text()


RING4 = ring_mixture_target(4)
RING4_REF_LOG_DENSITY = -2.124602693433635


def split_header(path):
    """(header, theta payload with its layer sizes) of a checkpoint file."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[10:14], "little")
    return raw[14:14 + hlen], raw[14 + hlen:]


def train_ring4_field(tmp_path) -> Path:
    out = tmp_path / "run"
    cfg = reduced_config(out, targets=[RING4], field_source="learned")
    assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
    return out / "field_0.ckpt"


def test_train_flow_writes_the_reference_constant_in_the_header(tmp_path):
    """The velocity checkpoint's header carries the target's fingerprint and
    reward-centering constant; its payload is the one an empty-header
    checkpoint of the same run holds (sha256 pinned from that version)."""
    header, payload = split_header(train_ring4_field(tmp_path))
    assert header == field_header(RING4)
    assert header.startswith(b"target=")
    assert header.endswith(b";ref_log_density=" + RING4_REF_LOG_DENSITY.hex().encode())
    assert hashlib.sha256(payload).hexdigest() == (
        "372817418dc096017cd1a8410422715de3845b200106419332b3076835f97b86")


def _mc_seeds(monkeypatch) -> list:
    """The seed of every stream flow makes from now on."""
    seeds = []

    def recording_stream(seed, stream=0):
        seeds.append(seed)
        return RngStream(seed, stream)

    monkeypatch.setattr(flow, "RngStream", recording_stream)
    return seeds


def test_compare_baselines_on_a_headed_field_runs_no_monte_carlo(tmp_path, monkeypatch):
    """A field whose header matches its target brings the constant, so
    compare-baselines draws nothing from the Monte-Carlo stream, and writes
    the bytes it writes from the same field re-saved with an empty header."""
    path = train_ring4_field(tmp_path)
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(load_checkpoint(path)[0], bare)
    outs = []
    for field, mc_draws in ((path, False), (bare, True)):
        seeds = _mc_seeds(monkeypatch)
        out = tmp_path / f"eval_{field.stem}"
        cfg = reduced_config(out, targets=[RING4], field_source="learned",
                             field_checkpoints=[str(field)])
        assert main(["compare-baselines", "--config", save_config(cfg, tmp_path)]) == 0
        assert (flow._REF_MC_SEED in seeds) == mc_draws
        outs.append((out / "baselines.csv").read_bytes())
    assert outs[0] == outs[1]


def test_headed_target_holds_the_stored_constant(tmp_path, monkeypatch):
    """_build_fields scores a headed field with a copy of its target that
    holds the header's constant, and draws nothing for it; the configured
    target is left as it was."""
    path = train_ring4_field(tmp_path)
    cfg = reduced_config(tmp_path / "run", targets=[ring_mixture_target(4)],
                         field_source="learned")
    seeds = _mc_seeds(monkeypatch)
    (velocity_field,), (target,) = _build_fields(cfg, tmp_path / "run")
    assert target is not cfg.targets[0] and target.key() == RING4.key()
    assert "ref_log_density" not in vars(cfg.targets[0])
    assert target.ref_log_density == RING4_REF_LOG_DENSITY
    assert seeds == []


def test_stored_constant_does_not_outlive_its_run(tmp_path):
    """compare-baselines in one process on a ring-4 field whose header holds
    a wrong constant for its target, then on the same net with an empty
    header: the second run writes what a fresh process writes from that net.
    The field is trained in a fresh process too, so this one computes the
    target's constant only when a run needs it."""
    target = ring_mixture_target(4, radius=2.5)  # a target no other test scores

    def run_fresh(*argv):
        run = _python("import sys; from flowsched.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *argv)
        assert run.returncode == 0, run.stderr

    def config(name, **overrides):
        (tmp_path / name).mkdir()
        return save_config(reduced_config(tmp_path / name, targets=[target],
                                          field_source="learned", **overrides),
                           tmp_path / name)

    run_fresh("train-flow", "--config", config("flow"))
    net, header = load_checkpoint(tmp_path / "flow" / "field_0.ckpt")
    wrong, bare = tmp_path / "wrong.ckpt", tmp_path / "bare.ckpt"
    save_checkpoint(net, wrong, header.split(b";")[0] + b";ref_log_density=" + (0.0).hex().encode())
    save_checkpoint(net, bare)
    for name, field in (("wrong", wrong), ("bare", bare)):
        assert main(["compare-baselines", "--config",
                     config(name, field_checkpoints=[str(field)])]) == 0
    run_fresh("compare-baselines", "--config", config("fresh", field_checkpoints=[str(bare)]))
    baselines = {name: (tmp_path / name / "baselines.csv").read_bytes()
                 for name in ("wrong", "bare", "fresh")}
    assert baselines["bare"] == baselines["fresh"]
    assert baselines["wrong"] != baselines["bare"]  # a stored constant is trusted


def test_field_header_of_another_target_is_refused(tmp_path, caplog):
    """A well-formed header made for another target is refused: the run
    exits 2 with an error naming the checkpoint and both fingerprints, and
    writes no baselines."""
    path = train_ring4_field(tmp_path)
    net, _ = load_checkpoint(path)
    fingerprint = field_header(ring_mixture_target(8)).split(b";")[0]
    save_checkpoint(net, path, fingerprint + b";ref_log_density=" + (0.0).hex().encode())
    cfg = reduced_config(tmp_path / "run", targets=[RING4], field_source="learned")
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        assert main(["compare-baselines", "--config", save_config(cfg, tmp_path)]) == 2
    assert not (tmp_path / "run" / "baselines.csv").exists()
    ring4_fingerprint = field_header(RING4).split(b";")[0].decode().removeprefix("target=")
    error, = [r.getMessage() for r in caplog.records if r.name == "flowsched.cli"]
    for name in (str(path), fingerprint.decode().removeprefix("target="), ring4_fingerprint):
        assert name in error


@pytest.mark.parametrize("header, names", [
    ("target=ab;ref_log_density=-0x1.0p+1 \u00e9".encode("utf-8"), "is not ASCII"),
    (b"ref_log_density=-0x1.0p+1", "has no field 'target'"),
    (b"target=ab", "has no field 'ref_log_density'"),
    (b"target=ab;ref_log_density=0x1.zzp+1", "ref_log_density='0x1.zzp+1'"),
    (b"target=ab;ref_log_density=-2.5", "ref_log_density='-2.5'"),
    (b"target=ab;ref_log_density=inf", "ref_log_density='inf'"),
])
def test_malformed_field_header_exits_two_naming_the_checkpoint(header, names, tmp_path,
                                                                caplog):
    path = tmp_path / "field.ckpt"
    save_checkpoint(make_velocity_net(2, (8,), RngStream(5, 0)), path, header)
    cfg = reduced_config(tmp_path / "run", field_source="learned",
                         field_checkpoints=[str(path)], eval_rollouts=4)
    with caplog.at_level("ERROR", logger="flowsched.cli"):
        assert main(["compare-baselines", "--config", save_config(cfg, tmp_path)]) == 2
    assert f"{path}: velocity header" in caplog.text
    assert names in caplog.text


# ------------------------------------------------------------------- train-tpm


def test_train_tpm_metrics_rows_match_outer_steps(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out)
    rc = main(["train-tpm", "--config", save_config(cfg, tmp_path)])
    assert rc == 0
    assert (out / "policy.ckpt").stat().st_size > 0
    header, rows = read_csv(out / "metrics.csv")
    assert header == "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm"
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    # every cell must be plain machine-parseable text, not a numpy repr
    assert all(np.isfinite(float(cell)) for r in rows for cell in r)


def test_train_tpm_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = reduced_config(out)
        assert main(["train-tpm", "--config", save_config(cfg, tmp_path)]) == 0
        outs.append(out)
    assert (outs[0] / "policy.ckpt").read_bytes() == (outs[1] / "policy.ckpt").read_bytes()
    assert (outs[0] / "metrics.csv").read_text() == (outs[1] / "metrics.csv").read_text()


def test_diverging_train_tpm_leaves_a_policy_that_compare_baselines_loads(tmp_path, caplog):
    """Desk train-tpm at lr = 1e308 diverges at outer step 1; it exits 0 with
    a warning and leaves the last policy whose rollout was finite."""
    cfg = preset_config("desk")
    cfg.out_dir = str(tmp_path / "run")
    cfg.rl = dataclasses.replace(cfg.rl, lr=1e308, inner_epochs=1, outer_steps=3)
    path = save_config(cfg, tmp_path)
    with caplog.at_level("WARNING"), np.errstate(over="ignore", invalid="ignore"):
        assert main(["train-tpm", "--config", path]) == 0
        assert "aborting at outer step 1: diverged" in caplog.text
        assert main(["compare-baselines", "--config", path]) == 0
    assert len(read_csv(tmp_path / "run" / "metrics.csv")[1]) == 1


def test_train_tpm_whose_last_update_overflows_keeps_the_policy_before_it(tmp_path, caplog):
    """Desk train-tpm at lr = 1e308 for one outer step of one epoch: the
    update's outputs overflow (the clamp keeps their shapes finite there,
    not at every state), so the run saves the initial policy, and
    compare-baselines on it exits 0."""
    cfg = preset_config("desk")
    cfg.out_dir = str(tmp_path / "run")
    cfg.rl = dataclasses.replace(cfg.rl, lr=1e308, inner_epochs=1, outer_steps=1)
    cfg.eval_rollouts = 100
    path = save_config(cfg, tmp_path)
    with caplog.at_level("WARNING"), np.errstate(over="ignore", invalid="ignore"):
        assert main(["train-tpm", "--config", path]) == 0
        assert "aborting at outer step 1: diverged: the policy gave non-finite raw outputs" \
            in caplog.text
        assert main(["compare-baselines", "--config", path]) == 0
    save_policy(_init_policy(cfg, 2), tmp_path / "initial.ckpt")
    assert (tmp_path / "run" / "policy.ckpt").read_bytes() == \
        (tmp_path / "initial.ckpt").read_bytes()
    assert len(read_csv(tmp_path / "run" / "metrics.csv")[1]) == 1


def test_train_tpm_killed_mid_rollout_leaves_a_policy_that_rolls_out(tmp_path, monkeypatch):
    """The in-loop checkpoint is the policy that entered the outer step whose
    rollout came out finite, so a run killed during the next rollout (here
    after a lr = 1e308 update) leaves a policy with finite Beta shapes."""
    cfg = preset_config("desk")
    cfg.out_dir = str(tmp_path / "run")
    cfg.rl = dataclasses.replace(cfg.rl, lr=1e308, inner_epochs=1, outer_steps=3)
    calls = []
    roll_groups = rl.roll_groups

    def killed_at_second_rollout(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return roll_groups(*args, **kwargs)

    monkeypatch.setattr(rl, "roll_groups", killed_at_second_rollout)
    with pytest.raises(KeyboardInterrupt), np.errstate(over="ignore", invalid="ignore"):
        main(["train-tpm", "--config", save_config(cfg, tmp_path)])
    policy = load_policy(tmp_path / "run" / "policy.ckpt")
    x = RngStream(3, 0).standard_normal((16, 2))
    _, alpha, beta, _ = tpm_params_batch(policy, step_features(x, -x, 1.0))
    assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))


# ---------------------------------------------------------------------- sample


def test_sample_writes_requested_trajectories(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out)
    rc = main(["sample", "--config", save_config(cfg, tmp_path),
               "--n-trajectories", "3"])
    assert rc == 0
    for j in range(3):
        header, rows = read_csv(out / f"trajectory_{j}.csv")
        assert header == "step,t,x0,x1,r,log_prob"
        assert rows[0][1] == "1.0" and rows[-1][1] == "0.0"
    assert not (out / "trajectory_3.csv").exists()


def test_sample_rerun_with_fewer_trajectories_removes_the_old_ones(tmp_path):
    out = tmp_path / "run"
    config = save_config(reduced_config(out), tmp_path)
    assert main(["sample", "--config", config, "--n-trajectories", "3"]) == 0
    assert main(["sample", "--config", config, "--n-trajectories", "1", "--seed", "5"]) == 0
    assert sorted(p.name for p in out.glob("trajectory_*.csv")) == ["trajectory_0.csv"]
    fresh = tmp_path / "fresh"
    assert main(["sample", "--config", config, "--n-trajectories", "1", "--seed", "5",
                 "--out", str(fresh)]) == 0
    assert (out / "trajectory_0.csv").read_bytes() == (fresh / "trajectory_0.csv").read_bytes()


def test_sample_fixed_schedule_leaves_r_and_log_prob_blank(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out, schedule=ScheduleConfig(mode="fixed-uniform", fixed_n=5))
    rc = main(["sample", "--config", save_config(cfg, tmp_path), "--n-trajectories", "2"])
    assert rc == 0
    for j in range(2):
        _, rows = read_csv(out / f"trajectory_{j}.csv")
        assert [r[1] for r in rows] == ["1.0", "0.8", "0.6", "0.4", "0.2", "0.0"]
        assert all(r[4:] == ["", ""] for r in rows)


@pytest.mark.parametrize("mode", ["fixed-uniform", "fixed-shifted"])
def test_fixed_sample_loads_no_policy_and_writes_the_same_bytes(tmp_path, caplog, mode):
    out = tmp_path / "run"
    cfg = reduced_config(out, schedule=ScheduleConfig(mode=mode, fixed_n=5))
    with caplog.at_level("WARNING", logger="flowsched.cli"):
        rc = main(["sample", "--config", save_config(cfg, tmp_path), "--n-trajectories", "3"])
    assert rc == 0
    assert not caplog.records
    # the files sample wrote when it scored fixed lanes with an untrained policy
    policy = _init_policy(cfg, 2)
    rng = RngStream(cfg.seed, STREAM_SAMPLE)
    lanes = roll_lanes(_build_fields(cfg, out)[0][0], cfg.schedule,
                       [rng.child(j) for j in range(3)], policy=policy)
    log_probs = step_log_pdf(policy, *lanes.kept()[:2])
    assert log_probs.shape == (0,)
    for j in range(3):
        trajectory_to_csv(lanes, j, log_probs, tmp_path / "want.csv")
        assert (out / f"trajectory_{j}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("command", ["sample", "compare-baselines"])
def test_missing_policy_checkpoint_warns(tmp_path, caplog, command):
    out = tmp_path / "run"
    cfg = reduced_config(out, eval_rollouts=4)
    with caplog.at_level("WARNING", logger="flowsched.cli"):
        rc = main([command, "--config", save_config(cfg, tmp_path)])
    assert rc == 0
    assert f"no policy checkpoint at {out / 'policy.ckpt'}" in caplog.text
    assert "untrained policy" in caplog.text


def test_sample_deterministic_flag_changes_schedules(tmp_path):
    texts = []
    for name, flag in (("s", []), ("d", ["--deterministic-inference"])):
        out = tmp_path / name
        cfg = reduced_config(out)
        rc = main(["sample", "--config", save_config(cfg, tmp_path),
                   "--n-trajectories", "1"] + flag)
        assert rc == 0
        texts.append((out / "trajectory_0.csv").read_text())
    assert texts[0] != texts[1]


# ----------------------------------------------------------------- sweep-gamma


def test_sweep_gamma_rows_and_checkpoints(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out)
    rc = main(["sweep-gamma", "--config", save_config(cfg, tmp_path),
               "--gammas", "0.8,0.9"])
    assert rc == 0
    header, rows = read_csv(out / "sweep_gamma.csv")
    assert header == "gamma,mean_N,std_N,mean_ir,mean_reward,n_rollouts"
    assert [r[0] for r in rows] == ["0.8", "0.9"]
    assert all(r[5] == "40" for r in rows)
    assert (out / "policy_gamma_0.8.ckpt").exists()
    assert (out / "policy_gamma_0.9.ckpt").exists()


def test_sweep_gamma_shares_seeds_across_gammas(tmp_path):
    # a discount's leg gives the same row and checkpoint whatever legs run
    # before it: nothing but gamma may differ between sweep legs
    runs = []
    for name, gammas in (("pair", "0.8,0.9"), ("alone", "0.9")):
        out = tmp_path / name
        rc = main(["sweep-gamma", "--config", save_config(reduced_config(out), tmp_path),
                   "--gammas", gammas])
        assert rc == 0
        runs.append((read_csv(out / "sweep_gamma.csv")[1][-1],
                     (out / "policy_gamma_0.9.ckpt").read_bytes()))
    assert runs[0] == runs[1]


def test_sweep_gamma_rejects_bad_gamma(tmp_path):
    cfg = reduced_config(tmp_path / "run")
    rc = main(["sweep-gamma", "--config", save_config(cfg, tmp_path),
               "--gammas", "0.9,1.5"])
    assert rc == 2


# ----------------------------------------------------- compare-baselines study


def test_compare_baselines_beats_matched_fixed_schedule(tmp_path):
    # full desk-scale study on a 4-component ring: pretrain the field,
    # RL-train the policy, then score against fixed uniform schedules with
    # shared noise. The adaptive schedule must hold within 0.02 IR of the
    # step-matched fixed baseline, and doubling the fixed budget must help.
    out = tmp_path / "run"
    cfg = preset_config("desk")
    cfg.targets = [ring_mixture_target(4)]
    cfg.field_source = "learned"
    cfg.out_dir = str(out)
    path = save_config(cfg, tmp_path)
    assert main(["train-flow", "--config", path]) == 0
    assert main(["train-tpm", "--config", path]) == 0
    assert main(["compare-baselines", "--config", path,
                 "--deterministic-inference"]) == 0

    header, rows = read_csv(out / "baselines.csv")
    assert header == "name,n_steps,mean_ir"
    assert [r[0] for r in rows] == ["adaptive", "fixed-matched", "fixed-2x"]
    adaptive_n, adaptive_ir = float(rows[0][1]), float(rows[0][2])
    matched_n, matched_ir = float(rows[1][1]), float(rows[1][2])
    double_n, double_ir = float(rows[2][1]), float(rows[2][2])
    assert matched_n == round(adaptive_n)
    assert double_n == 2 * matched_n
    assert adaptive_ir >= matched_ir - 0.02
    assert double_ir >= matched_ir


# ------------------------------------------------------------ complexity-sweep


def test_complexity_sweep_reduced_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out, flow_steps=300, eval_rollouts=30)
    out.mkdir()
    for stale in ("schedule_curve_level_8.csv", "field_level_8.ckpt"):
        (out / stale).write_text("from an earlier run\n")
    rc = main(["complexity-sweep", "--config", save_config(cfg, tmp_path),
               "--levels", "1,2"])
    assert rc == 0
    assert not (out / "schedule_curve_level_8.csv").exists()
    assert not (out / "field_level_8.ckpt").exists()
    header, rows = read_csv(out / "complexity.csv")
    assert header == "level,mean_N,std_N,mean_ir,n_rollouts"
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(r[4] == "30" for r in rows)
    header, rows = read_csv(out / "correlation.csv")
    assert header == "pearson_r,n_samples"
    assert rows[0][1] == "60"
    assert -1.0 <= float(rows[0][0]) <= 1.0
    for level in (1, 2):
        assert (out / f"field_level_{level}.ckpt").exists()
        curve_header, curve_rows = read_csv(out / f"schedule_curve_level_{level}.csv")
        assert curve_header == "step,mean_t"
        assert curve_rows[0][1] == "1.0"


def test_complexity_sweep_rejects_bad_level(tmp_path):
    cfg = reduced_config(tmp_path / "run")
    rc = main(["complexity-sweep", "--config", save_config(cfg, tmp_path),
               "--levels", "0,2"])
    assert rc == 2


# ----------------------------------------------------------------- export-plots


def seed_plot_csvs(out):
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(
        "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"
        "0,0.1,0.05,14.0,0.01,1.0\n1,0.2,0.1,12.0,0.02,0.8\n")
    (out / "flow_loss_0.csv").write_text("step,loss\n0,2.0\n1,1.5\n")
    (out / "trajectory_0.csv").write_text(
        "step,t,x0,x1,r,log_prob\n0,1.0,0.3,0.4,,\n1,0.5,0.2,0.1,0.5,0.2\n"
        "2,0.0,0.1,0.0,,\n")
    (out / "schedule_curve_level_1.csv").write_text("step,mean_t\n0,1.0\n1,0.6\n2,0.0\n")
    (out / "sweep_gamma.csv").write_text(
        "gamma,mean_N,std_N,mean_ir,mean_reward,n_rollouts\n"
        "0.85,9.0,1.0,0.2,0.15,40\n0.95,14.0,1.2,0.25,0.2,40\n")
    (out / "complexity.csv").write_text(
        "level,mean_N,std_N,mean_ir,n_rollouts\n1,10.0,1.0,0.1,30\n4,14.0,1.0,0.05,30\n")


def test_run_directory_csvs_end_lines_in_lf_and_round_trip_every_number(tmp_path):
    out = tmp_path / "run"
    path = save_config(reduced_config(out, eval_rollouts=8), tmp_path)
    for argv in (["train-tpm"], ["sample", "--n-trajectories", "2"], ["compare-baselines"]):
        assert main(argv + ["--config", path]) == 0
    tables = sorted(p.name for p in out.glob("*.csv"))
    assert tables == ["baselines.csv", "metrics.csv", "trajectory_0.csv", "trajectory_1.csv"]
    for name in tables:
        data = (out / name).read_bytes()
        assert b"\r" not in data, name
        for line in data.decode().splitlines()[1:]:
            for cell in line.split(","):
                if cell in ("", "adaptive", "fixed-matched", "fixed-2x"):
                    continue  # no value, or a baseline's name
                number = int(cell) if cell.lstrip("-").isdigit() else float(cell)
                assert repr(number) == cell, (name, cell)


def test_export_plots_renders_every_csv_family(tmp_path):
    out = tmp_path / "run"
    seed_plot_csvs(out)
    assert main(["export-plots", "--out", str(out)]) == 0
    expected = ["metrics_mean_reward.svg", "metrics_mean_N.svg",
                "metrics_mean_kl.svg", "flow_loss_0.svg", "schedules.svg",
                "sweep_gamma.svg", "complexity.svg"]
    for name in expected:
        text = (out / name).read_text()
        assert text.startswith("<svg") and "<polyline" in text


def test_export_plots_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    seed_plot_csvs(out)
    assert main(["export-plots", "--out", str(out)]) == 0
    first = (out / "schedules.svg").read_bytes()
    assert main(["export-plots", "--out", str(out)]) == 0
    assert (out / "schedules.svg").read_bytes() == first


def test_export_plots_removes_the_plots_of_csvs_a_rerun_removed(tmp_path):
    out = tmp_path / "run"
    cfg = reduced_config(out, targets=[standard_normal_target(2),
                                       single_gaussian_target([0.5, -0.5], 1.5)])
    assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
    assert main(["export-plots", "--out", str(out)]) == 0
    assert (out / "flow_loss_1.svg").exists()
    # the overlay of trajectories whose CSVs are gone, too
    (out / "schedules.svg").write_text("<svg/>\n")
    cfg.targets = cfg.targets[:1]
    assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
    assert main(["export-plots", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == ["flow_loss_0.svg"]


def test_export_plots_with_out_reads_no_config(tmp_path):
    """--out names the run directory, so an unparseable --config goes unread."""
    out = tmp_path / "run"
    out.mkdir()
    (out / "flow_loss_0.csv").write_text("step,loss\n0,1.5\n1,1.25\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["export-plots", "--out", str(out), "--config", str(bad)]) == 0
    assert (out / "flow_loss_0.svg").exists()


def test_export_plots_missing_dir_exits_two(tmp_path):
    assert main(["export-plots", "--out", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("text, names", [
    ("outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n", ["no data rows"]),
    ("outer_step,mean_reward,mean_ir,mean_kl,grad_norm\n0,0.1,0.05,0.01,1.0\n",
     ["'mean_N'"]),
    ("outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"
     "0,0.1,0.05,14.0,0.01,1.0\n1,0.2\n", ["data row 2"]),
    ("outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"
     "0,0.1,0.05,,0.01,1.0\n", ["data row 1", "'mean_N'"]),
    ("\xffouter_step,mean_N\n0,14.0\n", ["not UTF-8"]),
    ("outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"
     "0,0.1,0.05,14.0,0.01,1.0\n1,nan,0.1,14.0,0.0,1.0\n", ["data row 2", "'mean_reward'"]),
    ("outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"
     "0,0.1,0.05,inf,0.01,1.0\n", ["data row 1", "'mean_N'"]),
], ids=["no data rows", "missing column", "short row", "blank cell", "not UTF-8", "nan", "inf"])
def test_export_plots_empty_csv_exits_two_naming_file(text, names, tmp_path, caplog):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.csv").write_text(text, encoding="latin-1")
    with caplog.at_level("ERROR"):
        assert main(["export-plots", "--out", str(out)]) == 2
    assert all(name in caplog.text for name in [str(out / "metrics.csv")] + names)


def test_export_plots_without_csvs_exits_two(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    assert main(["export-plots", "--out", str(out)]) == 2


# ---------------------------------------------------------------------- config


def test_config_json_roundtrip_is_bit_exact(tmp_path):
    cfg = preset_config("desk")
    cfg.targets = [ring_mixture_target(5, radius=1.875, sigma=0.3)]
    cfg.rl = dataclasses.replace(cfg.rl, lr=0.0031415926535897933)
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again.to_json() == text
    assert again.rl.lr == cfg.rl.lr
    np.testing.assert_array_equal(again.targets[0].means, cfg.targets[0].means)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ExperimentConfig.load(path).to_json() == text
    assert json.loads(text)["version"] == 1


def test_config_rejects_bad_documents():
    good = preset_config("desk").to_dict()
    assert ExperimentConfig.from_dict({**good, "seed": 2**64 - 1}).seed == 2**64 - 1
    for mutate in (
        lambda d: d.update(version=99),
        lambda d: d.update(field_source="psychic"),
        lambda d: d.update(init_r_target=1.5),
        lambda d: d.update(eval_rollouts=0),
        lambda d: d.update(surprise=True),
        lambda d: d.update(targets=[]),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)


def test_config_omitted_targets_take_the_default():
    cfg = ExperimentConfig.from_dict({"version": 1})
    assert cfg.to_json() == ExperimentConfig().to_json()
    with pytest.raises(ValueError, match="at least one target"):
        ExperimentConfig.from_dict({"version": 1, "targets": []})


def test_config_names_unknown_section_keys(tmp_path):
    good = preset_config("desk").to_dict()
    for section, key in (("schedule", "n_maximum"), ("rl", "learning_rate")):
        doc = json.loads(json.dumps(good))
        doc[section][key] = 1
        with pytest.raises(ValueError, match=f"in '{section}'.*{key}"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / f"{section}.json"
        path.write_text(json.dumps(doc))
        assert main(["train-tpm", "--config", str(path)]) == 2


def _bad_config_text(case: str) -> str:
    doc = preset_config("desk").to_dict()
    if case == "not json":
        return "{not json"
    if case == "not UTF-8":  # byte 0xff once written as Latin-1
        return "\xff" + json.dumps(doc)
    if case == "target without sigmas":
        del doc["targets"][0]["sigmas"]
    elif case == "n_max not a number":
        doc["schedule"]["n_max"] = "x"
    elif case == "top level is a list":
        doc = [1, 2]
    elif case in BAD_VALUES:
        key, value = BAD_VALUES[case]
        *sections, leaf = key.split(".")
        section = doc
        for name in sections:
            section = section[int(name)] if isinstance(section, list) else section[name]
        section[leaf] = value
    return json.dumps(doc)


# values the schema rejects at load time: case -> (key, bad value), a key in a
# section written section.key, in a list item list.index.key
BAD_VALUES = {
    "seed below zero": ("seed", -5),
    "seed of 2**64": ("seed", 2**64),
    "no flow steps": ("flow_steps", 0),
    "no flow batch": ("flow_batch", 0),
    "negative flow_lr": ("flow_lr", -1.0),
    "infinite flow_lr": ("flow_lr", float("inf")),
    "NaN flow_lr": ("flow_lr", float("nan")),
    "zero flow_hidden width": ("flow_hidden", [64, 0]),
    "zero policy_hidden width": ("policy_hidden", [0]),
    "version of 1.0": ("version", 1.0),
    "fractional seed": ("seed", 1.5),
    "seed of true": ("seed", True),
    "fractional flow_steps": ("flow_steps", 1.5),
    "fractional flow_batch": ("flow_batch", 2.5),
    "fractional eval_rollouts": ("eval_rollouts", 2.5),
    "fractional flow_hidden width": ("flow_hidden", [64, 64.5]),
    "fractional policy_hidden width": ("policy_hidden", [2.5]),
    "fractional n_max": ("schedule.n_max", 3.5),
    "fractional fixed_n": ("schedule.fixed_n", 2.5),
    "fractional grid_size": ("schedule.grid_size", 1000.5),
    "float group_size": ("rl.group_size", 4.0),
    "float batch_size": ("rl.batch_size", 64.0),
    "fractional inner_epochs": ("rl.inner_epochs", 1.5),
    "fractional outer_steps": ("rl.outer_steps", 1.5),
    "two field_checkpoints for one target": ("field_checkpoints", ["a.ckpt", "b.ckpt"]),
    "no field_checkpoints for one target": ("field_checkpoints", []),
    **{f"{key} of true": (key, True) for key in (
        "flow_lr", "schedule.shift", "rl.gamma", "rl.kl_weight", "rl.clip", "rl.lr",
        "rl.max_grad_norm")},
    **{f"{key} of {value}": (key, value)
       for key in ("rl.lr", "rl.kl_weight", "rl.clip", "rl.max_grad_norm", "schedule.shift")
       for value in (float("nan"), float("inf"))},
    "out_dir of 5": ("out_dir", 5),
    "policy_checkpoint of 5": ("policy_checkpoint", 5),
    "field_checkpoints of [1]": ("field_checkpoints", [1]),
    "field_checkpoints of a string": ("field_checkpoints", "a"),
    "target with an unknown key": ("targets.0.colour", 1),
    "sigma of true": ("targets.0.sigmas", [True]),
    "weight of true": ("targets.0.weights", [True]),
    "means of strings": ("targets.0.means", [["1", "2"]]),
    "means of no rows": ("targets.0.means", []),
    "means of an empty row": ("targets.0.means", [[]]),
    "ragged means": ("targets.0.means", [[1.0, 2.0], [3.0]]),
    "target not an object": ("targets", [5]),
    "schedule not an object": ("schedule", 5),
}


@pytest.mark.parametrize("case", ["not json", "target without sigmas",
                                  "n_max not a number", "top level is a list",
                                  "not UTF-8", *BAD_VALUES])
def test_bad_config_file_exits_two_naming_path(case, tmp_path, caplog):
    path, out = tmp_path / "bad.json", tmp_path / "run"
    path.write_text(_bad_config_text(case), encoding="latin-1")
    with caplog.at_level("ERROR"):
        assert main(["train-tpm", "--config", str(path), "--out", str(out)]) == 2
    assert str(path) in caplog.text
    if case in BAD_VALUES:
        assert BAD_VALUES[case][0].split(".")[-1] in caplog.text
    assert not (out / "resolved_config.json").exists()


def test_every_numeric_config_key_declares_a_rule():
    """A new int or float key cannot arrive without a range beside it."""
    for cls in (ExperimentConfig, ScheduleConfig, RLConfig):
        for f in dataclasses.fields(cls):
            if f.type in ("int", "Optional[int]", "list[int]", "float"):
                assert f.metadata.get("rule") is not None, f"{cls.__name__}.{f.name}"


def _tiny_train_flow(tmp_path) -> list[str]:
    cfg = reduced_config(tmp_path / "run", flow_steps=2, flow_batch=4, flow_hidden=[4])
    return ["train-flow", "--config", save_config(cfg, tmp_path)]


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports this flowsched, with argv."""
    src = str(Path(flowsched.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})


def _modules_loaded_by(code: str) -> list[str]:
    """The flowsched, subprocess and hashlib modules that code, run in a fresh
    interpreter, leaves in sys.modules. The run stamp starts git, so a run's
    list shows whether that loaded subprocess."""
    code += ("\nprint(*sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('flowsched', 'subprocess', 'hashlib')))")
    result = _python("import sys\n" + code)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_importing_config_loads_only_what_the_schema_needs(tmp_path):
    schema = ["flowsched", "flowsched.config", "flowsched.flow", "flowsched.nn",
              "flowsched.rng"]
    assert _modules_loaded_by("import flowsched.config") == schema
    # the command line adds only itself: each command imports what else it runs
    assert _modules_loaded_by("import flowsched.cli") == sorted([*schema, "flowsched.cli"])
    argv = _tiny_train_flow(tmp_path)
    loaded = _modules_loaded_by(f"from flowsched.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "run" / "field_0.ckpt").exists()
    unused = {f"flowsched.{m}" for m in ("rl", "policy", "sampler", "special_math", "svg")}
    assert not unused & set(loaded)
    assert "subprocess" not in loaded
    # compare-baselines adds what it rolls lanes with, but not the trainer
    argv = ["compare-baselines", "--config",
            save_config(reduced_config(tmp_path / "eval", eval_rollouts=8), tmp_path)]
    loaded = _modules_loaded_by(f"from flowsched.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "eval" / "baselines.csv").exists()
    assert "flowsched.sampler" in loaded
    assert not {"flowsched.rl", "flowsched.svg", "subprocess"} & set(loaded)
    # sample scores its trajectories with policy.step_log_pdf, not the trainer
    argv = ["sample", "--config", save_config(reduced_config(tmp_path / "eval"), tmp_path),
            "--n-trajectories", "2"]
    loaded = _modules_loaded_by(f"from flowsched.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "eval" / "trajectory_1.csv").exists()
    assert "flowsched.policy" in loaded and "flowsched.rl" not in loaded


def test_cli_pins_one_blas_thread_unless_the_environment_names_a_count():
    """Importing the command line sets each BLAS thread count to 1 before
    numpy loads (the package itself loads no numpy), and leaves a count the
    environment already names."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import sys, flowsched\nassert 'numpy' not in sys.modules\n"
            f"import os, flowsched.cli\nprint(*(os.environ[n] for n in {names!r}))")
    src = str(Path(flowsched.__file__).resolve().parents[1])
    bare = {k: v for k, v in os.environ.items() if k not in names}
    for extra, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env={**bare, **extra, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == want.split()


def test_version_string_is_git_describe_of_the_source_tree():
    """The stamp's text is what a subprocess run of git describe in the
    package's root gives, or the bare version where that fails."""
    root = Path(flowsched.__file__).resolve().parents[2]
    try:
        run = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        described = run.stdout.strip() if run.returncode == 0 else ""
    except OSError:
        described = ""
    expected = f"flowsched-{flowsched.__version__}" + (f"+{described}" if described else "")
    assert version_string() == expected


def test_version_string_without_git_on_path_is_the_bare_version(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", "")
    monkeypatch.chdir(tmp_path)  # an empty PATH entry searches the working directory
    assert version_string() == "flowsched-0.1.0"


@pytest.mark.parametrize("script, stamp", [
    ("echo ' v1-2-gabc '", "flowsched-0.1.0+v1-2-gabc"),
    ("echo v1; exit 3", "flowsched-0.1.0"),  # a non-zero exit
    (f"echo v1; exec {shutil.which('sleep')} 30", "flowsched-0.1.0"),  # killed at the deadline
], ids=["exit-0", "exit-3", "deadline"])
def test_version_string_reads_what_git_prints_before_the_deadline(script, stamp, tmp_path,
                                                                   monkeypatch):
    git = tmp_path / "git"
    git.write_text(f"#!/bin/sh\n{script}\n")
    git.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr("flowsched.config.GIT_TIMEOUT_S", 0.5)
    start = time.monotonic()
    assert version_string() == stamp
    assert time.monotonic() - start < 5.0


# ------------------------------------------------------------ interpreter exit


def test_fresh_interpreter_run_writes_what_an_in_process_run_writes(tmp_path):
    """With the collector frozen at exit, a desk train-tpm in its own
    interpreter still writes the in-process run's bytes, a whole run stamp
    and its last log line."""
    cfg = preset_config("desk")
    cfg.rl = dataclasses.replace(cfg.rl, outer_steps=2)
    config, fresh, here = save_config(cfg, tmp_path), tmp_path / "fresh", tmp_path / "here"
    result = _python("import sys; from flowsched.cli import main; sys.exit(main(sys.argv[1:]))",
                     "train-tpm", "--config", config, "--out", str(fresh))
    assert result.returncode == 0, result.stderr
    assert main(["train-tpm", "--config", config, "--out", str(here)]) == 0
    for name in ("metrics.csv", "policy.ckpt", "version.txt"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name
    stamp = (fresh / "resolved_config.json").read_text()
    assert json.loads(stamp) == {**cfg.to_dict(), "out_dir": str(fresh)}
    assert (fresh / "version.txt").read_text().startswith("flowsched-")
    assert result.stderr.splitlines()[-1].startswith("INFO final mean N ")


def test_main_freezes_the_collector_at_exit(tmp_path):
    """main registers gc.freeze at exit after a handler its caller registered
    first, so that handler, run later, sees the heap frozen."""
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from flowsched.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    result = _python(code, *_tiny_train_flow(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["frozen", "True"]


def test_main_called_twice_freezes_once(tmp_path):
    argv = _tiny_train_flow(tmp_path)
    code = ("import gc\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: (print('freeze'), freeze())\n"
            "from flowsched.cli import main\n"
            f"assert main({argv!r}) == 0 and main({argv!r}) == 0")
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["freeze"]


def test_preset_values():
    desk = preset_config("desk")
    assert (desk.rl.batch_size, desk.rl.outer_steps) == (64, 60)
    assert desk.rl.lr == 3e-3 and desk.rl.kl_weight == 0.2
    assert desk.eval_rollouts == DESK_EVAL_ROLLOUTS >= 500
    paper = preset_config("paper")
    assert (paper.rl.batch_size, paper.rl.outer_steps) == (256, 200)
    assert paper.rl.lr == 1e-5
    assert paper.eval_rollouts == 5000
    with pytest.raises(ValueError):
        preset_config("napkin")


def test_run_stamp_files(tmp_path):
    cfg = reduced_config(tmp_path / "run")
    out = write_run_stamp(cfg, cfg.out_dir)
    reloaded = ExperimentConfig.load(out / "resolved_config.json")
    assert reloaded.to_json() == cfg.to_json()
    assert (out / "version.txt").read_text().startswith("flowsched-0.1.0")


# ------------------------------------------------------------- evaluate_policy


def test_evaluate_policy_summary_is_consistent():
    policy = init_policy(2, 0.7, RngStream(91, 0), hidden=(8,))
    field = VelocityField("oracle", target=standard_normal_target(2))
    summary = evaluate_policy(policy, field, standard_normal_target(2),
                              ScheduleConfig(), 0.95, RngStream(91, 1), 20,
                              deterministic=False)
    assert summary.n_rollouts == 20
    assert len(summary.per_rollout_n) == 20
    assert summary.mean_n == pytest.approx(np.mean(summary.per_rollout_n))
    assert summary.curve_times[0] == 1.0
    assert all(0.0 <= t <= 1.0 for t in summary.curve_times)
