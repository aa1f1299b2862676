"""Command-line workflows end to end: exit codes, emitted files, byte-level
rerun determinism, and the fixed-schedule comparison's quality clauses."""

import dataclasses
import json

import numpy as np
import pytest

from flowsched.cli import build_parser, evaluate_policy, main
from flowsched.config import (DESK_EVAL_ROLLOUTS, ExperimentConfig,
                              preset_config, write_run_stamp)
from flowsched.flow import (VelocityField, ring_mixture_target,
                            single_gaussian_target, standard_normal_target)
from flowsched.policy import init_policy
from flowsched.rl import RLConfig
from flowsched.rng import RngStream
from flowsched.sampler import ScheduleConfig


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
                 ["sample", "--seed", "-3"], ["sample", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_runtime_errors_exit_two(tmp_path):
    # learned fields without checkpoints is a runtime failure, not usage
    cfg = reduced_config(tmp_path / "run", field_source="learned")
    rc = main(["train-tpm", "--config", save_config(cfg, tmp_path)])
    assert rc == 2


def test_parser_lists_all_commands():
    names = {"train-flow", "train-tpm", "sample", "sweep-gamma",
             "compare-baselines", "complexity-sweep", "export-plots"}
    text = build_parser().format_help()
    assert all(name in text for name in names)


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


def test_train_flow_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = reduced_config(out)
        assert main(["train-flow", "--config", save_config(cfg, tmp_path)]) == 0
        outs.append(out)
    assert (outs[0] / "field_0.ckpt").read_bytes() == (outs[1] / "field_0.ckpt").read_bytes()
    assert (outs[0] / "flow_loss_0.csv").read_text() == (outs[1] / "flow_loss_0.csv").read_text()


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
    # duplicate discount values must reproduce identical rows: nothing but
    # gamma may differ between sweep legs
    out = tmp_path / "run"
    cfg = reduced_config(out)
    rc = main(["sweep-gamma", "--config", save_config(cfg, tmp_path),
               "--gammas", "0.9,0.9"])
    assert rc == 0
    _, rows = read_csv(out / "sweep_gamma.csv")
    assert rows[0] == rows[1]


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
    rc = main(["complexity-sweep", "--config", save_config(cfg, tmp_path),
               "--levels", "1,2"])
    assert rc == 0
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


def test_export_plots_missing_dir_exits_two(tmp_path):
    assert main(["export-plots", "--out", str(tmp_path / "nope")]) == 2


def test_export_plots_empty_csv_exits_two_naming_file(tmp_path, caplog):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.csv").write_text(
        "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n")
    with caplog.at_level("ERROR"):
        assert main(["export-plots", "--out", str(out)]) == 2
    assert "metrics.csv" in caplog.text


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
    if case == "target without sigmas":
        del doc["targets"][0]["sigmas"]
    elif case == "n_max not a number":
        doc["schedule"]["n_max"] = "x"
    elif case == "top level is a list":
        doc = [1, 2]
    return json.dumps(doc)


@pytest.mark.parametrize("case", ["not json", "target without sigmas",
                                  "n_max not a number", "top level is a list"])
def test_bad_config_file_exits_two_naming_path(case, tmp_path, caplog):
    path = tmp_path / "bad.json"
    path.write_text(_bad_config_text(case))
    with caplog.at_level("ERROR"):
        assert main(["train-tpm", "--config", str(path)]) == 2
    assert str(path) in caplog.text


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
    assert summary.curve_steps == list(range(len(summary.curve_times)))
