"""Tests of the benchmark's own logic.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import math
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from checks import check_metrics_csv, check_outputs  # noqa: E402
from probes import PROBES, need, run_probes  # noqa: E402
from tracer import LAYERS, SHARES, Tracer  # noqa: E402
from workloads import END_TO_END, LAYER_MAP, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.wrap(lambda: clock.advance(2.0), "special_math", "log_gamma")

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        leaf()
    mid = tr.wrap(mid_body, "policy", "predict_decay")

    def outer_body():
        clock.advance(5.0)
        mid()
    tr.wrap(outer_body, "sampler", "sample_adaptive")()

    assert tr.self_s == {"special_math": 4.0, "policy": 4.0, "sampler": 5.0}
    assert tr.calls == {"special_math": 2, "policy": 1, "sampler": 1}
    assert sum(tr.self_s.values()) == clock.t


def test_phase_shares_count_outermost_spans_inside_train_tpm_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    adamw = tr.wrap(lambda: clock.advance(1.0), "nn", "adamw_step")

    def ppo_body():
        clock.advance(2.0)
        adamw()  # nested in ppo_loss: counts towards ppo_loss, not optimizer
    ppo = tr.wrap(ppo_body, "rl", "ppo_loss")

    def train_body():
        ppo()
        adamw()
        clock.advance(4.0)
    train = tr.wrap(train_body, "rl", "train_tpm")
    train()
    adamw()  # outside train_tpm: no phase

    assert tr.root_s == 8.0
    assert tr.phase_s == {"ppo_loss": 3.0, "optimizer": 1.0}
    assert tr.self_s["nn"] == 3.0


def test_install_rebinds_from_imports_and_attributes_to_defining_module(tmp_path,
                                                                        monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .low import work\n")
    (pkg / "low.py").write_text(textwrap.dedent("""
        def work(n):
            return sum(range(n))

        class Net:
            def forward(self, n):
                return work(n)

            def other(self):
                return 0
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import Net, work

        def run():
            return work(10) + Net().forward(5) + Net().other()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg
    import fakepkg.high

    tr = Tracer()
    assert tr.install(fakepkg) == 3  # work, Net.forward, run
    assert fakepkg.high.run() == 45 + 10
    assert tr.calls == {"high": 1, "low": 3}
    assert fakepkg.work is fakepkg.low.work is fakepkg.high.work


def test_absent_probe_is_reported_absent_not_failed(tmp_path):
    probes = {
        "sampler.gone.us": ("us", lambda c: need("sampler", "no_such_function")),
        "policy.changed.us": ("us", lambda c: need("policy", "step_features")()),
        "rng.child.us": PROBES["rng.child.us"],
    }
    results, absent = run_probes(1, tmp_path, probes)
    assert set(absent) == {"sampler.gone.us", "policy.changed.us"}
    assert set(results) == {"rng.child.us"}
    assert results["rng.child.us"]["n"] >= 25 and results["rng.child.us"]["median"] > 0


METRICS_HEADER = "outer_step,mean_reward,mean_ir,mean_N,mean_kl,grad_norm\n"


def _metrics_csv(path: Path, rows: int, bad: str | None = None) -> Path:
    lines = [f"{i},0.5,0.8,{8 + i % 3}.0,0.01,0.1\n" for i in range(rows)]
    if bad is not None:
        lines[-1] = bad
    path.write_text(METRICS_HEADER + "".join(lines))
    return path


@pytest.mark.parametrize("rows,bad,needle", [
    (59, None, "59 rows"),                                   # truncated
    (60, "59,0.5,nan,8.0,0.01,0.1\n", "mean_ir"),            # non-finite
    (60, "59,0.5,0.8,inf,0.01,0.1\n", "mean_N"),
    (60, "59,0.5,0.8,8.0,0.01\n", "grad_norm"),              # cut mid-row
    (60, "59,0.5,0.8,41.0,0.01,0.1\n", "mean_N outside"),    # above n_max
    (60, "59,0.5,0.8,0.5,0.01,0.1\n", "mean_N outside"),     # below 1
])
def test_bad_metrics_csv_fails_the_run(tmp_path, rows, bad, needle):
    problems = check_metrics_csv(_metrics_csv(tmp_path / "metrics.csv", rows, bad), 60, 40)
    assert len(problems) == 1 and needle in problems[0]


def test_train_oracle_outputs_pass_only_when_complete(tmp_path):
    from flowsched.config import preset_config
    from flowsched.policy import init_policy, save_policy
    from flowsched.rng import RngStream

    cfg = json.loads(preset_config("desk").to_json())
    save_policy(init_policy(2, 0.75, RngStream(1, 1)), tmp_path / "policy.ckpt")
    _metrics_csv(tmp_path / "metrics.csv", 60)
    assert check_outputs(WORKLOADS["train-oracle"], cfg, tmp_path, set()) == []
    _metrics_csv(tmp_path / "metrics.csv", 30)
    assert check_outputs(WORKLOADS["train-oracle"], cfg, tmp_path, set())
    (tmp_path / "policy.ckpt").write_bytes(b"FSNET\0")
    _metrics_csv(tmp_path / "metrics.csv", 60)
    assert any("policy.ckpt" in p
               for p in check_outputs(WORKLOADS["train-oracle"], cfg, tmp_path, set()))


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = ([f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
                + [f"rl.{phase}.share" for phase in SHARES] + ["trace.overhead_s"]
                + [f"{p}{suffix}" for p in PROBES for suffix in ("", ".p99", ".n")])
    assert sorted(per_layer) == sorted(expected)


def test_layer_map_names_real_probes_workloads_and_metrics():
    assert set(LAYER_MAP) == set(PROBES)
    for pairs in LAYER_MAP.values():
        assert pairs
        for workload, metric in pairs:
            assert workload in WORKLOADS and metric in END_TO_END


def test_expected_log_density_of_a_single_gaussian_matches_closed_form():
    from workloads import target_expected_log_density

    est = target_expected_log_density({"means": [[0.0, 0.0]], "sigmas": [1.0],
                                       "weights": [1.0]})
    assert est == pytest.approx(-(math.log(2 * math.pi) + 1.0), abs=0.01)


def test_times_scale_to_the_reference_host_speed():
    from hostspeed import REF_S, at_ref

    assert at_ref(2.0, REF_S) == pytest.approx(2.0)
    assert at_ref(2.0, 2 * REF_S) == pytest.approx(1.0)  # host ran at half speed


def test_train_oracle_times_a_slice_and_scores_the_full_desk_training(tmp_path):
    import setup_inputs
    from workloads import TIMED_OUTER_STEPS

    assert setup_inputs.main(["train-oracle", "7", str(tmp_path)]) == 0
    timed = json.loads((tmp_path / "config.json").read_text())
    full = json.loads((tmp_path / "quality_config.json").read_text())
    assert timed["seed"] == full["seed"] == 7
    assert timed["rl"]["outer_steps"] == TIMED_OUTER_STEPS
    assert full["rl"]["outer_steps"] == 60
    assert {k: v for k, v in timed.items() if k != "rl"} == \
        {k: v for k, v in full.items() if k != "rl"}
