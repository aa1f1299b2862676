"""flowsched benchmark: end-to-end metrics of one workload, or, traced, the
per-layer metrics.

    python3 benchmark/run.py --workload train-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each timed run is one fresh process through
``flowsched.cli.main``, repeated until ``--seconds`` are used; set-up is timed
separately. Times are medians, scaled to a reference host speed measured
between the processes (``hostspeed.py``). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the workload once untraced and once
under ``tracer.py`` and then the layer probes of ``probes.py``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Details and an environment stamp go to .bench_runs/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc) keeps a timed run from competing
# with itself for cores; set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from checks import check_outputs, check_setup, digest  # noqa: E402
from tracer import LAYERS, SHARES  # noqa: E402
from workloads import END_TO_END, WORKLOADS, work_and_quality  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = "import sys; from flowsched.cli import main; sys.exit(main(sys.argv[1:]))"
# Set-ups per run: at least MIN_SETUPS, more while they are cheap.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
MIN_RUNS = 2  # byte-identical outputs need two runs to compare
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], log: Path) -> dict:
    """Run one child to completion: wall time, exit code, peak RSS in MB,
    and the mean of hostspeed.loop timed right before and right after it."""
    before = hostspeed.loop()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    loop_s = (before + hostspeed.loop()) / 2
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "loop_s": loop_s}


def setup(workload, seed: int, run_dir: Path, count: int | None = None) -> tuple[Path, list[dict]]:
    """Set the workload up `count` times, or by default MIN_SETUPS times and
    more while cheap; the inputs must come out byte-identical. Returns the
    first set-up directory and the run_child result of each set-up."""
    results, digests = [], set()
    while (len(results) < (count or MIN_SETUPS)
           or (count is None and len(results) < MAX_SETUPS
               and sum(r["wall_s"] for r in results) < SETUP_BUDGET_S)):
        out = run_dir / f"setup_{len(results)}"
        res = run_child([sys.executable, str(HERE / "setup_inputs.py"), workload.name,
                         str(seed), str(out)], run_dir / f"setup_{len(results)}.log")
        if res["code"] != 0:
            raise BenchError(f"set-up of {workload.name} exited {res['code']}; "
                             f"see {run_dir / f'setup_{len(results)}.log'}")
        results.append(res)
        digests.add(digest(out, ("field_0.ckpt", "policy.ckpt", "flow_loss_0.csv")))
    if len(digests) != 1:
        raise BenchError(f"set-up of {workload.name} is not deterministic")
    return run_dir / "setup_0", results


def invoke(workload, cfg_path: Path, cfg: dict, out: Path, trace_out: Path | None,
           absent: set[str]) -> dict:
    """One timed CLI run plus its output checks."""
    args = [workload.command, "--config", str(cfg_path), "--out", str(out)]
    cmd = ([sys.executable, str(HERE / "tracer.py"), str(trace_out)] if trace_out
           else [sys.executable, "-c", CLI])
    res = run_child(cmd + args, out.with_suffix(".log"))
    problems = [f"exit code {res['code']}"] if res["code"] else []
    problems += check_outputs(workload, cfg, out, absent)
    if not problems:
        try:
            res["evals"], res["quality"] = work_and_quality(workload, cfg, out)
        except (ValueError, KeyError, OSError) as exc:
            problems.append(f"bad result: {exc}")
    res["problems"] = problems
    res["config"] = cfg_path.name
    res["digest"] = digest(out, workload.outputs)
    return res


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def env_stamp(seed: int, configs: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "blas_threads": int(BLAS_THREADS), "git_commit": git_commit(),
        "seed": seed, "configs": configs,
    }


def end_to_end(workload, seed: int, seconds: float, run_dir: Path, absent: set[str]):
    setup_dir, setups = setup(workload, seed, run_dir)
    problems = check_setup(workload, setup_dir, absent)
    cfg_path = setup_dir / "config.json"
    cfg = json.loads(cfg_path.read_text())
    start = time.perf_counter()
    quality_path = setup_dir / "quality_config.json"
    quality_runs = []
    if quality_path.exists():  # quality_loss from the workload's full-size run
        quality_runs.append(invoke(workload, quality_path,
                                   json.loads(quality_path.read_text()),
                                   run_dir / "run_quality", None, absent))
    runs, laps = [], []
    while True:
        lap = time.perf_counter()
        runs.append(invoke(workload, cfg_path, cfg, run_dir / f"run_{len(runs)}", None,
                           absent))
        laps.append(time.perf_counter() - lap)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed + statistics.mean(laps) > seconds:
            break
    good = [r for r in runs if not r["problems"]]
    if not good:
        raise BenchError(f"every run of {workload.name} failed: {runs[0]['problems']}")
    scored = quality_runs or good
    if scored[0]["problems"]:
        raise BenchError(f"quality run of {workload.name} failed: {scored[0]['problems']}")
    runs = quality_runs + runs
    for r in setups + runs:
        r["ref_s"] = hostspeed.at_ref(r["wall_s"], r["loop_s"])
    metrics = {
        "wall_s": statistics.median(r["ref_s"] for r in good),
        "setup_s": statistics.median(r["ref_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in good),
        "field_evals_per_s": statistics.median(r["evals"] / r["ref_s"] for r in good),
        "quality_loss": statistics.median(r["quality"] for r in scored),
    }
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    raw = {"wall_s": statistics.median(r["wall_s"] for r in good),
           "setup_s": statistics.median(r["wall_s"] for r in setups),
           "loop_s": statistics.median(r["loop_s"] for r in setups + runs)}
    detail = {"raw_median": raw, "setups": setups, "runs": runs}
    return runs, problems, {k: (v, units[k]) for k, v in metrics.items()}, cfg, detail


def per_layer(workload, seed: int, run_dir: Path, absent: set[str]):
    from probes import run_probes

    setup_dir, _ = setup(workload, seed, run_dir, count=1)
    problems = check_setup(workload, setup_dir, absent)
    cfg_path = setup_dir / "config.json"
    cfg = json.loads(cfg_path.read_text())
    plain = invoke(workload, cfg_path, cfg, run_dir / "run_plain", None, absent)
    trace_path = run_dir / "trace.json"
    spans = invoke(workload, cfg_path, cfg, run_dir / "run_traced", trace_path, absent)
    runs = [plain, spans]
    if spans["code"] or not trace_path.exists():
        raise BenchError(f"traced run failed; see {run_dir / 'run_traced.log'}")
    trace = json.loads(trace_path.read_text())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (trace["self_s"].get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (trace["calls"].get(layer, 0), "count")
    root = trace["train_tpm_s"]
    for phase in SHARES:
        share = trace["phase_s"].get(phase, 0.0) / root if root else 0.0
        metrics[f"rl.{phase}.share"] = (share, "fraction")
    metrics["trace.overhead_s"] = (spans["wall_s"] - plain["wall_s"], "s")
    results, missing = run_probes(seed, run_dir)
    for name, res in results.items():
        metrics[name] = (res["median"], res["unit"])
        metrics[f"{name}.p99"] = (res["p99"], res["unit"])
        metrics[f"{name}.n"] = (res["n"], "count")
    absent.update(f"probe.{name}" for name in missing)
    detail = {"trace": trace, "probes": results, "absent_reasons": missing, "runs": runs}
    return runs, problems, metrics, cfg, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so run_child stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hostspeed.pin_one_cpu()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "flowsched" / "cli.py").is_file():
        print(f"benchmark: no flowsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    absent: set[str] = set()
    try:
        if args.trace:
            result = per_layer(workload, args.seed, run_dir, absent)
        else:
            result = end_to_end(workload, args.seed, args.seconds, run_dir, absent)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    runs, problems, metrics, cfg, detail = result
    failed = [r for r in runs if r["problems"]]
    for name in {r["config"] for r in runs}:
        if len({r["digest"] for r in runs if r["config"] == name and not r["problems"]}) > 1:
            problems.append(f"runs of {name} gave different outputs")
    problems += [p for r in failed for p in r["problems"]]
    correct = not problems
    stamp = env_stamp(args.seed, {workload.name: cfg})
    (run_dir / "result.json").write_text(json.dumps({
        "workload": workload.name, "trace": args.trace, "env": stamp,
        "correct": correct, "problems": problems,
        "absent": sorted(absent), "metrics": metrics, "detail": detail,
    }, indent=2, default=str))
    print("env: " + json.dumps({k: v for k, v in stamp.items() if k != "configs"}))
    for name in sorted(absent):
        print(f"absent: {name}")
    for problem in problems:
        print(f"problem: {problem}")
    if "raw_median" in detail:
        print("unscaled medians: " + ", ".join(f"{k} = {v:.6g} s"
                                               for k, v in detail["raw_median"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
