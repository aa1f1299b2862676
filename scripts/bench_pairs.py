"""Paired benchmark runs of a parent commit against the working tree.

For each workload and seed, runs `benchmark/run.py --trace 0` once on a
`git archive` copy of the parent commit and once on the working tree,
alternating which side runs first, and reads each run's result.json. Writes
one JSON file: per workload and end-to-end metric, each side's values,
median and quartiles (statistics.quantiles, n=4), and in how many pairs the
change was better (BENCHMARK.json's "better"); per workload each side's
median host-loop time of every pair (`loop_s`, result.json's
detail.raw_median), printed beside the pair's wall_s, so a pair lost to a
slower host shows as such; with the environment stamp of the runs, the
commits and the seeds. With `--probes NAME[,NAME]`, after the workloads it
runs `benchmark/probes.run_probes` for the named probes in one fresh
process per side and seed, alternating as the workloads do, each pinned to
one CPU with one BLAS thread as `benchmark/run.py --trace 1` runs them, and
records each probe's per-run medians under `probes` the way it records a
metric (BENCHMARK.json's "better" for the probe's name); a probe absent on a
side is listed with its reason instead. Then it runs the Tier-1
suite once on each side, the parent first as in the first pair, and records
its wall time and its passed/xfailed/failed counts, and runs each side's
`scripts/src_lines.py` to record its (lines, code lines) totals of `src/`
(null for a side that has no such script). Nothing in it is typed by
hand. Each run's directory under .bench_runs/ is deleted once its result.json
is read; the directory of a failed run is kept and its path printed.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 501-510 \\
        --workload train-flow-ring4 --seconds 30 --out BENCH.json \\
        --probes nn.backward.us.field_b256,flow.fm_loss.us.b256
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_COUNTS = ("passed", "xfailed", "failed")
# argv: seed, comma-separated probe names, work directory; prints one JSON line
PROBE_CHILD = """\
import json, os, sys
from pathlib import Path
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = ["benchmark", "src"]
import hostspeed
from probes import PROBES, run_probes
hostspeed.pin_one_cpu()
names = sys.argv[2].split(",")
unknown = [n for n in names if n not in PROBES]
if unknown:
    sys.exit(f"no such probe: {', '.join(unknown)}")
results, absent = run_probes(int(sys.argv[1]), Path(sys.argv[3]), {n: PROBES[n] for n in names})
print(json.dumps({"results": results, "absent": absent}))
"""


def parse_seeds(text: str) -> list[int]:
    """'501-505' or '501,503,507' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmark/run.py` run in the checkout at root; its result.json.

    The run's directory is deleted once result.json is read, unless the run
    failed (a non-zero exit or a result that is not correct): then it is
    kept, and its path printed."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run_dir = root / ".bench_runs" / f"{workload}-seed{seed}-trace0"
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}; "
                         f"kept {run_dir}:\n{proc.stderr}")
    res = json.loads((run_dir / "result.json").read_text())
    if res["correct"]:
        shutil.rmtree(run_dir)
    else:
        print(f"{workload} seed {seed} in {root}: incorrect run kept in {run_dir}", flush=True)
    return res


def run_probes(root: Path, seed: int, names: list[str], work_dir: Path) -> dict:
    """The named probes of the checkout at root, run in one fresh process:
    {"results": {probe: {median, p99, n, unit}}, "absent": {probe: reason}}."""
    proc = subprocess.run([sys.executable, "-c", PROBE_CHILD, str(seed), ",".join(names),
                           str(work_dir)], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"probes {','.join(names)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pair_probes(roots: dict[str, Path], seeds: list[int], names: list[str],
                better: dict[str, str], work_dir: Path) -> dict:
    """Per probe, summarize() of its per-run medians over the seeds, with its
    unit; a probe that any run reports absent gets its reasons instead."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_probes(roots[side], seed, names, work_dir))
            shown = {n: round(r["median"], 2) for n, r in runs[side][-1]["results"].items()}
            print(f"probes seed {seed} {side}: {shown}", flush=True)
    out = {}
    for name in names:
        absent = {side: [r["absent"][name] for r in runs[side] if name in r["absent"]]
                  for side in SIDES}
        if any(absent.values()):
            out[name] = {"absent": absent}
            continue
        values = {side: [r["results"][name]["median"] for r in runs[side]] for side in SIDES}
        name_better = better.get(name, "lower")
        out[name] = {"unit": runs["change"][0]["results"][name]["unit"], "better": name_better,
                     **summarize(values, name_better)}
    return out


def run_tier1(root: Path) -> dict:
    """The Tier-1 suite of the checkout at root: its wall time and the counts
    of pytest's summary line (0 for an outcome the line does not name)."""
    src = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    found = {name: int(n) for n, name in re.findall(r"(\d+) (\w+)", summary)}
    return {"wall_s": wall_s, **{name: found.get(name, 0) for name in TIER1_COUNTS},
            "exit_code": proc.returncode, "summary": summary}


def src_lines(root: Path) -> Optional[list[int]]:
    """The (lines, code lines) totals that the checkout at root's
    scripts/src_lines.py prints on its last line, or None without one."""
    script = root / "scripts" / "src_lines.py"
    if not script.exists():
        return None
    out = subprocess.run([sys.executable, str(script)], cwd=root, capture_output=True,
                         text=True, check=True).stdout
    lines, code = out.strip().splitlines()[-1].split()[:2]
    return [int(lines), int(code)]


def summarize(values: dict[str, list[float]], better: str) -> dict:
    """Per side the values, median and quartiles, and the change's wins: the
    pairs (same seed) in which its value is strictly better."""
    out = {}
    for side in SIDES:
        vals = values[side]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out[side] = {"values": vals, "median": med, "q1": q1, "q3": q3}
    sign = -1.0 if better == "lower" else 1.0
    out["change_wins"] = sum(sign * (c - p) > 0.0
                             for p, c in zip(values["parent"], values["change"]))
    out["pairs"] = len(values["change"])
    parent_median = out["parent"]["median"]
    out["median_change"] = (out["change"]["median"] / parent_median - 1.0
                            if parent_median else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="commit to compare the working tree with")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seeds, e.g. 501-510 or 501,507")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every one in BENCHMARK.json)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--work-dir", help="where to unpack the parent (default: a temporary directory)")
    ap.add_argument("--probes", type=lambda text: text.split(","), default=[],
                    help="benchmark/probes.py probes to pair after the workloads, "
                         "e.g. nn.backward.us.field_b256,flow.fm_loss.us.b256")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        tar = Path(tmp) / "parent.tar"
        git("archive", "-o", str(tar), parent)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(parent_root)], check=True)
        roots = {"parent": parent_root, "change": ROOT}
        results, env = {}, None
        for workload in workloads:
            values = {name: {side: [] for side in SIDES} for name in metrics}
            failed = {side: 0 for side in SIDES}
            loop_s = {side: [] for side in SIDES}
            for i, seed in enumerate(args.seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    res = run_bench(roots[side], workload, seed, args.seconds)
                    failed[side] += not res["correct"]
                    for name in metrics:
                        values[name][side].append(res["metrics"][name][0])
                    loop_s[side].append(res["detail"]["raw_median"]["loop_s"])
                    env = env or {k: v for k, v in res["env"].items()
                                  if k not in ("seed", "configs", "git_commit")}
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{res['metrics']['wall_s'][0]:.4g} loop_s {loop_s[side][-1]:.4g}",
                          flush=True)
            results[workload] = {
                "incorrect_runs": failed,
                "loop_s": loop_s,
                "metrics": {name: {"unit": m["unit"], "better": m["better"],
                                   **summarize(values[name], m["better"])}
                            for name, m in metrics.items()},
            }
        probes = None
        if args.probes:
            better = {m["name"]: m["better"] for m in spec["per_layer"]}
            probes = pair_probes(roots, args.seeds, args.probes, better, Path(tmp))
        tier1 = {}
        for side in SIDES:
            tier1[side] = run_tier1(roots[side])
            print(f"tier-1 {side}: {tier1[side]['summary']}", flush=True)
        lines = {side: src_lines(roots[side]) for side in SIDES}
        print(f"src lines (lines, code lines): {lines}", flush=True)
    Path(args.out).write_text(json.dumps({
        "command": f"benchmark/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "parent": parent,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "order": "alternating: even seed index runs the parent first",
        "seeds": args.seeds, "env": env, "workloads": results,
        "probes": probes and {
            "command": "benchmark/probes.run_probes(S, dir, {names}), one process per side and S",
            **probes},
        "tier1": {"command": "python3 " + " ".join(TIER1) + " (PYTHONPATH=src)", **tier1},
        "src_lines": {"command": "python3 scripts/src_lines.py (lines, code lines)", **lines},
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
