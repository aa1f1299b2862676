"""Output checks. A run (one CLI invocation) fails when it exits non-zero or
any check here finds a problem; the failures feed the `failed` count.

Checks read only the documented CSV and checkpoint formats. Loaders are
looked up at run time, so a renamed loader makes its check absent rather
than failing the run.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

from workloads import Workload, finite_floats, read_rows

METRICS_COLUMNS = ("outer_step", "mean_reward", "mean_ir", "mean_N", "mean_kl",
                   "grad_norm")


def resolve(module: str, name: str):
    """A public attribute of a flowsched module, or None if it is gone."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def _rows_problem(path: Path, columns: tuple[str, ...], expected: int):
    """(rows, problem) for a CSV that must hold `expected` finite rows."""
    if not path.exists():
        return None, f"{path.name} is missing"
    rows = read_rows(path)
    if len(rows) != expected:
        return None, f"{path.name} has {len(rows)} rows, expected {expected}"
    try:
        return finite_floats(rows, columns), None
    except ValueError as exc:
        return None, f"{path.name}: {exc}"


def check_metrics_csv(path: Path, outer_steps: int, n_max: int) -> list[str]:
    rows, problem = _rows_problem(path, METRICS_COLUMNS, outer_steps)
    if problem:
        return [problem]
    mean_n = METRICS_COLUMNS.index("mean_N")
    bad = [i for i, row in enumerate(rows) if not 1.0 <= row[mean_n] <= n_max]
    return [f"{path.name}: mean_N outside [1, {n_max}] in rows {bad}"] if bad else []


def check_loads(path: Path, module: str, loader: str, absent: set[str]) -> list[str]:
    load = resolve(f"flowsched.{module}", loader)
    if load is None:
        absent.add(f"check.{loader}")
        return []
    if not path.exists():
        return [f"{path.name} is missing"]
    try:
        load(path)
    except Exception as exc:  # any failure to load is the finding itself
        return [f"{path.name} does not load via {loader}: {exc}"]
    return []


def check_outputs(workload: Workload, cfg: dict, out: Path,
                  absent: set[str]) -> list[str]:
    """Problems with the outputs of one finished invocation (empty if none)."""
    if workload.name == "train-oracle":
        return (check_metrics_csv(out / "metrics.csv", cfg["rl"]["outer_steps"],
                                  cfg["schedule"]["n_max"])
                + check_loads(out / "policy.ckpt", "policy", "load_policy", absent))
    if workload.name == "eval-ring4":
        _, problem = _rows_problem(out / "baselines.csv", ("n_steps", "mean_ir"), 3)
        return [problem] if problem else []
    _, problem = _rows_problem(out / "flow_loss_0.csv", ("loss",), cfg["flow_steps"])
    return (([problem] if problem else [])
            + check_loads(out / "field_0.ckpt", "nn", "load_checkpoint", absent))


def check_setup(workload: Workload, setup_dir: Path, absent: set[str]) -> list[str]:
    """eval-ring4 inputs must load before they are timed."""
    if workload.name != "eval-ring4":
        return []
    return (check_loads(setup_dir / "field_0.ckpt", "nn", "load_checkpoint", absent)
            + check_loads(setup_dir / "policy.ckpt", "policy", "load_policy", absent))


def digest(out: Path, names: tuple[str, ...]) -> str:
    """One hash over the named result files; missing files hash as absent."""
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()
