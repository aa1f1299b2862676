"""Experiment configuration: one JSON document drives every subcommand.

The schema is versioned and round-trips bit-exactly (floats serialize via
repr, which json preserves). Every run writes its resolved config and a
version string next to its outputs so run directories are self-describing.
Every check on a config value lives here, in the dataclasses of the schema
(ExperimentConfig and its sections ScheduleConfig and RLConfig), so reading
or writing a config loads only this module, flow, nn and rng.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__ as PACKAGE_VERSION
from .flow import TargetSpec
from .nn import write_atomic

CONFIG_VERSION = 1
MODES = ("adaptive", "fixed-uniform", "fixed-shifted", "discrete-adaptive")

# Desk preset: small enough to iterate at a desk while keeping the training
# dynamics intact. The full-scale optimizer step of 1e-5 is far too small to
# move a ~300-parameter policy in a few hundred updates, so the desk preset
# raises lr and leans harder on the reference-policy KL to keep step counts
# interior; the "paper" preset keeps the full-scale numbers.
DESK_RL = dict(batch_size=64, outer_steps=60, lr=3e-3, kl_weight=0.2)
DESK_EVAL_ROLLOUTS = 500
PRESETS = {"desk": (DESK_RL, DESK_EVAL_ROLLOUTS),  # name -> (RLConfig settings, eval_rollouts)
           "paper": (dict(batch_size=256, outer_steps=200, lr=1e-5), 5000)}


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "adaptive"
    t_min: float = 0.01
    n_max: int = 40
    fixed_n: Optional[int] = None
    shift: float = 3.0
    grid_size: int = 1000

    def __post_init__(self):
        _check_integers(self)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.t_min <= 0.1:
            raise ValueError(f"t_min={self.t_min} outside (0, 0.1]")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.grid_size < 10:
            raise ValueError("grid_size must be >= 10")
        if self.fixed and (self.fixed_n is None or self.fixed_n < 1):
            raise ValueError("fixed modes need fixed_n >= 1")
        if self.shift <= 0.0:
            raise ValueError("shift must be positive")

    @property
    def fixed(self) -> bool:
        """Whether the mode walks a fixed time table instead of asking a policy."""
        return self.mode.startswith("fixed")


@dataclass(frozen=True)
class RLConfig:
    gamma: float = 0.95
    kl_weight: float = 0.01
    clip: float = 0.2          # 0 disables clipping (plain importance ratio)
    group_size: int = 4
    batch_size: int = 256
    inner_epochs: int = 4
    lr: float = 1e-5
    max_grad_norm: float = 1.0
    outer_steps: int = 200

    def __post_init__(self):
        _check_integers(self)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.kl_weight < 0.0 or self.clip < 0.0:
            raise ValueError("kl_weight and clip must be >= 0")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2 for a leave-one-out baseline")
        if self.batch_size < self.group_size or self.batch_size % self.group_size:
            raise ValueError("batch_size must be a positive multiple of group_size")
        if self.inner_epochs < 1 or self.outer_steps < 1:
            raise ValueError("inner_epochs and outer_steps must be >= 1")
        if self.lr <= 0.0 or self.max_grad_norm <= 0.0:
            raise ValueError("lr and max_grad_norm must be positive")


@dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    seed: int = 20240801
    out_dir: str = "runs/latest"
    targets: list[TargetSpec] = field(
        default_factory=lambda: [TargetSpec([[0.0, 0.0]], [1.0], [1.0])]
    )
    field_source: str = "oracle"  # "oracle" | "learned"
    field_checkpoints: Optional[list[str]] = None
    policy_checkpoint: Optional[str] = None
    init_r_target: float = 0.75
    policy_hidden: list[int] = field(default_factory=lambda: [32])
    flow_hidden: list[int] = field(default_factory=lambda: [64, 64])
    flow_steps: int = 5000
    flow_batch: int = 256
    flow_lr: float = 1e-3
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    rl: RLConfig = field(default_factory=RLConfig)
    eval_rollouts: int = DESK_EVAL_ROLLOUTS

    def __post_init__(self):
        _check_integers(self)
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.field_source not in ("oracle", "learned"):
            raise ValueError("field_source must be 'oracle' or 'learned'")
        if not self.targets:
            raise ValueError("at least one target required")
        paths = self.field_checkpoints
        if paths is not None and len(paths) != len(self.targets):
            raise ValueError(f"field_checkpoints lists {len(paths)} paths for "
                             f"{len(self.targets)} targets; it needs one per target")
        if not 0.0 < self.init_r_target < 1.0:
            raise ValueError("init_r_target must lie in (0, 1)")
        if self.eval_rollouts < 1:
            raise ValueError("eval_rollouts must be positive")
        if self.flow_steps < 1 or self.flow_batch < 1:
            raise ValueError("flow_steps and flow_batch must be >= 1")
        if not (math.isfinite(self.flow_lr) and self.flow_lr > 0.0):
            raise ValueError("flow_lr must be positive and finite")
        for name in ("flow_hidden", "policy_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name} widths must be >= 1")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["targets"] = [t.to_dict() for t in self.targets]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "targets" in data:
            data["targets"] = [TargetSpec.from_dict(t) for t in data["targets"]]
        if "schedule" in data:
            data["schedule"] = _from_fields(ScheduleConfig, data["schedule"], " in 'schedule'")
        if "rl" in data:
            data["rl"] = _from_fields(RLConfig, data["rl"], " in 'rl'")
        return _from_fields(cls, data, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        """The config at path; a bad or non-UTF-8 document raises a ValueError naming path."""
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"invalid config {path}: {type(exc).__name__}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_integers(section) -> None:
    """Reject, naming the key, a field annotated int whose value is not an int
    (a bool is not), Optional[int] that is neither null nor an int, or
    list[int] that is not a list of ints."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if f.type == "list[int]" and not (isinstance(value, list) and all(map(_is_int, value))):
            raise ValueError(f"{f.name} must be a list of integers, got {value!r}")
        if f.type == "Optional[int]" and value is None:
            continue
        if f.type in ("int", "Optional[int]") and not _is_int(value):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


def _from_fields(cls, data: dict, where: str):
    """cls(**data), naming any key cls has no field for."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys{where}: {sorted(unknown)}")
    return cls(**data)


def preset_config(preset: str) -> ExperimentConfig:
    """Baseline config for a preset; 'desk' is small-scale, 'paper' keeps the
    published batch size, step count, and learning rate."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    rl, eval_rollouts = PRESETS[preset]
    return ExperimentConfig(rl=RLConfig(**rl), eval_rollouts=eval_rollouts)


def version_string() -> str:
    """Package version plus a git describe of the working tree when available."""
    import subprocess  # here, not at the top: only a run stamp starts git

    root = Path(__file__).resolve().parents[2]
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"flowsched-{PACKAGE_VERSION}+{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"flowsched-{PACKAGE_VERSION}"


def write_run_stamp(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Make the run directory self-describing: resolved config + version."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "resolved_config.json")
    write_atomic(out / "version.txt", version_string() + "\n")
    return out
