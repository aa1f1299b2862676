"""Experiment configuration: one JSON document drives every subcommand.

The schema is versioned and round-trips bit-exactly (floats serialize via
repr, which json preserves). Every run writes its resolved config and a
version string next to its outputs so run directories are self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .flow import TargetSpec
from .nn import write_atomic
from .rl import RLConfig
from .sampler import ScheduleConfig

CONFIG_VERSION = 1
PACKAGE_VERSION = "0.1.0"

# Desk preset: small enough to iterate at a desk while keeping the training
# dynamics intact. The full-scale optimizer step of 1e-5 is far too small to
# move a ~300-parameter policy in a few hundred updates, so the desk preset
# raises lr and leans harder on the reference-policy KL to keep step counts
# interior; the "paper" preset keeps the full-scale numbers.
DESK_RL = dict(batch_size=64, outer_steps=60, lr=3e-3, kl_weight=0.2)
DESK_EVAL_ROLLOUTS = 500
PAPER_RL = dict(batch_size=256, outer_steps=200, lr=1e-5)
PAPER_EVAL_ROLLOUTS = 5000


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
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        if self.field_source not in ("oracle", "learned"):
            raise ValueError("field_source must be 'oracle' or 'learned'")
        if not self.targets:
            raise ValueError("at least one target required")
        if not 0.0 < self.init_r_target < 1.0:
            raise ValueError("init_r_target must lie in (0, 1)")
        if self.eval_rollouts < 1:
            raise ValueError("eval_rollouts must be positive")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["targets"] = [t.to_dict() for t in self.targets]
        out["schedule"] = dataclasses.asdict(self.schedule)
        out["rl"] = dataclasses.asdict(self.rl)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        data["targets"] = [TargetSpec.from_dict(t) for t in data.get("targets", [])]
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
        """The config at path; a bad document raises a ValueError naming path."""
        text = Path(path).read_text()
        try:
            return cls.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"invalid config {path}: {type(exc).__name__}: {exc}") from exc


def _from_fields(cls, data: dict, where: str):
    """cls(**data), naming any key cls has no field for."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys{where}: {sorted(unknown)}")
    return cls(**data)


def preset_config(preset: str) -> ExperimentConfig:
    """Baseline config for a preset; 'desk' is small-scale, 'paper' keeps the
    published batch size, step count, and learning rate."""
    if preset == "desk":
        rl = RLConfig(**DESK_RL)
        return ExperimentConfig(rl=rl, eval_rollouts=DESK_EVAL_ROLLOUTS)
    if preset == "paper":
        rl = RLConfig(**PAPER_RL)
        return ExperimentConfig(rl=rl, eval_rollouts=PAPER_EVAL_ROLLOUTS)
    raise ValueError(f"unknown preset {preset!r}")


def version_string() -> str:
    """Package version plus a git describe of the working tree when available."""
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
    (out / "version.txt").write_text(version_string() + "\n")
    return out
