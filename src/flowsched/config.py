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
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__ as PACKAGE_VERSION
from .flow import TargetSpec
from .nn import write_atomic

CONFIG_VERSION = 1
GIT_TIMEOUT_S = 10.0
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


def _key(default, rule):
    """A schema key: its default (a list is copied per config) and its rule."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = _key("adaptive", MODES)
    t_min: float = _key(0.01, "(0, 0.1]")
    n_max: int = _key(40, "[2, inf)")
    fixed_n: Optional[int] = _key(None, "[1, inf)")
    shift: float = _key(3.0, "(0, inf)")
    grid_size: int = _key(1000, "[10, inf)")

    def __post_init__(self):
        _check_fields(self)
        if self.fixed and self.fixed_n is None:
            raise ValueError("fixed modes need fixed_n >= 1")

    @property
    def fixed(self) -> bool:
        """Whether the mode walks a fixed time table instead of asking a policy."""
        return self.mode.startswith("fixed")


@dataclass(frozen=True)
class RLConfig:
    gamma: float = _key(0.95, "(0, 1]")
    kl_weight: float = _key(0.01, "[0, inf)")
    clip: float = _key(0.2, "[0, inf)")  # 0 disables clipping (plain importance ratio)
    group_size: int = _key(4, "[2, inf)")  # a leave-one-out baseline needs two
    batch_size: int = _key(256, "[1, inf)")
    inner_epochs: int = _key(4, "[1, inf)")
    lr: float = _key(1e-5, "(0, inf)")
    max_grad_norm: float = _key(1.0, "(0, inf)")
    outer_steps: int = _key(200, "[1, inf)")

    def __post_init__(self):
        _check_fields(self)
        if self.batch_size % self.group_size:
            raise ValueError("batch_size must be a positive multiple of group_size")


@dataclass(frozen=True)
class _Target:
    """The JSON form of a flow.TargetSpec, which checks the mixture itself."""

    means: list[list[float]]
    sigmas: list[float]
    weights: list[float]

    def __post_init__(self):
        _check_fields(self)

    @classmethod
    def spec(cls, data, name: str) -> TargetSpec:
        """The mixture that the JSON object data, found at name, describes; a
        ValueError names name and the key."""
        data = _known_keys(cls, data, name)
        try:
            return TargetSpec(**vars(cls(**data)))
        except ValueError as exc:
            raise ValueError(f"{name}.{exc}") from None


@dataclass
class ExperimentConfig:
    version: int = _key(CONFIG_VERSION, (CONFIG_VERSION,))
    seed: int = _key(20240801, f"[0, {2**64})")
    out_dir: str = "runs/latest"
    targets: list[TargetSpec] = field(
        default_factory=lambda: [TargetSpec([[0.0, 0.0]], [1.0], [1.0])]
    )
    field_source: str = _key("oracle", ("oracle", "learned"))
    field_checkpoints: Optional[list[str]] = None
    policy_checkpoint: Optional[str] = None
    init_r_target: float = _key(0.75, "(0, 1)")
    policy_hidden: list[int] = _key([32], "[1, inf)")
    flow_hidden: list[int] = _key([64, 64], "[1, inf)")
    flow_steps: int = _key(5000, "[1, inf)")
    flow_batch: int = _key(256, "[1, inf)")
    flow_lr: float = _key(1e-3, "(0, inf)")
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    rl: RLConfig = field(default_factory=RLConfig)
    eval_rollouts: int = _key(DESK_EVAL_ROLLOUTS, "[1, inf)")

    def __post_init__(self):
        _check_fields(self)
        if not self.targets:
            raise ValueError("at least one target required")
        paths = self.field_checkpoints
        if paths is not None and len(paths) != len(self.targets):
            raise ValueError(f"field_checkpoints lists {len(paths)} paths for "
                             f"{len(self.targets)} targets; it needs one per target")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["targets"] = [{f.name: getattr(t, f.name).tolist() for f in dataclasses.fields(_Target)}
                          for t in self.targets]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(_known_keys(cls, data, "the document"))
        for key, section in (("schedule", ScheduleConfig), ("rl", RLConfig)):
            if key in data:
                data[key] = section(**_known_keys(section, data[key], f"'{key}'"))
        if isinstance(data.get("targets"), list):  # anything else fails its type check
            data["targets"] = [_Target.spec(t, f"targets[{i}]") for i, t in enumerate(data["targets"])]
        return cls(**data)

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


def _is(value, kind: str) -> bool:
    """Whether value has the annotated type kind: an int is never a bool, a float
    is a finite int or float, and a list is checked item by item."""
    if kind.startswith("Optional["):
        return value is None or _is(value, kind[9:-1])
    if kind.startswith("list["):
        return isinstance(value, list) and all(_is(item, kind[5:-1]) for item in value)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        return (_is(value, "int") or isinstance(value, float)) and abs(value) <= sys.float_info.max
    return type(value).__name__ == kind  # str, TargetSpec or a section


def _within(value, rule) -> bool:
    """Whether value lies in an interval such as "(0, 0.1]" or is in a tuple."""
    if isinstance(rule, tuple):
        return value in rule
    lo, hi = (float(bound) for bound in rule[1:-1].split(","))
    return ((lo < value if rule[0] == "(" else lo <= value)
            and (value < hi if rule[-1] == ")" else value <= hi))


def _check_fields(section) -> None:
    """Reject, naming the key, a field whose value does not have its annotated
    type, or lies (any item of a list) outside its rule."""
    for f in dataclasses.fields(section):
        value, rule = getattr(section, f.name), f.metadata.get("rule")
        items = value if isinstance(value, list) else [value]
        if not _is(value, f.type) or rule and not all(v is None or _within(v, rule) for v in items):
            where = f" in {rule}" if rule else ""
            raise ValueError(f"{f.name} must be {f.type}{where}, got {value!r}")


def _known_keys(cls, data, name: str) -> dict:
    """data, if it is a JSON object with every key cls needs and none it lacks;
    otherwise a ValueError naming `name` and the keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys in {name}: {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is f.default_factory} - set(data)
    if missing:  # a field with no default has MISSING for both
        raise ValueError(f"missing config keys in {name}: {sorted(missing)}")
    return data


def preset_config(preset: str) -> ExperimentConfig:
    """Baseline config for a preset; 'desk' is small-scale, 'paper' keeps the
    published batch size, step count, and learning rate."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    rl, eval_rollouts = PRESETS[preset]
    return ExperimentConfig(rl=RLConfig(**rl), eval_rollouts=eval_rollouts)


def version_string() -> str:
    """Package version plus a git describe of the working tree when available:
    `flowsched-<version>+<describe>`, else `flowsched-<version>`."""
    try:
        described = _git_describe(Path(__file__).resolve().parents[2])
    except OSError:
        described = ""
    return f"flowsched-{PACKAGE_VERSION}" + (f"+{described}" if described else "")


def _git_describe(root: Path) -> str:
    """The stripped output of `git describe --always --dirty --tags` run in
    root, or "" when git exits non-zero or is still running after
    GIT_TIMEOUT_S (it is then killed); an OSError if it cannot start. git is
    started with os.posix_spawnp, its stdout a pipe and its stderr /dev/null,
    because importing subprocess would cost every command about 5 ms."""
    import select  # here, not at the top: only a run stamp starts git

    read_fd, write_fd = os.pipe()
    try:
        try:
            argv = ["git", "-C", str(root), "describe", "--always", "--dirty", "--tags"]
            pid = os.posix_spawnp("git", argv, os.environ,
                                  file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1),
                                                (os.POSIX_SPAWN_OPEN, 2, os.devnull,
                                                 os.O_WRONLY, 0)])
        finally:
            os.close(write_fd)  # git holds its own copy, so the pipe ends when git does
        out, deadline = b"", time.monotonic() + GIT_TIMEOUT_S
        while select.select([read_fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            chunk = os.read(read_fd, 4096)
            if not chunk:  # end of file: git has exited
                break
            out += chunk
        else:  # the deadline passed first; a killed git's exit code is not 0
            import signal

            os.kill(pid, signal.SIGKILL)
        exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(read_fd)
    return out.decode(errors="replace").strip() if exit_code == 0 else ""


def write_run_stamp(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Make the run directory self-describing: resolved config + version."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "resolved_config.json")
    write_atomic(out / "version.txt", version_string() + "\n")
    return out
