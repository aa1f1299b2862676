"""Span tracer that wraps flowsched's public functions from outside.

Every public module-level function of each ``flowsched`` module, and the
``forward``/``backward``/``__call__``/``child`` methods of its classes, is
replaced by a wrapper that records a span. Each span is attributed to the
module that defines the function. A span stack gives self time: a span's
duration minus the durations of its direct child spans. Names a module
imported with ``from ... import`` are re-bound to the wrapper as well, so
calls between modules are seen. The package source is not modified.

Run as a script, it traces one CLI invocation and writes the totals as JSON:

    python3 benchmark/tracer.py TRACE.json train-tpm --config cfg.json
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

METHODS = ("forward", "backward", "__call__", "child")
# Modules whose self time and calls are reported, and the reported phases.
LAYERS = ("special_math", "rng", "nn", "flow", "policy", "sampler", "rl", "config")
SHARES = ("rollout", "ppo_loss", "optimizer", "checkpoint")
# The train_tpm phases whose shares are reported: a span counts towards a
# phase only inside train_tpm and only when no other phase span encloses it.
PHASE_ROOT = ("rl", "train_tpm")
PHASES = {
    ("rl", "rollout_group"): "rollout",
    ("rl", "ppo_loss"): "ppo_loss",
    ("nn", "clip_global_norm"): "optimizer",
    ("nn", "adamw_step"): "optimizer",
    ("policy", "save_policy"): "checkpoint",
}
# Any sampler function called straight from train_tpm is rollout work too, so
# the rollout share survives a batch-first sampler replacing rollout_group.
ROLLOUT_MODULE = "sampler"


class Tracer:
    """Accumulates per-module self time and call counts of wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.phase_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list[float]] = []  # child time of each open span
        self._root_depth = 0
        self._phase_depth = 0

    def wrap(self, fn, layer: str, name: str):
        """A traced stand-in for fn, attributed to `layer`."""
        phase = PHASES.get((layer, name))
        if phase is None and layer == ROLLOUT_MODULE:
            phase = "rollout"
        is_root = (layer, name) == PHASE_ROOT
        stack, clock = self._stack, self.clock
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            counted = phase is not None and self._root_depth and not self._phase_depth
            if phase is not None:
                self._phase_depth += 1
            if is_root:
                self._root_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                calls[layer] += 1
                if phase is not None:
                    self._phase_depth -= 1
                    if counted:
                        self.phase_s[phase] += dur
                if is_root:
                    self._root_depth -= 1
                    if not self._root_depth:
                        self.root_s += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> int:
        """Wrap every public function of every module of `package`; returns
        the number of functions and methods wrapped."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}  # id(original function) -> its wrapper
        methods = 0
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(obj, layer, name)
                    setattr(mod, name, wrappers[id(obj)])
                elif inspect.isclass(obj):
                    for meth in METHODS:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(fn, layer, meth))
                            methods += 1
        # re-bind names other modules took with `from ... import`
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        return len(wrappers) + methods

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "phase_s": dict(self.phase_s),
            "train_tpm_s": self.root_s,
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import flowsched
    import flowsched.cli

    tracer = Tracer()
    wrapped = tracer.install(flowsched)
    start = time.perf_counter()
    code = flowsched.cli.main(cli_args)
    report = tracer.report()
    report.update(wrapped=wrapped, traced_main_s=time.perf_counter() - start)
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
