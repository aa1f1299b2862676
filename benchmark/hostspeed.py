"""Host speed, measured between the benchmark's timed processes.

The shared hosts this benchmark runs on change speed by tens of percent,
from one second to the next and for minutes at a time: a 6-step train-tpm
invocation pinned to one CPU had 30-second medians from 1.2 to 1.9 s, with
no other process of ours running. Medians over a run cannot average that
away. So the benchmark keeps itself and its children on one CPU and times
``loop`` (fixed Python and numpy work, no flowsched code) right before and
right after every process it starts; ``at_ref`` turns the process's wall
time into seconds at the reference speed, at which ``loop`` takes ``REF_S``.
On the recording above the medians of the scaled times spread 4% where the
raw ones spread 18% (quartile distance over median). A change to the
program moves the scaled times as it moves the raw ones; the host's phase
moves both ``loop`` and the program, and cancels. Raw times stay in
result.json.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Seconds `loop` takes at the reference speed: about its median on the
# 2-vCPU Xeon the benchmark was tuned on, so scaled times read like that
# host's wall times.
REF_S = 0.09
REPS = 10

_gen = np.random.default_rng(0)
_W = _gen.standard_normal((64, 64))
_X1 = _gen.standard_normal((1, 64))
_X256 = _gen.standard_normal((256, 64))


def loop() -> float:
    """Seconds of one fixed mix of the work flowsched does: batch-1 and
    batch-256 64x64 layers and interpreted Python bookkeeping."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REPS):
        for _ in range(400):
            acc += float(np.tanh(_X1 @ _W)[0, 0])
            row = {j: j * 0.5 + acc for j in range(40)}
            acc += sum(row.values()) * 1e-9
        for _ in range(40):
            acc += float(np.tanh(_X256 @ _W).sum()) * 1e-9
    return time.perf_counter() - start


def pin_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that
    `loop` times the CPU that runs the program (the two CPUs of a shared
    host change speed independently)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_ref(wall_s: float, loop_s: float) -> float:
    """`wall_s` measured while `loop` took `loop_s`, in seconds at the
    reference speed."""
    return wall_s * REF_S / loop_s
