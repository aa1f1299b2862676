"""Every benchmark probe still finds its function and fits its call form.

The benchmark reports a probe whose function was renamed or whose signature
changed as absent rather than failing; this test turns that into a failure of
the package's own suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

from probes import PROBES, Context  # noqa: E402


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_builds_and_runs_once(name, tmp_path):
    _, build = PROBES[name]
    build(Context(7, tmp_path))()
