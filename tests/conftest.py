import os

# One BLAS thread in the test process and in every interpreter it starts, set
# before numpy loads: the package's matrices are small, where a second thread
# only contends with the acceptance gate's fresh-interpreter copy.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

# Derandomized so the whole suite is bit-identical across runs, matching the
# determinism contract the package itself is held to.
settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")
