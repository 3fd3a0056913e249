import os

# Keep BLAS reductions deterministic; must run before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import pytest  # noqa: E402

from vindet import tensor as T  # noqa: E402


@pytest.fixture
def float64():
    """Run the test in float64: for a gradient check, or a comparison of two
    float computations made at float64 precision."""
    with T.float64_scope():
        yield
