import os
import time

# Keep BLAS reductions deterministic; must run before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import pytest  # noqa: E402

from vindet import tensor as T  # noqa: E402
from vindet.gradcheck import run_primitive_suite  # noqa: E402

# The 16x16 test model with a batch of 2, as config-file text; a test file
# appends only the keys of its own.
TINY_MODEL = """\
geometry.height = 16
geometry.width = 16
geometry.views = 1,2
encoder.dims = 8,8
encoder.depths = 1,1
encoder.heads = 2,2
encoder.window = 2
global.patch = 8
global.dim = 8
global.depth = 1
dwti.common_dim = 8
dwti.window = 2
decoder.channels = 8,8
train.batch = 2
"""


@pytest.fixture(scope="session")
def primitive_suite():
    """Criterion 1's run of the primitive gradient suite, made once per
    session: (reports by case name, seconds taken)."""
    t0 = time.time()
    reports = run_primitive_suite(seeds=10, eps=1e-6, tol=1e-5)
    return reports, time.time() - t0


@pytest.fixture
def float64():
    """Run the test in float64: for a gradient check, or a comparison of two
    float computations made at float64 precision."""
    with T.float64_scope():
        yield
