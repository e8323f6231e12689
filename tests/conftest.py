"""Shared test setup.

The first integrator or root-finder call in a process pays a one-time setup
cost (cffi type caches, code objects).  Warm those up once per
session so the acceptance criteria's runtime budgets measure the actual
computations rather than library cold-start.
"""

import numpy as np
import pytest

from switchlayer import (
    IntegratorConfig,
    SigmoidSpec,
    find_sliding_modes,
    integrate_regularized,
    make_example1,
)


@pytest.fixture(autouse=True, scope="session")
def _warm_up_solvers():
    sys_ = make_example1("filippov")
    find_sliding_modes(sys_, np.array([0.0]))
    integrate_regularized(sys_, SigmoidSpec("piecewise_linear", eps=0.05),
                          np.array([0.0, 0.0]), (0.0, 0.2),
                          IntegratorConfig(max_step=0.05))
