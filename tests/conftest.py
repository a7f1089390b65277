import math

import numpy as np
import pytest
from hypothesis import settings

from lfsym.families import Family

# Fixed examples, so that a failure in CI reproduces anywhere; selected with
# pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, print_blob=True)


class ZeroFamily(Family):
    """Stub with identically vanishing coefficients (CM-like edge case)."""

    def __init__(self, n_members: int = 5, log_cond: float = math.log(50)):
        self.n = n_members
        self._logc = log_cond
        self.family_id = f"zero({n_members})"
        self.degree = 2

    def iter_members(self):
        return iter(range(self.n))

    def _member_bs(self, members, primes, nu_max):
        for _ in primes:
            yield np.ones(len(members), dtype=bool), np.zeros((nu_max, len(members)))

    def log_conductor(self, member):
        return self._logc


@pytest.fixture
def zero_family():
    return ZeroFamily()
