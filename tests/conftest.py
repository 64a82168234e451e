import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: the peak bytes traced while ``fn()`` runs.  numpy
    reports its buffers to tracemalloc, so this counts every array the call
    allocates, and nothing allocated before it."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
