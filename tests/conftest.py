import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): the peak of the memory fn(*args) allocates, in bytes, under tracemalloc."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
