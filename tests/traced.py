"""The tracemalloc peak of one call, for the tests that bound memory."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """The result of fn(*args, **kwargs) and the peak number of bytes that
    tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
