"""RA610 fixture: a core module driving the process fan-out layer."""

from repro.parallel import shm


def _shared_batches(name):
    return shm._attach(name)
