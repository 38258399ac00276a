"""Lint fixture: every violation suppressed -> zero findings."""

import numpy as np

import repro.obs as obs


class QuietNet(Module):  # noqa: F821
    def __init__(self, rng):
        super().__init__()
        self.scale = np.float64(2.0)  # repro-lint: disable=RA201
        raw = np.float32  # bare disable suppresses all  # repro-lint: disable


def emit(batch):
    obs.metrics.counter("demo.calls").inc()  # repro-lint: disable=RA401
    return batch
