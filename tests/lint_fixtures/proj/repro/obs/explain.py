"""Home-package fixture: the rest of repro.obs may use DecisionRecord."""

from repro.obs import provenance
from repro.obs.provenance import DecisionRecord


def _rebuild(key):
    return DecisionRecord(*key), provenance.DecisionRecord(*key)
