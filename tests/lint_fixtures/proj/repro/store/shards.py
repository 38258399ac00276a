"""Home-package fixture: memory mapping is used where it is confined."""

import mmap
import numpy as np
import numpy.lib.format
from numpy import memmap
from numpy.lib import format


def _map(path):
    return np.memmap(path, dtype="<f4", mode="r")


def _open(path):
    return np.lib.format.open_memmap(path, mode="r")


def _names():
    return mmap, numpy, memmap, format
