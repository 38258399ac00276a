"""RA613 fixture: contract-confined names used outside their homes."""

import mmap
import multiprocessing
import multiprocessing.pool  # repro-lint: disable=RA613 suppression covers project findings
import numpy as np
import numpy.lib.format
from multiprocessing import shared_memory
from numpy import memmap
from numpy.lib import format

from repro.obs import provenance
from repro.obs.provenance import DecisionRecord


def _fan_out():
    # An alias of a confined module was reported at its import.
    return multiprocessing.cpu_count(), shared_memory.SharedMemory


def _load_payload(path):
    return np.memmap(path, dtype="<f4", mode="r")


def _open_shard(path):
    return np.lib.format.open_memmap(path, mode="r")


def _rogue_records(sentence_id):
    first = DecisionRecord(sentence_id=sentence_id, mention_index=0)
    second = provenance.DecisionRecord(sentence_id=sentence_id, mention_index=1)
    return first, second, mmap, numpy, memmap, format
