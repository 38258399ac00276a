"""Home-package fixture: multiprocessing is used where it is confined."""

import multiprocessing
from multiprocessing import shared_memory


def _attach(name):
    return shared_memory.SharedMemory(name=name)


def _context():
    return multiprocessing.get_context("spawn")
