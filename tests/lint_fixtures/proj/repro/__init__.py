"""Fixture package tree for the whole-program pass (RA61x/RA80x).

Each module below violates one project rule, except the home packages
``parallel/shm.py``, ``store/`` and ``obs/``, which use the confined
names ``core/engine.py`` misuses and must report nothing. The tests run
``analyze_project`` over this tree and assert the expected findings.
"""
