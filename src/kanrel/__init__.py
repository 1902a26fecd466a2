"""Typed relational programming kit.

Relations over algebraic data types are written once and run in two ways: a
reference interpreter that searches with interleaving streams, and a compiler
that turns each (relation, mode) pair into a directed procedure after mode
and determinism analysis.
"""

from __future__ import annotations

__version__ = "0.1.0"
