"""Exact invariants of the unitriangular action on nilradicals of parabolics in gl(n)."""

__version__ = "0.1.0"
