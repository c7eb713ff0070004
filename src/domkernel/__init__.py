"""Kernelization for black/white dominating set on sparse graphs."""

from .engine import ALL_CONFIGS, ApproachConfig, KernelReport, kernelize
from .exact import ExactResult, OracleSizeError, exact_dom
from .graph import BLACK, WHITE, ColoredGraph, Instance, is_1_scattered

__all__ = [
    "ALL_CONFIGS",
    "ApproachConfig",
    "BLACK",
    "ColoredGraph",
    "ExactResult",
    "Instance",
    "KernelReport",
    "OracleSizeError",
    "WHITE",
    "exact_dom",
    "is_1_scattered",
    "kernelize",
]
