"""Analysis tools: result rendering, simlint, and the runtime sanitizer.

Two halves live here:

* result-side utilities used by the experiments (``tables``,
  ``featurematrix``);
* the simulation-safety toolchain (docs/ANALYSIS.md): **simlint**, an
  AST linter encoding the simulator's determinism/resource invariants
  (``python -m repro.analysis lint``), and **SimSanitizer**, the opt-in
  observe-only runtime checker (``REPRO_SANITIZE=1`` or
  :func:`enable_sanitizer`).
"""

from repro.analysis.featurematrix import FEATURES, SIMULATOR_FEATURES, feature_table
from repro.analysis.findings import Finding, FindingSet
from repro.analysis.registry import all_rules, lint_paths, lint_source
from repro.analysis.sanitizer import (
    SanitizerError,
    SimSanitizer,
    Violation,
    all_violations,
    disable_sanitizer,
    enable_sanitizer,
    sanitizer_enabled,
    sanitizers,
)
from repro.analysis.tables import format_series, format_table

__all__ = [
    "format_table", "format_series", "FEATURES",
    "SIMULATOR_FEATURES", "feature_table",
    "Finding", "FindingSet", "all_rules", "lint_paths", "lint_source",
    "SimSanitizer", "SanitizerError", "Violation",
    "enable_sanitizer", "disable_sanitizer", "sanitizer_enabled",
    "sanitizers", "all_violations",
]
