"""The simulation-safety toolchain (docs/ANALYSIS.md).

**simlint**, an AST linter encoding the simulator's determinism and
resource invariants (``python -m repro.analysis lint``), and
**SimSanitizer**, the opt-in observe-only runtime checker
(``REPRO_SANITIZE=1`` or :func:`enable_sanitizer`).  Result rendering
lives with the experiments (:mod:`repro.experiments.formatting`,
:mod:`repro.experiments.featurematrix`).
"""

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

__all__ = [
    "Finding", "FindingSet", "all_rules", "lint_paths", "lint_source",
    "SimSanitizer", "SanitizerError", "Violation",
    "enable_sanitizer", "disable_sanitizer", "sanitizer_enabled",
    "sanitizers", "all_violations",
]
