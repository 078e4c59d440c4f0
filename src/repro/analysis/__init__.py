"""Static analysis for this repository's own correctness contracts.

The reproduction's load-bearing guarantees — bit-identical digests on
every ingest path, crash safety through the :mod:`repro.fsio` seam, and
typed errors on the data plane — are invariants of the *codebase*,
not of any single function, so unit tests can only catch their
violations after the fact.  This package enforces them mechanically
at review time: a pure-stdlib (``ast`` + ``tokenize``) linter with one
rule per contract, each grounded in a bug this repo has actually
shipped and fixed.

Run it as::

    python -m repro.analysis [--strict] [--json] [paths...]

A finding can be silenced in place with a justification::

    os.replace(a, b)  # repro: ignore[RA01] the seam itself commits here

``--strict`` additionally fails on suppressions that lack a
justification and on suppressions that no longer match any finding, so
silenced findings cannot rot silently.

The rule catalog lives in :mod:`repro.analysis.rules`; the README's
"Static analysis" section documents each rule's historical motivation.
"""

from __future__ import annotations

from .core import (
    Finding,
    Rule,
    RULES,
    SourceModule,
    Suppression,
    analyze_source,
    iter_python_files,
    run_paths,
)
from . import rules as _rules  # noqa: F401  (importing registers the rules)

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "SourceModule",
    "Suppression",
    "analyze_source",
    "iter_python_files",
    "run_paths",
]
