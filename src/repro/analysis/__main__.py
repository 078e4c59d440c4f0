"""``python -m repro.analysis`` — lint the tree against the contract rules.

Exit status: 0 when no unsuppressed finding exists (and, under
``--strict``, no suppression-hygiene finding); 1 otherwise; 2 on usage
errors.  ``--json`` emits a machine-readable report on stdout (findings
sorted by path/line/col/rule, suppressed ones included and flagged) for
CI annotation tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .core import META_RULE_ID, RULES, Finding, run_paths
from . import rules as _rules  # noqa: F401  (register the catalog)

JSON_SCHEMA_VERSION = 1


def _list_rules() -> str:
    lines = [f"{META_RULE_ID}: suppression hygiene (strict mode only)"]
    lines += [f"{r.id}: {r.title}\n    {r.rationale}" for r in RULES.values()]
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based linter for this repo's determinism, "
        "durability, and data-plane contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on unjustified or unused suppression comments",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        findings, checked = run_paths(args.paths, strict=args.strict)
    except (OSError, SyntaxError) as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    active = [f for f in findings if not f.suppressed]
    exit_code = 1 if active else 0

    if args.as_json:
        counts: dict = {}
        for f in active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        print(
            json.dumps(
                {
                    "tool": "repro.analysis",
                    "version": JSON_SCHEMA_VERSION,
                    "strict": bool(args.strict),
                    "checked_files": checked,
                    "counts": {k: counts[k] for k in sorted(counts)},
                    "findings": [
                        {
                            "rule": f.rule,
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "message": f.message,
                            "suppressed": f.suppressed,
                            "justification": f.justification,
                        }
                        for f in findings
                    ],
                    "exit_code": exit_code,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return exit_code

    for f in findings:
        if f.suppressed:
            continue
        print(f.render())
    suppressed = sum(1 for f in findings if f.suppressed)
    label = "strict " if args.strict else ""
    print(
        f"repro.analysis: {checked} files, {len(active)} {label}finding(s), "
        f"{suppressed} suppressed",
        file=sys.stderr,
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
