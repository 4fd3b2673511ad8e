"""``python -m repro.statics``: run every checker, gate on findings.

Exit status is 0 only when no unsuppressed finding remains, which is what the
CI ``statics`` leg keys on.  ``--json`` emits the machine format (one object
with ``findings``/``suppressed``/``ok``); see docs/statics.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from .base import RULE_DOCS, Finding, Project, apply_pragmas, default_project
from .contracts import check_contracts
from .determinism import check_determinism

#: The checker families, in report order.
CHECKERS = (
    ("determinism", check_determinism),
    ("contracts", check_contracts),
)


def run_all(project: Project | None = None) -> tuple[list[Finding], list[Finding]]:
    """Run every checker family; returns ``(active, suppressed)`` findings."""
    project = project if project is not None else default_project()
    findings: list[Finding] = []
    for _, checker in CHECKERS:
        findings.extend(checker(project))
    active, suppressed = apply_pragmas(project, findings)
    order = {rule: index for index, rule in enumerate(RULE_DOCS)}
    key = lambda f: (f.file, f.line, order.get(f.rule, len(order)))  # noqa: E731
    return sorted(active, key=key), sorted(suppressed, key=key)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statics",
        description="Determinism & process-pool contract static analysis "
        "(see docs/statics.md).",
    )
    parser.add_argument(
        "command", nargs="?", choices=("check",), default="check",
        help="check (the default) runs every checker",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="audit a repro-shaped tree at DIR instead of the installed "
        "package (used by the self-tests)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable format"
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by pragmas, with their reasons",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list every rule and exit"
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule, doc in RULE_DOCS.items():
            print(f"{rule}: {doc}")
        return 0

    project = Project(options.root) if options.root else default_project()

    active, suppressed = run_all(project)
    if options.json:
        print(json.dumps({
            "ok": not active,
            "findings": [finding.to_payload() for finding in active],
            "suppressed": [finding.to_payload() for finding in suppressed],
        }, indent=2))
        return 1 if active else 0

    for finding in active:
        print(finding.render())
    if options.show_suppressed:
        for finding in suppressed:
            print(f"{finding.render()} -- {finding.reason}")
    if active:
        print(f"\n{len(active)} finding(s), {len(suppressed)} suppressed.")
        return 1
    print(f"statics: clean ({len(suppressed)} finding(s) suppressed by pragma).")
    return 0
