"""Violation reporters: text and SARIF.

The SARIF 2.1.0 document is what the CI lint job uploads to GitHub code
scanning, turning findings into PR annotations at the exact line.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Any, TextIO

from .base import UNUSED_ALLOW_RULE, Violation
from .passes import PASSES

__all__ = ["report_text", "report_sarif"]


def report_text(violations: Sequence[Violation], out: TextIO) -> None:
    """``path:line: rule message`` per finding, plus a summary line."""
    for v in violations:
        out.write(v.format() + "\n")
    n = len(violations)
    if n:
        rules = sorted({v.rule for v in violations})
        out.write(f"found {n} violation{'s' if n != 1 else ''} "
                  f"({', '.join(rules)})\n")
    else:
        out.write("clean: no violations\n")


def report_sarif(violations: Sequence[Violation], out: TextIO) -> None:
    """SARIF 2.1.0 for GitHub code scanning (PR annotations).

    One run, one ``repro-lint`` driver; every rule any pass can emit is
    declared in ``rules`` (so suppressed-to-zero rules still appear in
    the code-scanning UI), and each result carries a repo-relative
    artifact location.
    """
    index = {UNUSED_ALLOW_RULE: "An allow comment that suppressed nothing."}
    for cls in PASSES:
        index.update(cls.rules)
    rules: list[dict[str, Any]] = [
        {
            "id": rule,
            "shortDescription": {"text": rule},
            "fullDescription": {"text": text},
            "helpUri": (
                "https://github.com/"  # resolved by code scanning relative
                # to the repo; docs live in-tree:
                "../blob/main/docs/STATIC_ANALYSIS.md"
            ),
        }
        for rule, text in sorted(index.items())
    ]
    results = [
        {
            "ruleId": v.rule,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": v.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(v.line, 1)},
                    }
                }
            ],
        }
        for v in violations
    ]
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "docs/STATIC_ANALYSIS.md"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")
