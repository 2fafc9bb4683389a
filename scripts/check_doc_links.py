#!/usr/bin/env python
"""Check that every relative link in the repo's markdown docs resolves.

Scans the top-level ``*.md`` files and everything under ``docs/`` for
markdown links outside inline code spans, skips external schemes
(http/https/mailto) and pure in-page anchors, and verifies that each
remaining target exists relative to the file containing the link.  Exits
non-zero with one line per broken link, so CI can gate on it.

Usage:  python scripts/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Matches [text](target), [text](<target with spaces>) and
# [text](target "title"); group 1 or 2 is the link target.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(\s*(?:<([^>]+)>|([^)\s]+))(?:\s+\"[^\"]*\")?\s*\)")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")
# An inline code span (`...`, ``...``) on one line: text inside it is code,
# not a link, so a regex such as `x[ab](c|d)` is not checked.
CODE_SPAN = re.compile(r"(`+)[^\n]+?\1")


def markdown_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def broken_links(root: Path) -> list[str]:
    failures = []
    for md_file in markdown_files(root):
        text = CODE_SPAN.sub("", md_file.read_text(encoding="utf-8"))
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1) or match.group(2)
            if target.startswith(EXTERNAL_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                failures.append(
                    f"{md_file.relative_to(root)}: broken link -> {target}"
                )
    return failures


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    failures = broken_links(root)
    for failure in failures:
        print(failure, file=sys.stderr)
    checked = len(markdown_files(root))
    if failures:
        print(f"{len(failures)} broken link(s) across {checked} markdown file(s)")
        return 1
    print(f"all relative links resolve across {checked} markdown file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
