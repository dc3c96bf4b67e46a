#!/usr/bin/env python
"""Fail if hand-rolled durability appears outside ``repro.util.durable``.

Every durable file in ``repro`` follows one crash contract (the "Crash
contract" section of ``docs/ARCHITECTURE.md``), implemented once in
``src/repro/util/durable.py``.  This check walks the AST of every other
module under ``src/repro`` and flags::

    os.fsync(fd)                    # use append_line / publish
    fh.truncate(n)                  # use repair_tail (writers only)
    os.replace(a, b), os.rename(a, b)
    path.with_suffix(".tmp")        # any ".tmp" string: use publish

A ``".tmp"`` literal is how a tmp + rename publish names its scratch
file, so any string constant containing it is flagged (docstrings are
prose and skipped).  Code that needs the tmp suffix, such as a stale-tmp
sweep, imports ``TMP_SUFFIX`` from the module.  There is no escape
marker.

Run from the repo root (CI does)::

    python tools/check_durability.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
ALLOWED = PACKAGE / "util" / "durable.py"

#: Method names whose call is flagged on any receiver.
FORBIDDEN_METHODS = {
    "fsync": "fsync outside repro.util.durable -- use append_line/publish",
    "truncate": "truncate outside repro.util.durable -- use repair_tail",
}
#: ``os.<name>`` calls that publish by rename.
FORBIDDEN_OS_RENAMES = ("replace", "rename")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                ids.add(id(body[0].value))
    return ids


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = _docstrings(tree)
    rel = path.relative_to(REPO_ROOT)
    problems: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func.attr
            if attr in FORBIDDEN_METHODS:
                problems.append(
                    f"{rel}:{node.lineno}: {FORBIDDEN_METHODS[attr]}"
                )
            elif (
                attr in FORBIDDEN_OS_RENAMES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                problems.append(
                    f"{rel}:{node.lineno}: os.{attr} publish outside "
                    "repro.util.durable -- use publish"
                )
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ".tmp" in node.value
            and id(node) not in docstrings
        ):
            problems.append(
                f"{rel}:{node.lineno}: '.tmp' tmp+rename publish outside "
                "repro.util.durable -- use publish (or TMP_SUFFIX)"
            )
    return problems


def main() -> int:
    problems: list[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != ALLOWED:
            problems += check_file(path)
    for line in problems:
        print(line)
    if problems:
        print(f"durability: {len(problems)} hand-rolled site(s)")
        return 1
    print("durability: all fsync/truncate/tmp publishes in repro.util.durable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
