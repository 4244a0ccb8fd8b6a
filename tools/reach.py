"""Statement reach check for every layer a test drives.

Runs pytest in this process under a ``sys.settrace`` line collector that
traces only ``src/repro/{sim,serve,cluster,obs,db,core,micro,tcm,
workloads}``, then lists every statement there that no test executed.
Stdlib only: ``coverage`` is not a dependency of this project.

``analysis/`` is not traced: its ablations run only under
``benchmarks/``, so the test suite alone would report them unreached.
The top-level modules (``cli.py``, ``bench.py``, ``config.py`` and the
rest) are not traced either.

A statement is unreached when none of its executable lines ran.  Its
executable lines come from the compiled code objects (``co_lines()``);
each line belongs to the innermost statement that spans it, so a
``raise`` split over three lines is one unreached statement, and a
compound statement's header is separate from its body.

Unreached statements are compared with an allowlist keyed by file and
the statement's stripped first source line, never by line number, so
edits elsewhere in a file do not churn it.  Each allowlist entry covers
one occurrence; list a text twice to cover two.  Lines starting with
``## `` open a group and give the reason for every entry under it.

Usage::

    python tools/reach.py                      # the whole tests tree
    python tools/reach.py -- tests/serve -x    # explicit pytest args
    python tools/reach.py --write              # rewrite the allowlist

Exits 1 when pytest fails or a statement outside the allowlist is
unreached, 0 otherwise.  Allowlisted statements that a test now reaches
are listed too, so the allowlist can be pruned, but do not fail the run.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGES = ("sim", "serve", "cluster", "obs", "db", "core", "micro", "tcm",
            "workloads")
TARGETS = tuple(os.path.join(SRC, "repro", pkg) + os.sep for pkg in PACKAGES)
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")
#: The whole suite: a statement only some other test directory reaches
#: is still reached.
DEFAULT_TESTS = ("tests",)

#: Group headings ``--write`` files entries under.
GROUPS = {
    "raise": "input validation and error raises: a caller passed a bad "
             "argument or config, or an invariant broke",
    "repr": "__repr__ and __str__: debugging aids no report calls",
    "typing": "TYPE_CHECKING imports: read by type checkers only",
    "other": "not yet reached by a test: delete, or give a test "
             "(ROADMAP item 4)",
}


def collect(pytest_args: list) -> tuple[int, set]:
    """Run pytest under the line collector; returns its exit code and
    the ``(filename, line)`` pairs executed in the traced packages."""
    hits: set = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(TARGETS):
            add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _code_lines(code) -> set:
    lines = set()
    for _, _, line in code.co_lines():
        if line:
            lines.add(line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: str) -> list:
    """``(first line, group, executable lines)`` per statement of
    ``path`` that owns at least one executable line."""
    source = open(path, encoding="utf-8").read()
    executable = _code_lines(compile(source, path, "exec"))
    owner: dict = {}
    info: dict = {}

    def visit(node, group):
        for child in ast.iter_child_nodes(node):
            child_group = group
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(
                    child.test):
                child_group = "typing"
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and child.name in ("__repr__", "__str__")):
                child_group = "repr"
            if isinstance(child, ast.stmt):
                first = min([child.lineno] + [
                    d.lineno for d in getattr(child, "decorator_list", ())])
                info[child] = (first, child_group)
                for line in range(first, child.end_lineno + 1):
                    owner[line] = child
            visit(child, child_group)

    visit(ast.parse(source), "other")
    owned: dict = {}
    for line in executable:
        node = owner.get(line)
        if node is not None:
            owned.setdefault(node, set()).add(line)
    return [(info[node][0], info[node][1], lines)
            for node, lines in owned.items()]


def unreached(hits: set) -> list:
    """``(path, line, text, group)`` for every unreached statement."""
    ran: dict = {}
    for filename, line in hits:
        ran.setdefault(filename, set()).add(line)
    found = []
    for pkg in PACKAGES:
        for dirpath, _, names in sorted(os.walk(os.path.join(SRC, "repro",
                                                             pkg))):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                lines = open(path, encoding="utf-8").read().splitlines()
                seen = ran.get(path, set())
                rel = os.path.relpath(path, os.path.join(SRC, "repro"))
                for first, group, own in statements(path):
                    if own & seen:
                        continue
                    text = lines[first - 1].strip()
                    if group == "other" and text.startswith("raise"):
                        group = "raise"
                    found.append((rel, first, text, group))
    return sorted(found)


def read_allowlist(path: str) -> Counter:
    allowed: Counter = Counter()
    for raw in open(path, encoding="utf-8"):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        rel, sep, text = line.partition(" | ")
        if not sep:
            raise SystemExit(f"reach: malformed allowlist line: {line!r}")
        allowed[(rel.strip(), text.strip())] += 1
    return allowed


def write_allowlist(path: str, found: list) -> None:
    header = [
        "# Statements under src/repro/{" + ",".join(PACKAGES) + "}",
        "# that no test under tests/ executes (see tools/reach.py).",
        "# Entry: '<path under src/repro> | <stripped first line>', one per",
        "# occurrence; '## <reason>' opens a group.  Regenerate with",
        "#   python tools/reach.py --write",
        "# and keep every group's reason true.  Written on Python "
        f"{sys.version_info.major}.{sys.version_info.minor}: executable lines",
        "# differ between versions, so check on that version.",
    ]
    out = header
    for group, reason in GROUPS.items():
        entries = [f"{rel} | {text}" for rel, _, text, g in found
                   if g == group]
        if entries:
            out += ["", f"## {reason}"] + entries
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="List statements of the traced packages that no "
                    "test executes, against a committed allowlist.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the allowlist with every unreached "
                             "statement instead of checking")
    parser.add_argument("pytest_args", nargs="*",
                        help="after '--': pytest arguments (default: the "
                             "whole tests tree)")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    # One -q: the project's addopts already adds one, and -qq hides the
    # pass/fail count line.
    pytest_args = ["-o", "addopts=", "-q", "-p", "no:cacheprovider",
                   *(args.pytest_args or DEFAULT_TESTS)]
    code, hits = collect(pytest_args)
    found = unreached(hits)
    if args.write:
        write_allowlist(ALLOWLIST, found)
        print(f"reach: wrote {len(found)} unreached statements to "
              f"{os.path.relpath(ALLOWLIST, ROOT)}")
        return code
    allowed = read_allowlist(ALLOWLIST)
    keys = Counter((rel, text) for rel, _, text, _ in found)
    new_keys = keys - allowed
    stale = allowed - keys
    new = []
    for rel, line, text, _ in found:
        if new_keys[(rel, text)] > 0:
            new_keys[(rel, text)] -= 1
            new.append(f"  src/repro/{rel}:{line}: {text}")
    print(f"reach: {len(found)} unreached statements, "
          f"{len(found) - len(new)} allowlisted, {len(new)} new")
    if stale:
        print("reach: allowlisted but now reached (prune these):")
        for (rel, text), n in sorted(stale.items()):
            print(f"  {rel} | {text}" + (f"  (x{n})" if n > 1 else ""))
    if new:
        print("reach: unreached and not allowlisted:")
        print("\n".join(new))
    if code != 0:
        print(f"reach: pytest exited {code}")
    return 1 if new or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
