"""The lines of src/zetaforge that no tier-1 test runs.

Runs the test suite in this process, as the tier-1 step does
(pytest -q -W error), records each line of the package that executes,
and prints the lines that never ran.  Each of those must be listed in
linemap_allow.json next to this file, keyed by file name and stripped
source text (not by line number, so an edit elsewhere in the file keeps
the entry), with the reason it may stay unrun.  The exit status is 1
when the tests fail, when an unrun line is not listed, or when a listed
line ran or is gone, so the list can only shrink with the code.

A line counts when it carries bytecode in the compiled file.  Python
3.12 and later record lines with sys.monitoring, which turns each line's
event off after its first hit, so the run costs little more than the
tests; 3.10 and 3.11 have only sys.settrace, which takes several times
as long.

Usage, from the repository root:  python tests/linemap.py
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from types import CodeType

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "zetaforge")
ALLOW = os.path.join(TESTS, "linemap_allow.json")


def executable_lines(path: str) -> set[int]:
    """The lines of a source file that carry bytecode, over all its code
    objects."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def run_tests(files: dict[str, str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status on tier-1, and the (file name, line) pairs of
    the package that ran.  files maps each real path to its file name;
    a code object's path is looked up once."""
    hits: set[tuple[str, int]] = set()
    names: dict[str, str | None] = {}

    def name_of(code):
        path = code.co_filename
        if path not in names:
            names[path] = files.get(os.path.realpath(path))
        return names[path]

    args = ["-q", "-W", "error", "-p", "no:cacheprovider", TESTS]
    if sys.version_info >= (3, 12):
        mon = sys.monitoring
        tool = mon.COVERAGE_ID

        def line(code, lineno):
            name = name_of(code)
            if name:
                hits.add((name, lineno))
            return mon.DISABLE  # one event per line is enough

        mon.use_tool_id(tool, "linemap")
        mon.register_callback(tool, mon.events.LINE, line)
        mon.set_events(tool, mon.events.LINE)
        try:
            status = pytest.main(args)
        finally:
            mon.set_events(tool, mon.events.NO_EVENTS)
            mon.free_tool_id(tool)
    else:
        def call(frame, event, arg):
            name = name_of(frame.f_code)
            if name is None:
                return None

            def local(frame, event, arg):
                if event == "line":
                    hits.add((name, frame.f_lineno))
                return local
            return local

        sys.settrace(call)
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
    return int(status), hits


def main() -> int:
    files = {os.path.realpath(os.path.join(PACKAGE, name)): name
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    status, hits = run_tests(files)
    with open(ALLOW, encoding="utf-8") as fh:
        entries = json.load(fh)
    listed = Counter((e["file"], e["line"]) for e in entries)
    reasons = {(e["file"], e["line"]): e["reason"] for e in entries}
    unrun, total = [], 0
    for path, name in files.items():  # in file-name order
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unrun += [(name, n, text[n - 1].strip())
                  for n in sorted(lines) if (name, n) not in hits]
    print(f"\n{total - len(unrun)} of {total} executable lines in "
          f"src/zetaforge ran; {len(unrun)} did not:")
    for name, n, source in unrun:
        reason = reasons.get((name, source), "NOT LISTED")
        print(f"  {name}:{n}: {source}  -- {reason}")
    left = Counter((name, source) for name, _, source in unrun)
    unlisted, stale = left - listed, listed - left
    for name, source in stale:
        print(f"  listed but ran or gone: {name}: {source}")
    print(f"tests exit {status}; {sum(unlisted.values())} unrun lines not "
          f"listed; {len(stale)} listed lines that ran or are gone")
    return int(bool(status or unlisted or stale))


if __name__ == "__main__":
    sys.exit(main())
