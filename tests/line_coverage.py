"""Line coverage gate for src/unitring.

    python tests/line_coverage.py

Runs the tier-1 suite in process under a line tracer (sys.settrace and
threading.settrace) that records only frames of src/unitring; pool workers
and subprocesses are not followed.  Hypothesis is derandomized and keeps no
example database, so two runs trace the same lines.  The executable lines
of each module are those that co_lines() of one of its code objects names.

Every line that never ran must be listed in tests/fixtures/unrun_lines.json
with a reason.  An entry names the module, the qualname of the outermost
code object holding the line and the stripped source line, so edits
elsewhere in a file do not shift it.  The gate fails on an unrun line that
is not listed, on a listed line that now runs or no longer exists, on an
entry without a reason, and on any failing test; so the list only shrinks.
Exit status 0 when it passes, 1 otherwise.
"""

import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unitring"
LISTED = ROOT / "tests" / "fixtures" / "unrun_lines.json"


def executable_lines(path):
    """{line number: qualname of the outermost code object naming it}."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    for code in todo:
        for _, _, line in code.co_lines():
            # None marks no line; a module's RESUME sits on line 0.
            if line:
                lines.setdefault(line, code.co_qualname)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


class DeterministicHypothesis:
    """Pytest plugin: Hypothesis derandomized, with no example database
    and no deadline, loaded before any test module is collected."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("line-coverage", derandomize=True, database=None,
                                  deadline=None)
        settings.load_profile("line-coverage")


def traced_tier1(files):
    """(pytest exit status, the set of (file, line) that ran in files)."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    # Subprocess tests import unitring from the checkout too; they run
    # untraced.
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                             plugins=[DeterministicHypothesis()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main():
    paths = sorted(SRC.glob("*.py"))
    status, hits = traced_tier1({str(p) for p in paths})
    unrun = Counter()
    total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line, qualname in lines.items():
            if (str(path), line) not in hits:
                unrun[(path.stem, qualname, source[line - 1].strip())] += 1
    entries = json.loads(LISTED.read_text(encoding="utf-8"))
    listed = Counter((e["module"], e["qualname"], e["source"]) for e in entries)
    new, stale = unrun - listed, listed - unrun
    print(f"line coverage: {total} executable lines in src/unitring, "
          f"{sum(unrun.values())} unrun, {len(entries)} listed")
    for (module, qualname, text), k in sorted(new.items()):
        print(f"unrun and not listed ({k}x): "
              + json.dumps({"module": module, "qualname": qualname, "source": text, "reason": ""}))
    for (module, qualname, text), k in sorted(stale.items()):
        print(f"listed but run or gone ({k}x): {module} {qualname}: {text}")
    unexplained = [e for e in entries if not e.get("reason", "").strip()]
    for e in unexplained:
        print(f"listed without a reason: {e['module']} {e['qualname']}: {e['source']}")
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit {status})")
    return 1 if new or stale or unexplained or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
