"""Print the executable lines under ``src/`` that no Tier-1 test reaches.

Run from the repository root (arguments go on to pytest):

    PYTHONPATH=src python tests/coverage_report.py -q

The Tier-1 suite runs in this process under a ``sys.settrace`` tracer that
records the lines of every frame whose code lives under ``src/``. A line is
executable when the compiled file maps an instruction to it. Code run in a
child process is not seen. The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
reached: dict[str, set[int]] = {}


def _line(frame, event, arg):
    reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(str(SRC)):
        return None
    reached.setdefault(name, set()).add(frame.f_lineno)
    return _line


def executable(path: Path) -> set[int]:
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable(path)
        unreached = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        for line in unreached:
            print(f"{path.relative_to(SRC.parent)}:{line}")
    print(f"{total} executable lines under src/, {total - missed} reached, {missed} not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
