"""Line census: which executable lines of ``src/repro`` ever run.

A stdlib-only line collector (``sys.settrace`` plus ``threading.settrace``
for threads started while it runs).  Runs accumulate into one JSON file of
executed lines, so a census can span the test suite, the examples and the
experiment runner; ``report`` then counts, per module, the executable lines
no run reached.  Code that runs only in a child process (process-pool and
cluster workers, the ``repro.cli gateway`` subprocess) is not followed.

As a pytest plugin (``tools`` on the path)::

    PYTHONPATH=src:tools python -m pytest -q -p census --census census.json

As a wrapper around a script or a module::

    PYTHONPATH=src python tools/census.py run --out census.json examples/quickstart.py
    PYTHONPATH=src python tools/census.py run --out census.json \\
        -m repro.experiments.runner --all --scale smoke

Then::

    python tools/census.py report --out census.json [--top 15]
"""

from __future__ import annotations

import argparse
import dis
import json
import runpy
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
_PREFIX = str(PACKAGE)


class Census:
    """Collects ``{file: {line, ...}}`` for files under ``src/repro``."""

    def __init__(self) -> None:
        self.lines: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(_PREFIX):
            return None
        seen = self.lines.setdefault(filename, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def merge_into(self, path: Path) -> None:
        """Union this run's lines into the JSON file at ``path``."""
        merged: dict[str, set[int]] = {}
        if path.exists():
            merged = {f: set(ls) for f, ls in json.loads(path.read_text()).items()}
        for filename, seen in self.lines.items():
            rel = str(Path(filename).relative_to(PACKAGE.parent))
            merged.setdefault(rel, set()).update(seen)
        path.write_text(
            json.dumps({f: sorted(ls) for f, ls in sorted(merged.items())})
        )


def executable_lines(path: Path) -> set[int]:
    """Line numbers where the module's bytecode (nested code too) starts."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def report(path: Path, top: int) -> None:
    executed = {f: set(ls) for f, ls in json.loads(path.read_text()).items()}
    rows = []
    for source in sorted(PACKAGE.rglob("*.py")):
        rel = str(source.relative_to(PACKAGE.parent))
        lines = executable_lines(source)
        rows.append((len(lines - executed.get(rel, set())), len(lines), rel))
    missed = sum(r[0] for r in rows)
    total = sum(r[1] for r in rows)
    print(f"{missed} of {total} executable lines never ran ({len(rows)} modules)")
    for n_missed, n_lines, rel in sorted(rows, reverse=True)[:top]:
        if n_missed:
            print(f"{n_missed:6d} / {n_lines:<5d} {rel}")


# -- pytest plugin ----------------------------------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--census",
        metavar="PATH",
        help="accumulate executed src/repro lines into this JSON file",
    )


class _PytestCensus:
    """The census of one pytest session, registered by ``--census``."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.census = Census()
        self.census.start()

    def pytest_unconfigure(self, config):
        self.census.stop()
        self.census.merge_into(self.path)


def pytest_configure(config):
    path = config.getoption("--census")
    if path:
        config.pluginmanager.register(_PytestCensus(Path(path)), "census-session")


# -- command line -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int | str | None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a script or -m module under the census")
    run.add_argument("--out", type=Path, default=Path("census.json"))
    run.add_argument("-m", dest="module", action="store_true", help="run a module")
    run.add_argument("target", help="script path, or module name with -m")
    run.add_argument("args", nargs=argparse.REMAINDER)
    rep = sub.add_parser("report", help="per-module counts of lines never run")
    rep.add_argument("--out", type=Path, default=Path("census.json"))
    rep.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    if args.command == "report":
        report(args.out, args.top)
        return 0
    sys.argv = [args.target, *args.args]
    census = Census()
    census.start()
    try:
        if args.module:
            runpy.run_module(args.target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(args.target, run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        census.stop()
        census.merge_into(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
