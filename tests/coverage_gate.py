"""Line-coverage gate: run the test suite and fail if a line of tunelz runs in no test.

    PYTHONPATH=src python tests/coverage_gate.py

The suite runs in this process, under pytest with a fixed Hypothesis
seed, so that the lines it reaches are the same on every run.  A line
counts when a statement of ``src/tunelz`` starts on it and the compiler
gave it code; one that runs only in a child process, such as a test's
``python -m tunelz.cli``, does not count.  Python 3.12 and later watch
``sys.monitoring`` LINE events, each switched off after its first hit,
which costs the suite almost nothing; 3.11 uses ``sys.settrace``, under
which the suite runs about 2.5 times as long.  Exit 0 when every line ran; else
exit 1 after one ``path:line: source`` line per line that never ran,
or pytest's own exit code if the suite failed.  Extra arguments go to
pytest.
"""

import ast
import importlib.util
import os
import sys

import pytest

SEED = 0  # Hypothesis draws the same examples, so the same lines, on each run


def package_files() -> list[str]:
    """The package's source files, named as their code objects name them, unimported."""
    package = os.path.dirname(importlib.util.find_spec("tunelz").origin)
    return [os.path.join(package, name) for name in sorted(os.listdir(package))
            if name.endswith(".py")]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def statement_lines(path: str, source: str) -> set[int]:
    """The lines on which a statement starts and that the compiler gave code (a
    function's docstring, for one, has none)."""
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    with_code = set()
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return starts & with_code


def watch(hits: dict[str, bytearray]) -> None:
    """Mark ``hits[path][line]`` for each line of a watched file that runs from now on."""
    if sys.version_info >= (3, 12):
        monitoring = sys.monitoring
        tool = monitoring.COVERAGE_ID

        def line(code, number):
            marks = hits.get(code.co_filename)
            if marks is not None:
                marks[number] = 1
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "tunelz coverage gate")
        monitoring.register_callback(tool, monitoring.events.LINE, line)
        monitoring.set_events(tool, monitoring.events.LINE)
        return

    def local(marks):
        def trace(frame, event, arg):
            if event == "line":
                marks[frame.f_lineno] = 1
            return trace
        return trace

    tracers = {path: local(marks) for path, marks in hits.items()}
    sys.settrace(lambda frame, event, arg: tracers.get(frame.f_code.co_filename))


def main(argv: list[str]) -> int:
    if "tunelz" in sys.modules:
        raise SystemExit("tunelz was imported before its lines were watched")
    sources = {path: read(path) for path in package_files()}
    lines = {path: statement_lines(path, source) for path, source in sources.items()}
    hits = {path: bytearray(source.count("\n") + 2) for path, source in sources.items()}
    watch(hits)
    status = pytest.main(["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={SEED}", *argv])
    sys.settrace(None)
    if status != 0:
        return status
    missed = [(path, number) for path, found in lines.items()
              for number in sorted(found) if not hits[path][number]]
    for path, number in missed:
        print(f"{os.path.relpath(path)}:{number}: {sources[path].splitlines()[number - 1].strip()}")
    total = sum(map(len, lines.values()))
    print(f"{total - len(missed)} of {total} lines of tunelz ran in the suite")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
