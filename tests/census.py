"""Call census: which functions of ``src/minprog`` no command reaches.

Run from anywhere as ``PYTHONPATH=src python tests/census.py``.  A
``sys.setprofile`` hook, installed before ``minprog`` is imported, records
every function of the package that is entered while the benchmark's
``search``, ``vm`` and ``limit`` job lists run at seeds 1-3 and every
``minprog`` line of the README's ``sh`` blocks runs through ``cli.main``.
Each ``def`` in ``src/minprog`` is matched to the functions entered by file
and first line (a decorated ``def`` starts at its first decorator).  The
script prints the ``def``s never entered and their count, and exits 0
whatever the count: some of them are error paths, abstract bases or
commands that no job runs, so the list is read, not gated.

The name keeps pytest from collecting it: it runs no test.
"""

import ast
import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minprog"
SEEDS = (1, 2, 3)

entered: set[tuple[str, int]] = set()


def _record(frame, event, arg) -> None:
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))


def readme_lines() -> list[list[str]]:
    """The argv after ``minprog`` of each such line in a README ``sh`` block."""
    lines, block = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line == "```sh":
            block = True
        elif line == "```":
            block = False
        elif block and line.startswith("minprog "):
            lines.append(shlex.split(line)[1:])
    return lines


def defs() -> list[tuple[str, int, str]]:
    """(file, first line, qualified name) of every ``def`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append((str(path), first, prefix + child.name))
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)  # job and README machine files are named from the repository root
    sys.setprofile(_record)
    try:
        import minprog.cli
        from workloads import WORKLOADS, build_jobs

        failed = 0
        for workload in WORKLOADS:
            for seed in SEEDS:
                for job in build_jobs(workload, seed):
                    try:
                        job.run()
                    except Exception as exc:  # the census reads on past a failing job
                        print(f"{job.id} (seed {seed}) raised {exc!r}", file=sys.stderr)
                        failed += 1
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in readme_lines():
                failed += minprog.cli.main(argv) != 0
    finally:
        sys.setprofile(None)
    never = [(Path(f).relative_to(ROOT), line, name) for f, line, name in defs()
             if (f, line) not in entered]
    for path, line, name in never:
        print(f"{path}:{line}: {name}")
    print(f"{len(never)} defs in src/minprog never entered ({failed} jobs or README lines failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
