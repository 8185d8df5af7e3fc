"""Reach map: which ``src/repro`` functions the system's own entry points call.

The entry points are everything the repository ships to be run: the
examples (with ``REPRO_FAST=1``), every ``bench_*.py`` under pytest
(``--benchmark-disable``, so each benchmark body runs once), the six
``--smoke`` benchmark scripts and the e2e benchmark's full set, at the
request counts of the runs ``BENCHMARK.json`` declares.  Each runs with
a profiler in every process it starts, and the code objects they ran
are mapped, through the AST, to the top-level functions and methods of
``src/repro`` (``module:qualname``).  A function's first line is its
first decorator's line, which is what ``co_firstlineno`` reports.

    python benchmarks/reach.py --out benchmarks/REACH.json
    python benchmarks/reach.py --check

``--out`` also runs the tier-1 tests under the profiler and writes the
artifact: every function the system does not reach, tagged ``tests``
(only tier-1 reaches it) or ``none`` (nothing does), with its line span
and the totals.  ``--check`` runs only the entry points and fails when a
function they do not reach is missing from the committed
``benchmarks/REACH.json``: new code earns a caller, or the artifact is
regenerated and the change says why.  Without failing, it prints listed
functions that are gone or are now reached, and each entry point's exit
code; timing gates can fail under the profiler's per-call cost.

The profiler is a generated ``sitecustomize.py`` placed first on
``PYTHONPATH`` that installs ``sys.setprofile`` and
``threading.setprofile``, so it follows subprocesses, spawned workers
and job threads.  Entry points run from a temporary directory, and the
smoke scripts write through ``--out`` into it, so ``CHAOS_resume.json``
and the committed ``BENCH_*.json`` files stay untouched.  Standard
library only; the full ``--check`` run takes a few minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACT = HERE / "REACH.json"

#: The six scripts with a committed ``BENCH_*.json``, with the extra
#: arguments CI gives their smoke runs.
SMOKE_SCRIPTS = {
    "bench_execution.py": [],
    "bench_transpile.py": [],
    "bench_scheduler.py": ["--sweep-fleets"],
    "bench_overload.py": [],
    "bench_layout.py": [],
    "bench_dynamic.py": [],
}

#: Nominal measured seconds of the e2e run: ``BENCHMARK.json``'s own
#: ``run_seconds``, so each repetition makes as many requests as the
#: declared benchmark's runs do (at least ``loadgen.MIN_REQUESTS``).
#: Fewer would miss paths that only sustained traffic takes, such as a
#: bounded job history evicting.  The count comes from nominal rates,
#: so the paths a workload takes do not depend on the host's speed.
E2E_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(
    encoding="utf-8"))["run_seconds"]

#: ``(path relative to src/, first line, name)``: how a code object and
#: a function definition meet.
Key = Tuple[str, int, str]
EntryPoint = Tuple[str, List[str], Dict[str, str]]

SITECUSTOMIZE = """\
import os
import sys
import threading

_PREFIX = {prefix!r}
_RECORDS = {records!r}
_seen = set()
_fd = []


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_PREFIX):
        if not _fd:
            _fd.append(os.open(
                os.path.join(_RECORDS, "%d.tsv" % os.getpid()),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
        # Unbuffered, so a process that ends in os._exit loses nothing.
        os.write(_fd[0], ("%s\\t%d\\t%s\\n" % (
            code.co_filename, code.co_firstlineno,
            code.co_name)).encode())


sys.setprofile(_profile)
threading.setprofile(_profile)
"""


def functions() -> Dict[Key, Tuple[str, int]]:
    """Every top-level function and method under ``src/repro``:
    key -> (``module:qualname``, lines from first decorator to end)."""
    found: Dict[Key, Tuple[str, int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts)
        module = module[:-len(".__init__")] \
            if module.endswith(".__init__") else module
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for qualname, node in _definitions(tree, ""):
            first = (node.decorator_list[0].lineno if node.decorator_list
                     else node.lineno)
            found[(str(rel), first, node.name)] = (
                f"{module}:{qualname}", node.end_lineno - first + 1)
    return found


def _definitions(node: ast.AST, prefix: str):
    """``(qualname, node)`` of the functions defined in *node* outside
    any other function: at module level, in classes, and under
    ``if``/``try``/``with`` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.")
        elif not isinstance(child, ast.expr):
            yield from _definitions(child, prefix)


def entry_points(tmp: Path) -> List[EntryPoint]:
    """The system's entry points: ``(label, argv, extra environment)``."""
    python = sys.executable
    points: List[EntryPoint] = [
        (f"examples/{path.name}", [python, str(path)], {"REPRO_FAST": "1"})
        for path in sorted((ROOT / "examples").glob("*.py"))]
    points.append((
        "pytest bench_*.py",
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable"]
        + [str(path) for path in sorted(HERE.glob("bench_*.py"))], {}))
    for script, extra in SMOKE_SCRIPTS.items():
        out = tmp / script.replace(".py", ".json")
        points.append((
            f"{script} --smoke",
            [python, str(HERE / script), "--smoke", *extra,
             "--out", str(out)], {}))
    points.append((
        f"e2e/run.py --seed 1 --seconds {E2E_SECONDS}",
        [python, str(HERE / "e2e" / "run.py"), "--seed", "1",
         "--seconds", str(E2E_SECONDS), "--out", str(tmp / "e2e")], {}))
    return points


def profile(points: List[EntryPoint], tmp: Path, tag: str) -> Set[Key]:
    """Run *points* under the profiler; the keys of the code they ran."""
    site, records = tmp / f"{tag}-site", tmp / f"{tag}-records"
    site.mkdir()
    records.mkdir()
    prefix = str(SRC / "repro") + os.sep
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(prefix=prefix, records=str(records)),
        encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    for label, argv, extra in points:
        log = tmp / f"{tag}.log"
        start = time.monotonic()
        with open(log, "w", encoding="utf-8") as fh:
            code = subprocess.run(argv, cwd=tmp, env={**env, **extra},
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  check=False).returncode
        print(f"  exit {code:>3}  {time.monotonic() - start:6.1f} s  "
              f"{label}", flush=True)
        if code != 0:
            tail = log.read_text(encoding="utf-8").splitlines()[-15:]
            print("\n".join(f"      | {line}" for line in tail))
    reached: Set[Key] = set()
    for path in records.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            rel = os.path.relpath(os.path.realpath(parts[0]), SRC)
            reached.add((rel, int(parts[1]), parts[2]))
    return reached


def _total(entries) -> Dict[str, int]:
    entries = list(entries)
    return {"functions": len(entries),
            "lines": sum(lines for _, lines in entries)}


def write_artifact(path: Path, universe: Dict[Key, Tuple[str, int]],
                   system: Set[Key], tests: Set[Key],
                   points: List[EntryPoint]) -> None:
    listed = {}
    for key, (name, lines) in universe.items():
        if key not in system:
            listed[name] = {"by": "tests" if key in tests else "none",
                            "lines": lines}
    payload = {
        "about": ("src/repro functions and methods that no entry point "
                  "of the system reaches (benchmarks/reach.py); by: "
                  "'tests' = only the tier-1 tests reach it, 'none' = "
                  "nothing does; lines run from the first decorator to "
                  "the end of the body"),
        "entry_points": [label for label, _, _ in points],
        "counts": {
            "all": _total(universe.values()),
            "system": _total(v for k, v in universe.items() if k in system),
            "tests": _total((n, e["lines"]) for n, e in listed.items()
                            if e["by"] == "tests"),
            "none": _total((n, e["lines"]) for n, e in listed.items()
                           if e["by"] == "none"),
        },
        "functions": dict(sorted(listed.items())),
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    counts = payload["counts"]
    print(f"wrote {path}: of {counts['all']['functions']} functions, "
          f"{counts['tests']['functions']} "
          f"({counts['tests']['lines']} lines) are reached only by the "
          f"tests and {counts['none']['functions']} "
          f"({counts['none']['lines']} lines) by nothing")


def check(universe: Dict[Key, Tuple[str, int]], system: Set[Key]) -> int:
    listed = set(json.loads(ARTIFACT.read_text(encoding="utf-8"))
                 ["functions"])
    names = {name for name, _ in universe.values()}
    unreached = {name for key, (name, _) in universe.items()
                 if key not in system}
    print(f"the entry points reach {len(universe) - len(unreached)} of "
          f"{len(universe)} functions; {len(listed)} are listed in "
          f"{ARTIFACT.name}")
    for title, group in (
            ("listed, but gone from src/", listed - names),
            ("listed, but now reached", listed & (names - unreached))):
        if group:
            print(f"{title} (regenerate with --out):")
            print("\n".join(f"  {name}" for name in sorted(group)))
    missing = unreached - listed
    if missing:
        print(f"FAIL: {len(missing)} function(s) that no entry point "
              f"reaches are missing from {ARTIFACT.name}; give each a "
              f"caller, or regenerate the artifact and say why:")
        print("\n".join(f"  {name}" for name in sorted(missing)))
        return 1
    print("OK: every function no entry point reaches is listed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Map which src/ functions the system's entry points "
                    "reach (see the module docstring).")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, metavar="PATH",
                      help="run the entry points and tier-1, write the "
                           "artifact to PATH")
    mode.add_argument("--check", action="store_true",
                      help=f"run the entry points; fail on an unreached "
                           f"function missing from {ARTIFACT.name}")
    args = parser.parse_args(argv)
    universe = functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        tmp = Path(name)
        points = entry_points(tmp)
        print("system entry points:")
        system = profile(points, tmp, "system")
        if args.check:
            return check(universe, system)
        print("tier-1 tests:")
        tests = profile(
            [("tier-1", [sys.executable, "-m", "pytest", "-q", "-p",
                         "no:cacheprovider", str(ROOT / "tests")], {})],
            tmp, "tests")
    write_artifact(args.out, universe, system, tests, points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
