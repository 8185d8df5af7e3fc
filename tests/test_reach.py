"""The reach map's two premises (``benchmarks/reach.py``): the AST walk
finds every function outside another function, and the generated
profiler's records meet those definitions by first line, decorators
included."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


def test_definitions_skip_nested_functions_and_lambdas():
    tree = ast.parse(
        "try:\n"
        "    def a(): pass\n"
        "except ImportError:\n"
        "    def b(): pass\n"
        "if True:\n"
        "    class C:\n"
        "        @property\n"
        "        def x(self): pass\n"
        "        def f(self):\n"
        "            def inner(): pass\n"
        "f = lambda: 1\n")
    assert [name for name, _ in reach._definitions(tree, "")] == [
        "a", "b", "C.x", "C.f"]


def test_profiled_subprocess_maps_to_decorated_definitions(tmp_path):
    # ibm_toronto is lru_cache-decorated and num_qubits a property: both
    # meet their definitions by the first decorator's line.
    snippet = ("from repro.hardware import ibm_toronto\n"
               "assert ibm_toronto().num_qubits == 27\n")
    reached = reach.profile(
        [("snippet", [sys.executable, "-c", snippet], {})], tmp_path, "t")
    universe = reach.functions()
    names = {universe[key][0] for key in reached & set(universe)}
    assert {"repro.hardware.devices:ibm_toronto",
            "repro.hardware.devices:Device.num_qubits"} <= names


def test_every_listed_function_still_exists():
    # ``--check`` only reports a listed function that left src/; a stale
    # map would hide what a later deletion removed, so fail on it here.
    listed = json.loads((ROOT / "benchmarks" / "REACH.json").read_text(
        encoding="utf-8"))["functions"]
    names = {name for name, _ in reach.functions().values()}
    assert sorted(set(listed) - names) == []
