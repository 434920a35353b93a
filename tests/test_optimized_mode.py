"""Answers do not depend on assertions: ``python -O`` strips every ``assert``
and must give the same classification and search outcomes, and the library
holds no ``assert`` statement at all."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    # invariants raise EngineError subclasses; cross-checks live in the
    # tests and the law suites
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "coframes").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sites == []

SCRIPT = """
import json, sys
from coframes.convergence import classify
from coframes.fixtures import convergence_fixture, convergence_fixture_names
from coframes.search import parse_conjecture, search_counterexample

flags = {
    name: classify(convergence_fixture(name)).flags()
    for name in convergence_fixture_names()
}
searches = {}
for text in ("topological => pretopological", "limit"):
    result = search_counterexample(parse_conjecture(text), max_lattice=5)
    searches[text] = [result.outcome, result.origin, result.structures_tested]
print(json.dumps({"optimize": sys.flags.optimize, "flags": flags, "searches": searches}))
"""


def run(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def test_optimized_mode_gives_identical_answers():
    plain, optimized = run(), run("-O")
    assert (plain.pop("optimize"), optimized.pop("optimize")) == (0, 1)
    assert optimized == plain
    assert plain["searches"]["topological => pretopological"][0] == "exhausted"
    assert plain["searches"]["limit"][0] == "counterexample"
