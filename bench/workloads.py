"""The three benchmark workloads: inputs from a seed, operations, answer checks.

Each workload is a closed loop with one caller: the runner calls one
operation, waits for its answer, then calls the next.  Inputs are a pure
function of the seed.  Answers are kept and checked only after the timed
loop, and every operation is classified as ``ok``, ``refused``, ``error``
or ``wrong`` without stopping the run.

The ``coframes`` package must already be importable (``run.py`` puts the
checkout's ``src`` directory first on ``sys.path``).
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import coframes
from coframes import cli
from coframes.documents import canonical_json, lattice_to_doc, load_document, structure_to_doc
from coframes.fixtures import random_antitone_table, random_poset
from coframes.lattice import downset_lattice, powerset_lattice, subset_label

# Above this many elements the family completion step (``s1`` with kind
# ``pretop``) refuses its input with BudgetExceeded; such requests stay in
# the documents mix and are counted as refused.
PRETOP_LIMIT = 20


def repr_digest(answer: Any) -> int:
    return zlib.crc32(repr(answer).encode())


@dataclass
class Operation:
    """One unit of work: ``run`` is timed, ``check`` grades its answer, and
    ``digest`` fingerprints the answer so repeats can be compared."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Counter]
    digest: Callable[[Any], int] = repr_digest


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    warm_up: Callable[[], None]
    samples: dict[str, Any]


def grade(op: Operation, answer: Any) -> Counter:
    """Outcome counts of one operation; a raised exception is an error and a
    check that itself raises grades the answer as wrong."""
    if isinstance(answer, BaseException):
        return Counter(error=1)
    try:
        return op.check(answer)
    except Exception:
        return Counter(wrong=1)


# ---------------------------------------------------------------------------
# search: two true implications, exhaustively up to a carrier size


SEARCH_CONJECTURES = (
    "pretopological => strict & limit",
    "topological => pretopological",
)


def search_workload(seed: int, small: bool, expected: str = "exhausted") -> Workload:
    max_lattice = 4 if small else 7
    conjectures = [coframes.parse_conjecture(text) for text in SEARCH_CONJECTURES]

    def op(conj) -> Operation:
        def check(result) -> Counter:
            return Counter(ok=1) if result.outcome == expected else Counter(wrong=1)

        return Operation(
            conj.text(),
            lambda: coframes.search_counterexample(conj, max_lattice=max_lattice, seed=seed),
            check,
        )

    return Workload(
        "search",
        [op(c) for c in conjectures],
        warm_up=lambda: None,
        samples={"conjectures": len(conjectures), "max_lattice": max_lattice},
    )


# ---------------------------------------------------------------------------
# laws: every suite of run_all, one suite per timed operation


def laws_workload(seed: int, small: bool) -> Workload:
    budget = 20 if small else 1000

    def op(name: str) -> Operation:
        def check(rep) -> Counter:
            if rep.checks == 0:
                return Counter(wrong=1)
            return Counter(ok=rep.checks - len(rep.violations), wrong=len(rep.violations))

        return Operation(
            name, lambda: coframes.run_suite(name, seed=seed, budget=budget), check
        )

    names = coframes.suite_names()
    return Workload(
        "laws",
        [op(name) for name in names],
        warm_up=lambda: None,
        samples={"suites": len(names), "budget": budget},
    )


# ---------------------------------------------------------------------------
# documents: seeded convergence documents through the command line, in process


def call_cli(argv: list[str], text: str) -> tuple[int, str]:
    """``coframes.cli.main`` with standard input and output on buffers."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


# (subcommand arguments, carrier form, poset sizes, edge probability, count).
# The mix is fixed, and the poset sizes are cycled rather than drawn, so every
# seed sends the same number of requests of each class; the seed draws the
# posets, tables, labels and the order.  Covers-form carriers are built afresh
# by every load, so ``analyze`` runs cold on each; powerset shorthand shares
# one carrier per ground set.  Random posets (edge probability above 0) are
# redrawn until they have at most LIGHT_ELEMENTS down-sets, so the heavy
# requests are exactly the antichain classes: 16 elements in covers form (the
# 2^16 way-way-below scan) and P(6) in covers form (the n^3 scans).  They are
# 24 of the 290 requests, so p95 falls inside them.
#
# ``classify`` is sent only carriers of at most LIGHT_ELEMENTS elements: above
# that its pretopological flag is a seeded sample (``pretopological_sampled``),
# which can answer true for a structure that is not a limit structure, and the
# check below holds the flags to the exact identity.  Larger carriers go
# through the other subcommands, whose answers are exact at every size.
DOCUMENT_MIX = (
    (["validate"], "covers", (2, 3, 4), 0.4, 40),
    (["classify"], "covers", (2, 3, 4), 0.4, 60),
    (["classify"], "covers", (5,), 0.3, 14),
    (["validate"], "covers", (4,), 0.0, 8),
    (["modify", "--kind", "lim"], "covers", (4,), 0.0, 8),
    (["validate"], "covers", (6,), 0.0, 4),
    (["modify", "--kind", "top"], "covers", (6,), 0.0, 4),
    (["classify"], "powerset", (2, 3), None, 20),
    (["modify", "--kind", "strict"], "powerset", (4, 5, 6), None, 10),
    (["modify", "--kind", "lim"], "covers", (2, 3, 4, 5), 0.4, 20),
    (["modify", "--kind", "strict"], "covers", (2, 3, 4, 5), 0.4, 10),
    (["modify", "--kind", "top"], "covers", (2, 3, 4, 5), 0.4, 14),
    (["modify", "--kind", "lim"], "powerset", (2, 3, 4, 5, 6), None, 10),
    (["modify", "--kind", "top"], "powerset", (2, 3, 4, 5, 6), None, 10),
    (["modify", "--kind", "pretop"], "covers", (2, 3), 0.4, 16),
    (["modify", "--kind", "pretop"], "powerset", (5,), None, 12),  # refused
    (["pt", "--roundtrip"], "covers", (2, 3, 4), 0.4, 20),
    (["pt", "--roundtrip"], "powerset", (2, 3, 4), None, 10),
)

SMALL_DOCUMENT_MIX = (
    (["validate"], "covers", (2, 3), 0.4, 2),
    (["classify"], "covers", (2, 3), 0.4, 2),
    (["classify"], "powerset", (2, 3), None, 2),
    (["modify", "--kind", "lim"], "covers", (2, 3), 0.4, 1),
    (["modify", "--kind", "strict"], "covers", (2, 3), 0.4, 1),
    (["modify", "--kind", "top"], "powerset", (2, 3), None, 1),
    (["modify", "--kind", "pretop"], "covers", (2, 3), 0.4, 1),
    (["modify", "--kind", "pretop"], "powerset", (5,), None, 1),
    (["pt", "--roundtrip"], "covers", (2, 3), 0.4, 2),
)

LIGHT_ELEMENTS = 12


def _ground_pool(rng: random.Random) -> dict[int, tuple[str, ...]]:
    """One ground set per size, so shorthand requests share carriers."""
    return {k: tuple(f"g{rng.randrange(1000)}x{i}" for i in range(k)) for k in range(1, 8)}


def _convergence_doc(rng: random.Random, form: str, k: int, edge_prob, grounds) -> dict:
    if form == "powerset":
        ground = grounds[k]
        # A private ground builds the table, so the shared carrier is not
        # created (or analysed) before the timed loop; indices are subset
        # masks on both grounds.
        lat = powerset_lattice(tuple(f"_{g}" for g in ground))
        tab = random_antitone_table(rng, lat)
        label = partial(subset_label, ground)
        return {
            "lattice": {"powerset": list(ground)},
            "lim": {label(i): label(tab[i]) for i in range(lat.n)},
        }
    lat = downset_lattice(random_poset(rng, k, edge_prob))
    while edge_prob and lat.n > LIGHT_ELEMENTS:
        lat = downset_lattice(random_poset(rng, k, edge_prob))
    tab = random_antitone_table(rng, lat)
    return {
        "lattice": lattice_to_doc(lat),
        "lim": {lat.label(i): lat.label(tab[i]) for i in range(lat.n)},
    }


def document_requests(seed: int, small: bool) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    grounds = _ground_pool(rng)
    requests = []
    for args, form, sizes, edge_prob, count in SMALL_DOCUMENT_MIX if small else DOCUMENT_MIX:
        for i in range(count):
            k = sizes[i % len(sizes)]
            doc = _convergence_doc(rng, form, k, edge_prob, grounds)
            n = len(doc["lim"])
            requests.append(
                {
                    "argv": [args[0], "-", "--json", *args[1:]],
                    "text": canonical_json(doc),
                    "elements": n,
                    "form": form,
                    "may_refuse": args[-1] == "pretop" and n > PRETOP_LIMIT,
                }
            )
    rng.shuffle(requests)
    return requests


_ELAPSED = re.compile(r'^  "elapsed_ms": .*\n', re.MULTILINE)


def document_digest(answer: Any) -> int:
    """The report without its timing line."""
    if isinstance(answer, tuple):
        code, out = answer
        answer = (code, _ELAPSED.sub("", out))
    return repr_digest(answer)


def check_document_answer(request: dict[str, Any], answer: tuple[int, str]) -> Counter:
    """Grade one command-line answer against what the request implies."""
    code, out = answer
    report = json.loads(out)
    sub = request["argv"][0]
    if code != 0 or report["outcome"] != "pass":
        if request["may_refuse"] and code == 2 and report["outcome"] == "error":
            return Counter(refused=1)
        return Counter(error=1) if code == 2 else Counter(wrong=1)
    ok = report["command"] == request["argv"]
    if sub in ("validate", "modify", "pt"):
        # the emitted document reloads and dumps to the same bytes
        text = canonical_json(report["document"])
        _, emitted = load_document(text)
        ok = ok and canonical_json(structure_to_doc(emitted)) == text
    if sub == "validate":
        ok = ok and report["kind"] == "convergence"
    elif sub == "classify":
        f = report["flags"]
        ok = (
            ok
            and f["pretopological"] == (f["strict"] and f["limit"])
            and (not f["topological"] or f["pretopological"])
        )
    elif sub == "modify":
        ok = ok and _modification_holds(request, emitted)
    elif sub == "pt":
        ok = ok and report["eta"] == "isomorphism"
    return Counter(ok=1) if ok else Counter(wrong=1)


_S1_KIND = {"lim": "limit", "strict": "strict", "pretop": "pretop"}


def _modification_holds(request: dict[str, Any], after) -> bool:
    """The result sits pointwise above the input and one more step fixes it."""
    _, before = load_document(request["text"])
    lat = before.lattice
    for g in range(lat.n):
        old = before.limtab[g]
        new = lat.index(after.lattice.label(after.limtab[after.lattice.index(lat.label(g))]))
        if not lat.leq(old, new):
            return False
    kind = request["argv"][-1]
    if kind == "top":
        again = coframes.topological_modification(after)
    else:
        again = coframes.s1(after, _S1_KIND[kind])
    return again.limtab == after.limtab


def documents_workload(seed: int, small: bool) -> Workload:
    requests = document_requests(seed, small)

    def op(request) -> Operation:
        return Operation(
            " ".join(request["argv"]),
            lambda: call_cli(request["argv"], request["text"]),
            lambda answer: check_document_answer(request, answer),
            document_digest,
        )

    warm_doc = canonical_json(
        {"lattice": {"elements": ["0", "1"], "covers": [["0", "1"]]}, "lim": {"0": "1", "1": "1"}}
    )
    return Workload(
        "documents",
        [op(r) for r in requests],
        warm_up=lambda: call_cli(["classify", "-", "--json"], warm_doc),
        samples={
            "requests": len(requests),
            "covers_form": sum(r["form"] == "covers" for r in requests),
            "powerset_form": sum(r["form"] == "powerset" for r in requests),
            "may_refuse": sum(r["may_refuse"] for r in requests),
            "bytes_in": sum(len(r["text"].encode()) for r in requests),
        },
    )


WORKLOADS = {
    "search": search_workload,
    "laws": laws_workload,
    "documents": documents_workload,
}
