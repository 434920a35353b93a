"""Command-line surface: validate, classify, modify, dualize to point
spaces, run the law suites, and search for counterexamples.

Exit codes form a stable scripting contract: 0 = pass, 1 = a law violation
or counterexample was found, 2 = invalid input or configuration.  With
``--json`` every command prints one canonical JSON report; in plain mode
commands that produce a document (``modify``, ``pt``, ``fixtures --name``)
write the document to standard output and the report lines to standard
error, so their output can be piped straight back into ``validate``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from .adherence import closed_sets, lim_of_nu
from .convergence import classify, points
from .documents import canonical_json, structure_to_doc
from .duality import (
    MODIFICATIONS,
    classify_space,
    eta,
    is_isomorphism,
    pt_adh,
    pt_space,
    pt_top,
    to_pretop,
    top_space_convergence,
)
from .errors import EngineError
from .filters import is_proper
from .fixtures import FIXTURES, fixture
from .lattice import FiniteLattice, analyze, bits
from .laws import run_all, run_suite, suite_names
from .search import parse_conjecture, search_counterexample
from .topology import is_strong, lim_of_C

__all__ = ["main"]


@dataclass
class RunReport:
    command: list[str]
    outcome: str = "pass"  # pass | violation | error
    payload: dict[str, Any] = field(default_factory=dict)
    witness: dict[str, Any] | None = None
    message: str | None = None
    elapsed_ms: float = 0.0

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "violation": 1, "error": 2}[self.outcome]

    def as_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "command": self.command,
            "outcome": self.outcome,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        doc.update(self.payload)
        if self.message is not None:
            doc["message"] = self.message
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str):
    from .documents import load_document

    return load_document(_read_input(path))


def _true_flags(flags: dict[str, bool]) -> str:
    names = [name for name, value in flags.items() if value]
    return " ".join(names) if names else "(none)"


# ---------------------------------------------------------------------------
# subcommands


def _labels(lattice: FiniteLattice, mask: int) -> list[str]:
    return sorted(lattice.label(i) for i in bits(mask))


def _lattice_payload(lat: FiniteLattice) -> dict[str, Any]:
    info = analyze(lat)
    return {
        "elements": lat.n,
        "distributive": info.distributive,
        "spatial": info.spatial,
        "prime_continuous": info.prime_continuous,
        "complemented": _labels(lat, info.complemented),
        "join_primes": _labels(lat, info.join_primes),
        "meet_primes": _labels(lat, info.meet_primes),
    }


def _closed_payload(obj) -> dict[str, Any]:
    lat, report = obj.lattice, closed_sets(obj)
    return {
        "quasi_closed": [lat.label(c) for c in report.quasi_closed],
        "closed": [lat.label(c) for c in report.closed],
    }


# each kind of point space -> the convergence space it is classified as
_CONVERGENCE_SPACE = {
    "space": lambda space: space,
    "adherence-space": to_pretop,
    "topological-space": top_space_convergence,
}

# each lattice-side kind -> the kind of its space of points, and the pt
# functor, called through its name so that a rebinding of the name (as
# bench/tracing.py does) reaches it
_PT = {
    "convergence": ("space", lambda cs: pt_space(cs)),
    "adherence": ("adherence-space", lambda ns: pt_adh(ns)),
    "topology": ("topological-space", lambda ts: pt_top(ts)),
}

# every other kind -> the classify payload of an object of that kind
_PAYLOADS = {
    "lattice": _lattice_payload,
    "convergence": lambda cs: {
        "flags": classify(cs).flags(),
        "points": [cs.lattice.label(p) for p in points(cs)],
        **_closed_payload(cs),
    },
    "adherence": lambda ns: {"flags": classify(lim_of_nu(ns)).flags(), **_closed_payload(ns)},
    "topology": lambda ts: {
        "flags": classify(lim_of_C(ts)).flags(),
        "closed": _labels(ts.lattice, ts.closed),
        "strong": is_strong(ts),
    },
    "filter": lambda f: {"generator": f.lattice.label(f.generator), "proper": is_proper(f)},
    "upset": lambda u: {"members": _labels(u.lattice, u.members)},
}


def _cmd_validate(args, report: RunReport) -> None:
    kind, obj = _load(args.path)
    report.payload["kind"] = kind
    report.payload["document"] = structure_to_doc(obj)
    if kind == "lattice":
        payload = _lattice_payload(obj)
        for key in ("elements", "distributive", "complemented"):
            report.payload[key] = payload[key]


def _cmd_classify(args, report: RunReport) -> None:
    kind, obj = _load(args.path)
    report.payload["kind"] = kind
    if kind in _CONVERGENCE_SPACE:
        report.payload["flags"] = classify_space(_CONVERGENCE_SPACE[kind](obj)).flags()
        report.payload["points"] = list(obj.points)
    else:
        report.payload.update(_PAYLOADS[kind](obj))


def _cmd_modify(args, report: RunReport) -> None:
    kind, obj = _load(args.path)
    if kind != "convergence":
        raise EngineError(f"modify needs a convergence document, got {kind}")
    result = MODIFICATIONS[args.kind](obj)
    report.payload["kind"] = kind
    report.payload["modification"] = args.kind
    report.payload["changed"] = result.limtab != obj.limtab
    report.payload["document"] = structure_to_doc(result)


def _cmd_pt(args, report: RunReport) -> None:
    kind, obj = _load(args.path)
    if kind not in _PT:
        raise EngineError(f"pt needs a lattice-side structure document, got {kind}")
    point_kind, pt = _PT[kind]
    point_space = pt(obj)
    space = _CONVERGENCE_SPACE[point_kind](point_space)
    report.payload["kind"] = point_kind
    report.payload["document"] = structure_to_doc(point_space)
    report.payload["points"] = list(space.points)
    if args.roundtrip:
        iso = is_isomorphism(eta(space))
        report.payload["eta"] = "isomorphism" if iso else "not an isomorphism"
        if not iso:
            report.outcome = "violation"
            report.witness = {"space": structure_to_doc(space)}


def _violation_doc(v) -> dict[str, Any]:
    return {"suite": v.suite, "law": v.law, "message": v.message, "witness": v.witness}


def _cmd_laws(args, report: RunReport) -> None:
    if args.all:
        reports = run_all(seed=args.seed, budget=args.budget, inject_fault=args.inject_fault)
    else:
        reports = [
            run_suite(
                args.suite, seed=args.seed, budget=args.budget, inject_fault=args.inject_fault
            )
        ]
    suites: dict[str, Any] = {}
    first = None
    for rep in reports:
        suites[rep.suite] = {
            "checks": rep.checks,
            "violations": [_violation_doc(v) for v in rep.violations],
        }
        if rep.violations and first is None:
            first = _violation_doc(rep.violations[0])
    report.payload["suites"] = suites
    if first is not None:
        report.outcome = "violation"
        report.witness = first


def _cmd_search(args, report: RunReport) -> None:
    conjecture = parse_conjecture(args.conjecture)
    result = search_counterexample(
        conjecture,
        max_lattice=args.max_lattice,
        seed=args.seed,
        budget=args.budget,
    )
    report.payload["conjecture"] = conjecture.text()
    report.payload["structures_tested"] = result.structures_tested
    report.payload["lattices_tested"] = result.lattices_tested
    if result.outcome == "counterexample":
        report.outcome = "violation"
        report.payload["origin"] = result.origin
        report.witness = result.witness_document()
    else:
        report.payload["exhausted"] = True


def _cmd_fixtures(args, report: RunReport) -> None:
    if args.name is not None:
        for kind, builders in FIXTURES.items():
            if args.name in builders:
                report.payload["kind"] = kind
                report.payload["name"] = args.name
                report.payload["document"] = structure_to_doc(fixture(kind, args.name))
                return
        raise EngineError(f"unknown fixture {args.name!r}")
    for kind, builders in FIXTURES.items():
        if args.kind in (None, kind):
            report.payload[kind] = list(builders)


# ---------------------------------------------------------------------------
# rendering


def _human_lines(report: RunReport) -> list[str]:
    lines = [f"outcome: {report.outcome}"]
    if report.message:
        lines.append(f"error: {report.message}")
    for key, value in report.payload.items():
        if key == "document":
            continue
        if key == "flags":
            lines.append(f"flags: {_true_flags(value)}")
        elif key == "suites":
            for suite, data in value.items():
                lines.append(
                    f"suite {suite}: {data['checks']} checks, "
                    f"{len(data['violations'])} violations"
                )
                for v in data["violations"]:
                    lines.append(f"  {v['law']}: {v['message']}")
        elif isinstance(value, list):
            lines.append(f"{key}: {' '.join(str(v) for v in value) if value else '(none)'}")
        else:
            lines.append(f"{key}: {value}")
    if report.witness is not None and "suites" not in report.payload:
        lines.append("witness:")
        lines.extend("  " + line for line in canonical_json(report.witness).rstrip().splitlines())
    return lines


def _emit(report: RunReport, subcommand: str, json_mode: bool) -> None:
    if json_mode:
        sys.stdout.write(canonical_json(report.as_doc()))
        return
    document = report.payload.get("document")
    emits_document = document is not None and subcommand in ("modify", "pt", "fixtures")
    sink = sys.stderr if emits_document else sys.stdout
    for line in _human_lines(report):
        print(line, file=sink)
    if emits_document:
        sys.stdout.write(canonical_json(document))


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument(
        "--budget", type=int, default=100, help="random sample count for laws/search"
    )
    common.add_argument(
        "--max-lattice",
        type=int,
        default=5,
        help="largest carrier size for exhaustive search",
    )

    parser = argparse.ArgumentParser(
        prog="coframes",
        description="Finite-model engine for convergence, adherence and "
        "topological structures on finite coframes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a JSON document")
    p.add_argument("path", help="document path, or - for standard input")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", parents=[common], help="classify a structure")
    p.add_argument("path", help="document path, or - for standard input")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "modify", parents=[common], help="apply a completion or modification"
    )
    p.add_argument("path", help="convergence document path, or -")
    p.add_argument(
        "--kind", required=True, choices=tuple(MODIFICATIONS)
    )
    p.set_defaults(handler=_cmd_modify)

    p = sub.add_parser("pt", parents=[common], help="compute the space of points")
    p.add_argument("path", help="structure document path, or -")
    p.add_argument(
        "--roundtrip",
        action="store_true",
        help="also check that the unit of the adjunction is an isomorphism",
    )
    p.set_defaults(handler=_cmd_pt)

    p = sub.add_parser("laws", parents=[common], help="run law suites")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=suite_names())
    group.add_argument("--all", action="store_true")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="test mode: corrupt one input to prove violations are detected",
    )
    p.set_defaults(handler=_cmd_laws)

    p = sub.add_parser("search", parents=[common], help="search for a counterexample")
    p.add_argument(
        "--conjecture",
        required=True,
        help='e.g. "centered & pretopological => topological"',
    )
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("fixtures", parents=[common], help="list built-in fixtures")
    p.add_argument("--kind", choices=list(FIXTURES))
    p.add_argument("--name", help="emit the document of one named fixture")
    p.set_defaults(handler=_cmd_fixtures)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    report = RunReport(command=raw)
    start = time.perf_counter()
    try:
        args.handler(args, report)
    except (EngineError, OSError) as err:
        report.outcome = "error"
        report.message = str(err) or type(err).__name__
    report.elapsed_ms = (time.perf_counter() - start) * 1000
    _emit(report, args.subcommand, args.json)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
