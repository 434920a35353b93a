"""Brute-force oracles that the tests compare the library against.

Each one scans or backtracks through every candidate, so it is exponential
and lives here rather than on a production path: the filter and up-set
subset scans, the random convergence structures the law tests draw, and the
backtracking subset-label parse that ``lattice.subset_reader`` replaced.
"""

from __future__ import annotations

import random
from typing import Sequence

from coframes.convergence import ConvergenceStructure
from coframes.errors import BudgetExceeded, DocumentError
from coframes.fixtures import random_antitone_table
from coframes.lattice import FiniteLattice, bits

_FILTER_SCAN_LIMIT = 16


def enumerate_filter_masks(lattice: FiniteLattice) -> list[int]:
    """Brute-force oracle: every nonempty, up-closed, meet-closed subset.

    Scans all ``2**n`` subsets, so only for small carriers.  The test suite
    freezes the claim that these are exactly the principal up-sets.
    """
    n = lattice.n
    if n > _FILTER_SCAN_LIMIT:
        raise BudgetExceeded(
            f"filter subset scan on {n} elements (limit {_FILTER_SCAN_LIMIT})"
        )
    out = []
    for mask in range(1, 1 << n):
        members = list(bits(mask))
        if any(lattice.up[i] & mask != lattice.up[i] for i in members):
            continue
        if all(
            mask >> lattice.meet(a, b) & 1 for a in members for b in members
        ):
            out.append(mask)
    return out


def enumerate_upset_masks(lattice: FiniteLattice) -> list[int]:
    """Every up-closed subset (including the empty one), for exhaustive law
    checks on small carriers."""
    n = lattice.n
    if n > _FILTER_SCAN_LIMIT:
        raise BudgetExceeded(
            f"up-set subset scan on {n} elements (limit {_FILTER_SCAN_LIMIT})"
        )
    return [
        mask
        for mask in range(1 << n)
        if all(lattice.up[i] & mask == lattice.up[i] for i in bits(mask))
    ]


def random_convergence_structure(
    rng: random.Random, lattice: FiniteLattice
) -> ConvergenceStructure:
    return ConvergenceStructure(lattice, random_antitone_table(rng, lattice))


def _subset_parses(
    ground: Sequence[str], fragments: list[str], lenient: bool
) -> set[int]:
    """All ways of reassembling comma-split fragments into labels of
    ``ground`` (labels may themselves contain commas, so fragments are
    grouped by backtracking)."""
    index = {p: i for i, p in enumerate(ground)}
    results: set[int] = set()

    def rec(pos: int, mask: int) -> None:
        if pos == len(fragments):
            results.add(mask)
            return
        for end in range(pos, len(fragments)):
            name = ",".join(fragments[pos : end + 1])
            if lenient and end == pos:
                name = name.strip()
            i = index.get(name)
            if i is not None and not mask >> i & 1:
                rec(end + 1, mask | 1 << i)

    rec(0, 0)
    return results


def backtracking_subset_mask(ground: Sequence[str], label: str) -> int:
    """The subset of ``ground`` named by a label, read by backtracking
    through every grouping of its fragments: exponential in the number of
    fragments, and the reference for ``lattice.subset_reader``'s masks and
    messages."""
    if not isinstance(label, str):
        raise DocumentError(f"subset label must be a string, got {label!r}")
    body = label.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise DocumentError(f"subset label {label!r} is not brace-delimited")
    inner = body[1:-1]
    if not inner.strip():
        return 0
    parses = _subset_parses(ground, inner.split(","), lenient=False)
    if not parses:
        parses = _subset_parses(ground, inner.split(","), lenient=True)
    if not parses:
        raise DocumentError(f"{label!r} does not name a subset of {list(ground)}")
    if len(parses) > 1:
        raise DocumentError(f"subset label {label!r} is ambiguous")
    return parses.pop()
