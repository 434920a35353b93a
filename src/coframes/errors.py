"""Exception hierarchy for the engine.

Every error raised by the package derives from :class:`EngineError`, so
callers (and the CLI) can distinguish "the input is bad" from genuine bugs.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class NotALattice(EngineError):
    """The given order lacks a meet or join for some pair (or bounds)."""


class CyclicCovers(EngineError):
    """The cover relation of a would-be poset contains a cycle."""


class NotDistributive(EngineError):
    """An operation that requires distributivity was given a non-distributive lattice."""


class NotAMorphism(EngineError):
    """A map fails the morphism laws required by the operation."""


class UnknownLabel(EngineError, KeyError):
    """A label names no element of the lattice or point of the space."""


class UnknownKind(EngineError, ValueError):
    """A completion or modification kind is not one the engine knows."""


class LatticeMismatch(EngineError):
    """Structures that must live on the same lattice do not."""


class AxiomViolation(EngineError):
    """A structure fails one of its defining axioms.

    Carries the axiom name and a human-readable witness.
    """

    def __init__(self, axiom: str, witness: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom}: {witness}")


class NotComplemented(EngineError):
    """An element required to be complemented is not."""


class NotASublattice(EngineError):
    """A subset required to be closed under meet/join is not."""


class BudgetExceeded(EngineError):
    """An exhaustive computation was requested beyond its configured budget."""


class StarFormulaMismatch(EngineError):
    """The closed-form direct image on sublocale lattices failed validation."""


class NotPretopological(EngineError):
    """A space-level conversion requires a pretopological space."""


class DocumentError(EngineError):
    """A JSON document is malformed or inconsistent."""


class ConjectureError(EngineError):
    """A conjecture expression does not parse or uses unknown predicates."""
