"""Exception types shared across the library."""

from __future__ import annotations


class AlgebraError(ValueError):
    """Base class for every domain error raised by this library."""


class NotAGroup(AlgebraError):
    """A Cayley table fails one of the group axioms.

    ``reason`` is one of ``no-identity-at-0``, ``not-latin``,
    ``not-associative``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class UnknownGroupName(AlgebraError):
    """Requested standard group name is not recognized."""


class OrderCapExceeded(AlgebraError):
    """A construction would exceed the configured group-order cap, or the cap is malformed."""


class MixedRings(AlgebraError):
    """Operands carry different coefficient rings."""


class MixedGroups(AlgebraError):
    """Operands belong to different groups."""


class NotAField(AlgebraError):
    """Operation requires field coefficients."""


class NotAHomomorphism(AlgebraError):
    """An index map on a group is not a group homomorphism."""


class NotMultiplicative(AlgebraError):
    """Candidate endomorphism images violate multiplicativity at a basis pair."""

    def __init__(self, i: int, j: int, detail: str = "") -> None:
        self.pair = (i, j)
        message = f"images not multiplicative at basis pair ({i}, {j})"
        super().__init__(f"{message}: {detail}" if detail else message)


class NotAUnit(AlgebraError):
    """Element is not invertible in the group ring."""


class NotADerivation(AlgebraError):
    """Candidate images do not satisfy the twisted Leibniz rule."""


class NotCentral(AlgebraError):
    """Endomorphism does not fix the center of the group ring pointwise."""


class NotAWitness(AlgebraError):
    """Supplied element is not an inner witness for the given derivation."""


class NotAbelian(AlgebraError):
    """Operation requires an abelian group."""


class DifferenceNotAUnit(AlgebraError):
    """tau(b) - sigma(b) is not invertible for the supplied b."""


class NotAnAutomorphism(AlgebraError):
    """Index map is not a group automorphism."""


class AbelianBase(AlgebraError):
    """Truncation construction requires a non-abelian base group."""


class NotClassPreserving(AlgebraError):
    """Automorphism does not fix every conjugacy class setwise."""


class CentralChoice(AlgebraError):
    """Chosen truncation witness element is central in the base group."""


class Cancelled(RuntimeError):
    """A cooperative cancellation token was triggered mid-computation."""
