"""Base sequences, shifted generator sequences, and gcd normalization.

A base sequence holds the fixed differences (a1 < ... < an) of a shift
family; shifting by j produces the concrete generator sequence
(j, j+a1, ..., j+an) of a monomial curve.  All types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _check_increasing(entries: tuple[int, ...], what: str) -> None:
    if not entries:
        raise ValueError(f"{what} must have at least one entry")
    for x in entries:
        if type(x) is not int or x < 1:  # bool is an int subclass, so True == 1
            raise ValueError(f"{what} entries must be positive integers, got {x!r}")
    for a, b in zip(entries, entries[1:]):
        if a >= b:
            raise ValueError(f"{what} must be strictly increasing, got {entries}")


@dataclass(frozen=True)
class BaseSequence:
    """Differences a1 < a2 < ... < an defining a shift family."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_increasing(self.entries, "base sequence")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def period(self) -> int:
        """The last difference a_n; the eventual period of the family."""
        return self.entries[-1]

    def __str__(self) -> str:
        return format_sequence(self.entries)


@dataclass(frozen=True, slots=True)
class GeneratorSequence:
    """A strictly increasing sequence of semigroup generators g0 < ... < gm."""

    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", tuple(self.gens))
        _check_increasing(self.gens, "generator sequence")

    def __len__(self) -> int:
        return len(self.gens)

    def __str__(self) -> str:
        return format_sequence(self.gens)


def shift(base: BaseSequence, j: int) -> GeneratorSequence:
    """Return (j, j+a1, ..., j+an) for the shift value j >= 1."""
    if j < 1:
        raise ValueError(f"shift value must be >= 1, got {j}")
    return GeneratorSequence((j,) + tuple(j + a for a in base.entries))


def normalize(seq: GeneratorSequence) -> tuple[int, GeneratorSequence]:
    """Divide out the common gcd d; returns (d, seq/d).

    Scaling all generators by a constant does not change the defining
    toric ideal, so every criterion works on the reduced sequence.
    """
    d = gcd(*seq.gens)
    if d == 1:
        return 1, seq
    return d, GeneratorSequence(tuple(g // d for g in seq.gens))


def differences(base: BaseSequence) -> tuple[int, ...]:
    """Consecutive differences (a1, a2-a1, ..., an-a(n-1)); they sum to a_n."""
    prev = 0
    out = []
    for a in base.entries:
        out.append(a - prev)
        prev = a
    return tuple(out)


def parse_entries(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list like "11,16,28"."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty sequence literal: {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad sequence literal {text!r}: {exc}") from None


def parse_base(text: str) -> BaseSequence:
    return BaseSequence(parse_entries(text))


def parse_gens(text: str) -> GeneratorSequence:
    return GeneratorSequence(parse_entries(text))


def format_sequence(entries: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in entries)
