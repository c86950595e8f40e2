"""Measurement scenarios and canonical words of local dichotomic observables.

A word is a formal product of per-party measurement letters ``(party,
setting)``.  Every letter is a Hermitian involution, and in the commuting
relaxation all letters commute, including letters of the same party.  A
product therefore reduces to the per-party symmetric difference of its
setting multisets: repeated letters cancel (``M^2 = I``), order is
irrelevant, and each word has a unique sorted normal form.  A word is
that normal form: the sorted tuple of its distinct letters, the empty tuple
being the unit, just as a moment is.  Adjoints act trivially on canonical
words, so the moment matrix built on top of this algebra is real symmetric.

Conventions, frozen project-wide: parties are 1-based (party 1 is the
leftmost tensor factor), settings are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from numbers import Integral, Real

# A letter is one local measurement choice; a moment is the sorted letter
# tuple of a canonical word, and a moment key is a moment in which each party
# appears at most once.
Letter = tuple[int, int]
Moment = tuple[Letter, ...]
MomentKey = tuple[Letter, ...]

_PARTY_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def checked_integer(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; ValueError for a bool, a non-integer or a value below ``minimum``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def checked_real(value, name: str) -> float:
    """``value`` as a float; ValueError for a bool, a non-real or a value no finite float holds."""
    try:
        number = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer or fraction beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return number


def party_name(party: int) -> str:
    """Display name of a 1-based party index (A, B, C, ...)."""
    if 1 <= party <= len(_PARTY_ALPHABET):
        return _PARTY_ALPHABET[party - 1]
    return f"[{party}]"


def letter_name(letter: Letter) -> str:
    party, setting = letter
    return f"{party_name(party)}{setting}"


def key_name(key: MomentKey) -> str:
    """Compact display form of a moment key, e.g. ``A0B0C1``."""
    return "".join(letter_name(letter) for letter in key)


@dataclass(frozen=True)
class Scenario:
    """An (N, m, 2) measurement scenario: every measurement is dichotomic.

    ``parties`` N and ``settings`` m, the measurement choices per party, are
    integers >= 1, stored as int.
    """

    parties: int
    settings: int

    def __post_init__(self):
        for name in ("parties", "settings"):
            object.__setattr__(self, name, checked_integer(getattr(self, name), name))

    def letters(self) -> list[Letter]:
        """All letters of the scenario in sorted (party, setting) order."""
        return [
            (party, setting)
            for party in range(1, self.parties + 1)
            for setting in range(self.settings)
        ]

    def valid_letter(self, letter: Letter) -> bool:
        party, setting = letter
        return 1 <= party <= self.parties and 0 <= setting < self.settings


def scenario_document(scenario: Scenario) -> dict:
    """The JSON form of a scenario, shared by every document that records one."""
    return {
        "parties": scenario.parties,
        "settings": scenario.settings,
        "outcomes": 2,
    }


def key_document(key: MomentKey) -> dict:
    """The JSON form of a moment key: its ``parties`` and ``settings`` lists."""
    return {
        "parties": [party for party, _ in key],
        "settings": [setting for _, setting in key],
    }


def validate_moment_key(scenario: Scenario, key: MomentKey) -> None:
    """Reject keys that are empty, unsorted, out of range, or reuse a party."""
    if len(key) == 0:
        raise ValueError("moment key must be non-empty")
    parties = [party for party, _ in key]
    if parties != sorted(parties) or len(set(parties)) != len(parties):
        raise ValueError(f"moment key parties must be strictly increasing: {key!r}")
    for letter in key:
        if not scenario.valid_letter(letter):
            raise ValueError(f"letter {letter!r} outside scenario {scenario!r}")


def word_product(left: Moment, right: Moment) -> Moment:
    """Canonical form of the product of two words, each a sorted letter tuple.

    Per party the setting lists combine by symmetric difference: a letter
    present in both operands squares to the identity and disappears.  The
    adjoint of a canonical word is itself, so this also computes the
    canonical form of ``left^dagger * right``.
    """
    return tuple(sorted(set(left) ^ set(right)))


def moment_kind(letters: Moment) -> str:
    """What the moment of a canonical word's letters is.

    ``unit`` for the empty word, whose moment is the constant 1;
    ``observable`` when every party appears at most once, so the letters
    are a :data:`MomentKey` measurable as a tensor-product correlator; and
    ``freevar`` when some party contributes two or more settings.  Such a
    product is not Hermitian in an actual realization, so its moment is not
    observable and enters the feasibility problem as an optimization
    variable, named by the letters themselves.
    """
    if not letters:
        return "unit"
    parties = [party for party, _ in letters]
    return "observable" if len(set(parties)) == len(parties) else "freevar"


def generate_basis(scenario: Scenario, level: int) -> list[Moment]:
    """All canonical words of at most ``level`` letters, in frozen order.

    Each word is its sorted letter tuple.  The order is the one used
    throughout: the unit ``()`` first, then words of length 1, 2, ... with
    each length block sorted lexicographically.  Every product of at most
    ``level`` measurement operators reduces to exactly one element of this
    list, so no deduplication is needed.
    """
    level = checked_integer(level, "hierarchy level")
    letters = scenario.letters()
    return [combo for length in range(level + 1) for combo in combinations(letters, length)]
