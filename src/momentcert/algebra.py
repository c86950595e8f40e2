"""Measurement scenarios and canonical words of local dichotomic observables.

A word is a formal product of per-party measurement letters ``(party,
setting)``.  Every letter is a Hermitian involution, and in the commuting
relaxation all letters commute, including letters of the same party.  A
product therefore reduces to the per-party symmetric difference of its
setting multisets: repeated letters cancel (``M^2 = I``), order is
irrelevant, and each word has a unique sorted normal form.  Adjoints act
trivially on canonical words, so the moment matrix built on top of this
algebra is real symmetric.

Conventions, frozen project-wide: parties are 1-based (party 1 is the
leftmost tensor factor), settings are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ScenarioMismatch

# A letter is one local measurement choice; a moment key is the sorted letter
# list of a word in which each party appears at most once.
Letter = tuple[int, int]
MomentKey = tuple[Letter, ...]

_PARTY_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


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
    """An (N, m, d) measurement scenario with d fixed to 2.

    Parameters
    ----------
    parties : int
        Number of parties N, at least 1.
    settings : int
        Number of measurement choices m per party, at least 1.
    outcomes : int
        Number of outcomes per measurement.  Only dichotomic measurements
        are supported; anything other than 2 is rejected because the +-1
        correlator encoding below is specific to two outcomes.
    """

    parties: int
    settings: int
    outcomes: int = 2

    def __post_init__(self):
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        if self.settings < 1:
            raise ValueError(f"settings must be >= 1, got {self.settings}")
        if self.outcomes != 2:
            raise ValueError(
                f"only dichotomic scenarios (outcomes=2) are supported, got {self.outcomes}"
            )

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
        "outcomes": scenario.outcomes,
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


@dataclass(frozen=True)
class OperatorWord:
    """A canonical word: sorted, duplicate-free letters of one scenario.

    The empty word is the unit.  Construction validates canonicity rather
    than repairing it; use :func:`word_product` to reduce products.
    """

    scenario: Scenario
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for letter in self.letters:
            if not self.scenario.valid_letter(letter):
                raise ValueError(f"letter {letter!r} outside scenario {self.scenario!r}")
        if list(self.letters) != sorted(set(self.letters)):
            raise ValueError(f"letters must be sorted and distinct: {self.letters!r}")

    @property
    def is_unit(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def name(self) -> str:
        return "I" if self.is_unit else key_name(self.letters)


def unit_word(scenario: Scenario) -> OperatorWord:
    return OperatorWord(scenario, ())


def word(scenario: Scenario, *letters: Letter) -> OperatorWord:
    """Convenience constructor; letters may be given in any order."""
    return OperatorWord(scenario, tuple(sorted(letters)))


def word_product(left: OperatorWord, right: OperatorWord) -> OperatorWord:
    """Canonical form of the product of two words.

    Per party the setting lists combine by symmetric difference: a letter
    present in both operands squares to the identity and disappears.  The
    adjoint of a canonical word is itself, so this also computes the
    canonical form of ``left^dagger * right``.
    """
    if left.scenario != right.scenario:
        raise ScenarioMismatch(
            f"cannot multiply words of {left.scenario!r} and {right.scenario!r}"
        )
    merged = set(left.letters) ^ set(right.letters)
    return OperatorWord(left.scenario, tuple(sorted(merged)))


@dataclass(frozen=True)
class MomentRef:
    """What a moment-matrix entry refers to.

    ``unit`` entries are the constant 1 (the word was empty), ``observable``
    entries carry a :data:`MomentKey` and are measurable as a tensor-product
    correlator, and ``freevar`` entries correspond to words in which some
    party contributes two or more settings.  Such a product is not Hermitian
    in an actual realization, so its moment is not observable and enters the
    feasibility problem as an optimization variable.  The variable id is the
    canonical letter tuple itself, so identical words share one variable.
    """

    kind: str
    key: MomentKey | None = None
    var: tuple[Letter, ...] | None = None

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"

    @property
    def is_observable(self) -> bool:
        return self.kind == "observable"

    @property
    def is_freevar(self) -> bool:
        return self.kind == "freevar"


UNIT_REF = MomentRef("unit")


def classify(w: OperatorWord) -> MomentRef:
    """Classify a canonical word as Unit, Observable or FreeVar."""
    if w.is_unit:
        return UNIT_REF
    parties = [party for party, _ in w.letters]
    if len(set(parties)) == len(parties):
        return MomentRef("observable", key=w.letters)
    return MomentRef("freevar", var=w.letters)


def generate_basis(scenario: Scenario, level: int) -> list[OperatorWord]:
    """All canonical words of at most ``level`` letters, in frozen order.

    The order is the one used throughout: the unit first, then words of
    length 1, 2, ... with each length block sorted lexicographically by its
    letter tuple.  Every product of at most ``level`` measurement operators
    reduces to exactly one element of this list, so no deduplication is
    needed.
    """
    if level < 1:
        raise ValueError(f"hierarchy level must be >= 1, got {level}")
    letters = scenario.letters()
    basis = []
    for length in range(level + 1):
        for combo in combinations(letters, length):
            basis.append(OperatorWord(scenario, combo))
    return basis
