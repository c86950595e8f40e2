import itertools

import numpy as np
import pytest

from momentcert import (
    Scenario,
    SchemaError,
    build_structure,
    generate_basis,
    ingest_table,
    key_name,
    moment_kind,
    word_product,
)
from momentcert.algebra import validate_moment_key

from helpers import brute_force_words


def _names(words):
    return [key_name(w) or "I" for w in words]


def test_scenario_validation():
    Scenario(1, 1)
    with pytest.raises(ValueError):
        Scenario(0, 2)
    with pytest.raises(ValueError):
        Scenario(2, 0)
    # A scenario is dichotomic by definition; a table that claims otherwise
    # is rejected where it is read.
    document = {"schema_version": 1, "scenario": {"parties": 2, "settings": 2, "outcomes": 3},
                "moments": []}
    with pytest.raises(SchemaError, match=r"scenario\.outcomes"):
        ingest_table(document)


NOT_INTEGERS = [True, False, 2.0, 2.5, "2", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_scenario_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="parties"):
        Scenario(bad, 2)
    with pytest.raises(ValueError, match="settings"):
        Scenario(3, bad)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_level_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="level"):
        generate_basis(Scenario(3, 2), bad)
    # The structure cache tells True from 1, so the check runs even after a
    # level-1 build.
    build_structure(Scenario(1, 1), 1)
    with pytest.raises(ValueError, match="level"):
        build_structure(Scenario(1, 1), bad)


def test_numpy_integers_are_integers():
    scenario = Scenario(np.int64(3), np.int32(2))
    assert scenario == Scenario(3, 2)
    assert generate_basis(scenario, np.int64(2)) == generate_basis(Scenario(3, 2), 2)


def test_basis_222_matches_printed_order():
    basis = generate_basis(Scenario(2, 2), 2)
    assert _names(basis) == [
        "I", "A0", "A1", "B0", "B1",
        "A0A1", "A0B0", "A0B1", "A1B0", "A1B1", "B0B1",
    ]


def test_basis_322_has_22_words_ending_c0c1():
    basis = generate_basis(Scenario(3, 2), 2)
    assert len(basis) == 22
    assert key_name(basis[-1]) == "C0C1"
    assert _names(basis[:8]) == ["I", "A0", "A1", "B0", "B1", "C0", "C1", "A0A1"]


def test_basis_minimal_scenario():
    basis = generate_basis(Scenario(1, 1), 1)
    assert _names(basis) == ["I", "A0"]


def test_basis_332_count():
    basis = generate_basis(Scenario(3, 3), 2)
    assert len(basis) == 46
    singles = [w for w in basis if len(w) == 1]
    pairs = [w for w in basis if len(w) == 2]
    same_party = [w for w in pairs if w[0][0] == w[1][0]]
    assert len(singles) == 9
    assert len(same_party) == 9
    assert len(pairs) - len(same_party) == 27


def test_basis_rejects_level_zero():
    with pytest.raises(ValueError):
        generate_basis(Scenario(2, 2), 0)


@pytest.mark.parametrize("parties,settings,level", [
    (1, 1, 1), (2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 3, 2), (2, 2, 3),
])
def test_basis_agrees_with_brute_force_enumeration(parties, settings, level):
    scenario = Scenario(parties, settings)
    basis = generate_basis(scenario, level)
    expected = brute_force_words(scenario, level)
    assert set(basis) == expected
    assert len(basis) == len(expected)


def test_word_product_examples():
    a0a1 = ((1, 0), (1, 1))
    a1 = ((1, 1),)
    assert word_product(a0a1, a1) == ((1, 0),)
    anything = ((1, 0), (2, 1))
    assert word_product((), anything) == anything
    a0b0 = ((1, 0), (2, 0))
    a1b1 = ((1, 1), (2, 1))
    assert key_name(word_product(a0b0, a1b1)) == "A0A1B0B1"
    # Products come back sorted whatever the operands' letters interleave.
    assert word_product(((2, 1),), ((1, 0), (3, 0))) == ((1, 0), (2, 1), (3, 0))


def test_word_product_involution():
    s = Scenario(3, 2)
    for w in generate_basis(s, 2):
        assert word_product(w, w) == ()


def test_fold_order_independence():
    # Folding any permutation of a factor list must give one canonical word.
    s = Scenario(3, 3)
    rng = np.random.default_rng(7)
    letters = s.letters()
    for _ in range(50):
        count = rng.integers(2, 6)
        factors = [(letters[i],) for i in rng.integers(0, len(letters), count)]
        results = set()
        for perm in itertools.permutations(factors):
            out = ()
            for f in perm:
                out = word_product(out, f)
                assert list(out) == sorted(set(out))
            results.add(out)
        assert len(results) == 1


def test_associativity_on_random_words():
    s = Scenario(3, 3)
    basis = generate_basis(s, 2)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (basis[i] for i in rng.integers(0, len(basis), 3))
        left = word_product(word_product(a, b), c)
        right = word_product(a, word_product(b, c))
        assert left == right


def test_classify_examples():
    letters = word_product(((3, 1),), ((1, 0), (2, 0)))
    assert moment_kind(letters) == "observable"
    assert letters == ((1, 0), (2, 0), (3, 1))

    assert moment_kind(word_product(((2, 1),), ((2, 0),))) == "freevar"

    assert moment_kind(word_product(((2, 1),), ((2, 1),))) == "unit"


def test_classify_depends_only_on_canonical_word():
    # Two different factor sequences reducing to the same word share a moment.
    w1 = word_product(((1, 0), (1, 1)), ((1, 1),))
    w2 = word_product(((1, 0), (2, 0)), ((2, 0),))
    assert w1 == w2 == ((1, 0),)
    assert moment_kind(w1) == moment_kind(w2) == "observable"


def test_key_name_roundtrip_display():
    assert key_name(((1, 0), (2, 0), (3, 1))) == "A0B0C1"
    assert key_name(((2, 0), (2, 1))) == "B0B1"


def test_validate_moment_key_rejects_malformed_keys():
    scenario = Scenario(3, 2)
    validate_moment_key(scenario, ((1, 0), (3, 1)))
    for key, message in (
        ((), "non-empty"),
        (((2, 0), (1, 0)), "strictly increasing"),
        (((1, 0), (1, 1)), "strictly increasing"),
        (((4, 0),), "outside scenario"),
        (((1, 2),), "outside scenario"),
    ):
        with pytest.raises(ValueError, match=message):
            validate_moment_key(scenario, key)
