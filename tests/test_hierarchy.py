import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    CorrelatorTable,
    MissingMoment,
    PinPolicy,
    RangeError,
    Scenario,
    assemble,
    build_structure,
    key_name,
    moment_kind,
    structure_report,
    word_product,
)

from momentcert.algebra import key_document, scenario_document
from momentcert.analysis import white_noise_family

from helpers import dense_patterns, entry_at, moment_positions, random_family

# Index positions below refer to the level-2 basis order:
# I, A0, A1, B0, B1, A0A1, A0B0, A0B1, A1B0, A1B1, B0B1.
A0, A1, B0, B1 = ((1, 0),), ((1, 1),), ((2, 0),), ((2, 1),)


def test_golden_222_structure(structure_222):
    st = structure_222
    assert st.dim == 11
    assert len(st.observables) == 8
    assert set(st.observables) == {
        ((1, 0),), ((1, 1),), ((2, 0),), ((2, 1),),
        ((1, 0), (2, 0)), ((1, 0), (2, 1)), ((1, 1), (2, 0)), ((1, 1), (2, 1)),
    }
    assert len(st.freevars) == 7
    names = {"".join(f"{'AB'[p-1]}{x}" for p, x in var) for var in st.freevars}
    assert names == {"A0A1", "B0B1", "A0A1B0", "A0A1B1", "A0B0B1", "A1B0B1", "A0A1B0B1"}


def test_golden_222_identifications(structure_222):
    st = structure_222
    # A1 * A0A1 reduces to A0: a variable slot becomes the observable <A0>.
    assert entry_at(st, 2, 5) == A0
    # B1 * B0B1 -> <B0>
    assert entry_at(st, 4, 10) == B0
    # A0A1 * A1B0 and A0B1 * B0B1 both reduce to <A0B0>.
    assert entry_at(st, 5, 8) == A0 + B0
    assert entry_at(st, 7, 10) == A0 + B0
    # A0A1 * A1B1 -> <A0B1>;  A1B1 * B0B1 -> <A1B0>
    assert entry_at(st, 5, 9) == A0 + B1
    assert entry_at(st, 9, 10) == A1 + B0
    # The three four-letter products collapse onto one variable.
    merged = {entry_at(st, 5, 10), entry_at(st, 6, 9), entry_at(st, 7, 8)}
    assert len(merged) == 1
    assert moment_kind(merged.pop()) == "freevar"


def test_structure_322(structure_322):
    st = structure_322
    assert st.dim == 22
    for i in range(22):
        assert entry_at(st, i, i) == ()
    assert len(st.observables) == 26
    by_bodies = {}
    for key in st.observables:
        by_bodies[len(key)] = by_bodies.get(len(key), 0) + 1
    assert by_bodies == {1: 6, 2: 12, 3: 8}
    # 1-based entry (4, 12): the product B0 * A0C1 is the observable A0B0C1.
    assert entry_at(st, 3, 11) == ((1, 0), (2, 0), (3, 1))
    assert key_name(word_product(st.words[3], st.words[11])) == "A0B0C1"
    # The word B0B1 (the -i sigma_y moment when the settings are x and z)
    # is not observable; 1-based it sits at (1, 17), and (1, 18) is B0C0.
    assert moment_kind(entry_at(st, 0, 16)) == "freevar"
    assert key_name(word_product(st.words[0], st.words[16])) == "B0B1"
    assert entry_at(st, 0, 17) == ((2, 0), (3, 0))


def test_structure_trivial():
    st = build_structure(Scenario(1, 1), 1)
    assert st.dim == 2
    assert entry_at(st, 0, 0) == ()
    assert entry_at(st, 1, 1) == ()
    assert entry_at(st, 0, 1) == ((1, 0),)
    assert st.freevars == ()


def test_structure_level_three_smoke():
    # Levels above 2 follow the same combinatorial rule.
    st = build_structure(Scenario(2, 2), 3)
    assert st.dim == 15
    for i in range(st.dim):
        assert entry_at(st, i, i) == ()


def test_structure_332(structure_332):
    st = structure_332
    assert st.dim == 46
    assert len(st.observables) == 63
    by_bodies = {}
    for key in st.observables:
        by_bodies[len(key)] = by_bodies.get(len(key), 0) + 1
    assert by_bodies == {1: 9, 2: 27, 3: 27}


def test_entry_symmetry(structure_322):
    st = structure_322
    for i in range(st.dim):
        for j in range(st.dim):
            assert entry_at(st, i, j) == entry_at(st, j, i) == word_product(st.words[j], st.words[i])


def test_identification_soundness(structure_322):
    # Entries sharing a moment must come from the same canonical word.
    st = structure_322
    by_ref = {}
    for i in range(st.dim):
        for j in range(i, st.dim):
            by_ref.setdefault(entry_at(st, i, j), []).append((i, j))
    for ref, positions in by_ref.items():
        words = {word_product(st.words[i], st.words[j]) for i, j in positions}
        assert len(words) == 1


def _full_table(structure, value=0.1):
    return CorrelatorTable.from_values(
        structure.scenario, {key: value for key in structure.observables}
    )


def test_assemble_pin_all(structure_322):
    rng = np.random.default_rng(3)
    values = {key: float(rng.uniform(-1, 1)) for key in structure_322.observables}
    table = CorrelatorTable.from_values(structure_322.scenario, values)
    family = assemble(structure_322, table, PinPolicy.all())
    assert family.dim == 22
    assert len(family.pinned_keys) == 26
    assert family.variables == structure_322.freevars
    assert all(moment_kind(var) == "freevar" for var in family.variables)
    assert np.allclose(np.diag(family.gamma0), 1.0)
    # Every pinned value lands at every position carrying its key.
    for key, positions in moment_positions(structure_322, structure_322.observables).items():
        for i, j in positions:
            assert family.gamma0[i, j] == values[key]


def test_assemble_max_bodies(structure_322):
    table = _full_table(structure_322)
    family = assemble(structure_322, table, PinPolicy.max_bodies(2))
    three_body = [key for key in structure_322.observables if len(key) == 3]
    assert len(three_body) == 8
    unpinned = [var for var in family.variables if moment_kind(var) == "observable"]
    assert sorted(unpinned) == sorted(three_body)
    assert family.num_variables == len(structure_322.freevars) + 8


def test_assemble_trivial_family():
    st = build_structure(Scenario(1, 1), 1)
    table = CorrelatorTable.from_values(st.scenario, {((1, 0),): 0.4})
    family = assemble(st, table)
    assert family.num_variables == 0
    assert np.allclose(family.gamma0, [[1.0, 0.4], [0.4, 1.0]])


def test_assemble_missing_moment(structure_322):
    values = {key: 0.0 for key in structure_322.observables[:-1]}
    table = CorrelatorTable.from_values(structure_322.scenario, values)
    with pytest.raises(MissingMoment):
        assemble(structure_322, table, PinPolicy.all())


def test_assemble_range_error(structure_322):
    with pytest.raises(RangeError):
        CorrelatorTable.from_values(structure_322.scenario, {((1, 0),): 1.2})


def test_explicit_policy_validates_keys(structure_322):
    table = _full_table(structure_322)
    good = PinPolicy.explicit(structure_322.observables[:5])
    family = assemble(structure_322, table, good)
    assert len(family.pinned_keys) == 5
    bad = PinPolicy.explicit([((1, 0), (1, 1))])
    with pytest.raises(ValueError):
        assemble(structure_322, table, bad)


def test_support_partition(structure_322):
    family = assemble(structure_322, _full_table(structure_322), PinPolicy.max_bodies(1))
    dim = family.dim
    covered = np.zeros((dim, dim))
    for pattern in dense_patterns(family):
        covered += pattern
    pinned_mask = (family.gamma0 != 0.0) & ~np.eye(dim, dtype=bool)
    covered += pinned_mask
    # Pinned values of exactly zero do not show in gamma0; account for them
    # through the structure's observable positions instead.
    positions = moment_positions(structure_322, structure_322.observables)
    for key, value in zip(family.pinned_keys, family.pinned_values):
        if value == 0.0:
            for i, j in positions[key]:
                covered[i, j] += 1
                covered[j, i] += 1
    off_diagonal = ~np.eye(dim, dtype=bool)
    assert np.all(covered[off_diagonal] == 1.0)
    assert np.all(covered[~off_diagonal] == 0.0)


def test_family_stores_its_support_grouped(structure_322):
    # assemble's support is grouped already and is stored read-only, the
    # same for every assembly; a white-noise mix shares its parent's arrays.
    # A support in another order is regrouped by variable, each group
    # keeping its given order.
    family = assemble(structure_322, _full_table(structure_322), PinPolicy.all())
    again = assemble(structure_322, _full_table(structure_322), PinPolicy.all())
    mixed = white_noise_family(family, 0.5)
    for layout, kept, mixed_kept in zip(family.support, again.support, mixed.support):
        assert np.array_equal(kept, layout) and not kept.flags.writeable
        assert not layout.flags.writeable and mixed_kept is layout
    rows, cols, vidx = family.support
    order = np.random.default_rng(3).permutation(rows.size)
    shuffled = dataclasses.replace(family, support=(rows[order], cols[order], vidx[order]))
    grouped = order[np.argsort(vidx[order], kind="stable")]
    for stored, before in zip(shuffled.support, family.support):
        assert np.array_equal(stored, before[grouped])
    assert np.array_equal(shuffled.support[2], vidx)


@pytest.mark.parametrize("bad", [True, 1.5, 2.0, -1, None, "2"], ids=repr)
def test_max_bodies_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="body count"):
        PinPolicy.max_bodies(bad)
    assert PinPolicy.max_bodies(np.int64(2)).describe() == {"kind": "max_bodies", "bodies": 2}
    assert type(PinPolicy.max_bodies(np.int64(2)).bodies) is int


def test_gamma_stays_symmetric_and_bounded(structure_322):
    rng = np.random.default_rng(5)
    values = {key: float(rng.uniform(-1, 1)) for key in structure_322.observables}
    table = CorrelatorTable.from_values(structure_322.scenario, values)
    family = assemble(structure_322, table)
    for _ in range(5):
        v = rng.uniform(-1.0, 1.0, family.num_variables)
        gamma = family.gamma(v)
        assert np.allclose(gamma, gamma.T)
        assert np.allclose(np.diag(gamma), 1.0)
        assert np.abs(gamma).max() <= 1.0 + 1e-12


def test_structure_report_is_json_ready(structure_222):
    report = structure_report(structure_222)
    text = json.dumps(report)
    parsed = json.loads(text)
    assert parsed["dim"] == 11
    assert parsed["words"][0] == "I"
    assert parsed["counts"] == {"observables": 8, "freevars": 7}
    assert len(parsed["entries"]) == 11 * 12 // 2
    assert parsed["entries"][0] == {"row": 1, "col": 1, "kind": "unit"}


def test_structure_report_other_scenarios(structure_322):
    report = structure_report(structure_322)
    assert len(report["words"]) == 22
    assert report["counts"]["observables"] == 26

    tiny = structure_report(build_structure(Scenario(1, 1), 1))
    assert tiny["words"] == ["I", "A0"]
    assert tiny["counts"] == {"observables": 1, "freevars": 0}


def _report_from_words(structure):
    """The structure document rebuilt from its words and word_product alone."""
    words = structure.words
    n = len(words)
    products = {(i, j): word_product(words[i], words[j]) for i in range(n) for j in range(i, n)}
    entries = []
    for (i, j), letters in sorted(products.items()):
        kind = moment_kind(letters)
        entry = {"row": i + 1, "col": j + 1, "kind": kind}
        if kind != "unit":
            entry["key" if kind == "observable" else "var"] = key_name(letters)
        entries.append(entry)
    distinct = list(dict.fromkeys(products.values()))
    observables = [m for m in distinct if moment_kind(m) == "observable"]
    freevars = [m for m in distinct if moment_kind(m) == "freevar"]
    return {
        "schema_version": 1,
        "kind": "structure",
        "scenario": scenario_document(structure.scenario),
        "level": structure.level,
        "dim": n,
        "words": [key_name(w) or "I" for w in words],
        "entries": entries,
        "observables": [{"name": key_name(key), **key_document(key)} for key in observables],
        "freevars": [key_name(var) for var in freevars],
        "counts": {"observables": len(observables), "freevars": len(freevars)},
    }


@pytest.mark.parametrize(
    "parties, settings, level",
    [(2, 2, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)],
    ids=["222-level2", "322-level1", "322-level2", "322-level3", "332-level2", "422-level2"],
)
def test_structure_report_matches_one_rebuilt_from_words(parties, settings, level):
    # The report reads its entries from the support; rebuilt here from the
    # basis words, it must come out the same, and the support must hold each
    # position above the diagonal exactly once and none on it.
    structure = build_structure(Scenario(parties, settings), level)
    assert structure_report(structure) == _report_from_words(structure)
    rows, cols, _ = structure.support
    n = structure.dim
    counts = np.bincount(rows * n + cols, minlength=n * n).reshape(n, n)
    assert np.array_equal(counts, np.triu(np.ones((n, n), dtype=int), 1))


def _dense_reference(structure, table, policy):
    """The family assembled entry by entry from the structure's positions."""
    observables = moment_positions(structure, structure.observables)
    gamma0 = np.eye(structure.dim)
    variables, groups = [], []
    for key in structure.observables:
        if policy.selects(key):
            value = float(np.clip(table.value(key), -1.0, 1.0))
            for i, j in observables[key]:
                gamma0[i, j] = gamma0[j, i] = value
            continue
        variables.append(key)
        groups.append(observables[key])
    for var, positions in moment_positions(structure, structure.freevars).items():
        variables.append(var)
        groups.append(positions)
    patterns = np.zeros((len(groups), structure.dim, structure.dim))
    for k, group in enumerate(groups):
        for i, j in group:
            patterns[k, i, j] = patterns[k, j, i] = 1.0
    return gamma0, tuple(variables), groups, patterns


@pytest.mark.parametrize(
    "policy",
    [
        PinPolicy.all(),
        PinPolicy.max_bodies(2),
        PinPolicy.explicit([((1, 0),), ((1, 1), (2, 0)), ((1, 0), (2, 1), (3, 1))]),
    ],
    # The ids are those of the time the test also took a sigma multiplier.
    ids=["policy0-None", "policy1-None", "policy2-None"],
)
def test_assemble_matches_dense_reference(structure_322, policy):
    _assert_matches_dense_reference(structure_322, policy)


def _drawn_pin_sets(structure, seed, count=4):
    """Explicit policies: no key, every key, and ``count`` random subsets of all sizes."""
    rng = np.random.default_rng(seed)
    keys = structure.observables
    drawn = [[key for key in keys if rng.random() < share] for share in rng.uniform(0.0, 1.0, count)]
    return [PinPolicy.explicit(chosen) for chosen in ([], keys, *drawn)]


@pytest.mark.parametrize(
    "scenario, level",
    [(Scenario(3, 2), 2), (Scenario(3, 3), 2), (Scenario(3, 2), 3)],
    ids=["322-level2", "332-level2", "322-level3"],
)
def test_assemble_matches_dense_reference_for_drawn_pin_sets(scenario, level):
    # Every pin set is a mask over the structure's moments; the masked
    # slices of its support must give the family built entry by entry.
    structure = build_structure(scenario, level)
    policies = [PinPolicy.all(), PinPolicy.max_bodies(2), *_drawn_pin_sets(structure, 7 * level)]
    for seed, policy in enumerate(policies):
        _assert_matches_dense_reference(structure, policy, seed)


def _assert_matches_dense_reference(structure, policy, seed=19):
    rng = np.random.default_rng(seed)
    # Sigmas of every kind, absent, zero and positive, which assemble does
    # not read; values at and beyond the ends of [-1, 1] exercise the
    # clipping.
    sigmas = [None, 0.0, 0.01, 0.3]
    entries = {
        key: (float(rng.choice([rng.uniform(-1, 1), 1.0, -1.0, 1.0 + 5e-10])), sigmas[n % 4])
        for n, key in enumerate(structure.observables)
    }
    table = CorrelatorTable(structure.scenario, entries)
    family = assemble(structure, table, policy)
    gamma0, variables, groups, patterns = _dense_reference(structure, table, policy)
    assert family.gamma0.tobytes() == gamma0.tobytes()
    assert family.variables == variables
    rows, cols, vidx = family.support
    assert np.array_equal(rows, [i for group in groups for i, _ in group])
    assert np.array_equal(cols, [j for group in groups for _, j in group])
    assert np.array_equal(vidx, [k for k, group in enumerate(groups) for _ in group])
    assert np.array_equal(dense_patterns(family).reshape(patterns.shape), patterns)
    pinned = [key for key in structure.observables if policy.selects(key)]
    assert family.pinned_keys == tuple(pinned)
    assert family.pinned_values.tolist() == [float(np.clip(entries[key][0], -1, 1)) for key in pinned]
    if len(pinned) == len(structure.observables):
        # Reports keep these tuples, so a full pin shares the structure's.
        assert family.pinned_keys is structure.observables and family.variables is structure.freevars
    v = rng.uniform(-1, 1, family.num_variables)
    assert np.array_equal(family.gamma(v), gamma0 + np.einsum("k,kij->ij", v, patterns))


def test_structure_is_compiled_once_and_read_only():
    scenario = Scenario(2, 2)
    first = build_structure(scenario, 2)
    assert build_structure(Scenario(2, 2), 2) is first
    for array in (*first.support, first.observable_settings):
        assert array.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("scenario, level", [(Scenario(2, 2), 2), (Scenario(3, 3), 2), (Scenario(3, 2), 3)])
def test_structure_index_maps_match_its_entries(scenario, level):
    # The support lists every position above the diagonal once, grouped by
    # moment and row-major in each group, and the settings table holds each
    # observable's letters.
    structure = build_structure(scenario, level)
    moments = structure.observables + structure.freevars
    positions = moment_positions(structure, moments)
    rows, cols, moment = structure.support
    assert rows.size == structure.dim * (structure.dim - 1) // 2
    assert list(zip(rows.tolist(), cols.tolist())) == [ij for m in moments for ij in positions[m]]
    assert np.array_equal(moment, [k for k, m in enumerate(moments) for _ in positions[m]])
    for k, key in enumerate(structure.observables):
        column = structure.observable_settings[:, k]
        assert dict(key) == {p + 1: int(s) for p, s in enumerate(column) if s >= 0}


def _matrix_layouts(rng, n):
    # The same kind of Z in three memory layouts that are not C-contiguous:
    # a transposed view, a strided slice and a Fortran-ordered copy.
    return [
        rng.normal(size=(n, n)).T,
        rng.normal(size=(2 * n, 3 * n))[::2, ::3],
        np.asfortranarray(rng.normal(size=(n, n))),
    ]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_family_maps_match_dense_patterns(seed):
    # combine and inner run on the support's flat positions; they must
    # agree with the dense sums over the 0/1 patterns G_k whatever the
    # layout of Z, and stay adjoint.
    rng = np.random.default_rng(seed)
    family = random_family(rng, int(rng.integers(2, 10)), int(rng.integers(0, 16)))
    patterns = dense_patterns(family)
    v = rng.uniform(-1.0, 1.0, family.num_variables)
    combined = family.combine(v)
    assert np.array_equal(combined, np.einsum("k,kij->ij", v, patterns))
    for z in _matrix_layouts(rng, family.dim):
        assert not z.flags.c_contiguous
        dense = np.einsum("kij,ij->k", patterns, z)
        assert np.abs(family.inner(z) - dense).max(initial=0.0) <= 1e-12
        assert abs(np.vdot(combined, z) - v @ family.inner(z)) <= 1e-12
