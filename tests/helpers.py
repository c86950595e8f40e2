"""Independent oracles the tests check the library against.

Everything here recomputes results through a different route than the
library: brute-force enumeration for the word algebra, Born-rule outcome
distributions for expectations, grid refinement for the solver, dense
projections for duals of the verified form, and an
explicit classical mixture for separable completions, and bisection on
full analyses for the critical visibility.  Hand-built families get their
support from dense 0/1 patterns here, :func:`dense_patterns` turns a
family's support back into those patterns, and :func:`moment_positions`
finds each moment's entries by multiplying a structure's basis words.
"""

import itertools

import numpy as np

from momentcert import (
    INCONCLUSIVE,
    NONLOCAL,
    AnalysisRequest,
    PinPolicy,
    SimulatedSource,
    SolverConfig,
    analyze,
    expectation,
    word_product,
)
from momentcert.hierarchy import AffineMatrixFamily
from momentcert.quantum import IDENTITY_2


def brute_force_words(scenario, level):
    """Every product of at most ``level`` letters, reduced independently.

    Letters are drawn with repetition and in every order; reduction counts
    per-letter multiplicity mod 2, which is all that commutation and
    involution leave behind.
    """
    letters = scenario.letters()
    found = set()
    for length in range(level + 1):
        for sequence in itertools.product(letters, repeat=length):
            counts = {}
            for letter in sequence:
                counts[letter] = counts.get(letter, 0) + 1
            reduced = tuple(sorted(l for l, c in counts.items() if c % 2))
            found.add(reduced)
    return found


def born_probabilities(state, assignment):
    """Outcome distribution of jointly measuring the assigned observables.

    Outcome bit '0' labels the +1 eigenspace.  Returns a map from outcome
    bitstrings (assigned parties in ascending order) to probabilities.
    """
    parties = sorted(assignment)
    projectors = {}
    for party in parties:
        w, v = np.linalg.eigh(assignment[party])
        plus = sum(np.outer(v[:, i], v[:, i].conj()) for i in range(2) if w[i] > 0)
        projectors[party] = {"0": plus, "1": np.eye(2, dtype=complex) - plus}
    distribution = {}
    for bits in itertools.product("01", repeat=len(parties)):
        full = np.array([[1.0]], dtype=complex)
        chosen = dict(zip(parties, bits))
        for party in range(1, state.n + 1):
            if party in chosen:
                full = np.kron(full, projectors[party][chosen[party]])
            else:
                full = np.kron(full, IDENTITY_2)
        distribution["".join(bits)] = float(np.trace(full @ state.rho).real)
    return distribution


def parity_expectation(distribution):
    """Parity-weighted expectation of a dichotomic outcome distribution.

    Each outcome bitstring contributes its probability with sign
    (-1)^(number of 1 outcomes).
    """
    assert abs(sum(distribution.values()) - 1.0) <= 1e-9
    return sum((-1.0) ** bits.count("1") * p for bits, p in distribution.items())


def support_arrays(patterns):
    """The ``support`` of hand-built 0/1 patterns, each group in row-major order."""
    triples = [
        (i, j, k) for k, pattern in enumerate(patterns) for i, j in np.argwhere(np.triu(pattern, 1))
    ]
    rows, cols, vidx = np.array(triples, dtype=np.intp).reshape(-1, 3).T.copy()
    return rows, cols, vidx


def moment_positions(structure, moments):
    """The upper-triangle positions of each of ``moments``, in row-major order.

    Scanned from ``word_product`` of the structure's basis words, not read
    from its support.
    """
    positions = {m: [] for m in moments}
    words = structure.words
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            letters = word_product(words[i], words[j])
            if letters in positions:
                positions[letters].append((i, j))
    return positions


def entry_at(structure, i, j):
    """The letters of entry (i, j) as the structure's support records them.

    Symmetric in i and j.  A position above the diagonal must appear in the
    support exactly once; one on the diagonal must not appear, and is the unit.
    """
    i, j = min(i, j), max(i, j)
    rows, cols, moment = structure.support
    at = np.flatnonzero((rows == i) & (cols == j))
    if i == j:
        assert at.size == 0, f"the support holds the diagonal position {(i, i)}"
        return ()
    (at,) = at
    return (structure.observables + structure.freevars)[moment[at]]


def dense_patterns(family):
    """The dense 0/1 patterns G_k of a family, formed from its support."""
    rows, cols, vidx = family.support
    patterns = np.zeros((family.num_variables, family.dim, family.dim))
    patterns[vidx, rows, cols] = patterns[vidx, cols, rows] = 1.0
    return patterns


def dual_of_the_verified_form(family, z):
    """Any symmetric Z moved onto {Tr Z = 1, <G_k, Z> = 0, Z >= 0}.

    Z loses its component along each dense pattern G_k, is given unit trace
    along I, then is mixed with I / n until its smallest eigenvalue is 0.
    Used to build verifiable duals of every shape, not only the solver's.
    """
    n = family.dim
    for g in dense_patterns(family):
        z = z - np.sum(g * z) / np.sum(g * g) * g
    z = z + (1.0 - np.trace(z)) / n * np.eye(n)
    delta = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
    return (z + delta * np.eye(n)) / (1.0 + n * delta)


def grid_max_lambda_min(family, rounds=12, points=9):
    """Brute-force grid refinement of max lambda_min: a lower-bound oracle.

    Every value it returns is lambda_min at a grid point, so it is attained
    and never above the optimum.  It is good to about 1e-5, not to the
    solver's 1e-8 gap: the refinement can close in on one side of a
    nonsmooth ridge of lambda_min (7.8e-6 short on
    ``random_family(default_rng(12), 6, 2)``).

    The search box is |v_k| <= 1 - lambda_min(gamma0), which holds every
    maximizer: its lambda_star is at least lambda_min at v = 0, and the unit
    diagonal of Gamma(v) - lambda_star I >= 0 keeps |v_k| <= 1 - lambda_star.
    """
    nvars = family.num_variables
    if nvars == 0:
        return float(np.linalg.eigvalsh(family.gamma0)[0])
    radius = 1.0 - float(np.linalg.eigvalsh(family.gamma0)[0])
    lo = np.full(nvars, -radius)
    hi = np.full(nvars, radius)
    best_f, best_v = -np.inf, None
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], points) for k in range(nvars)]
        for combo in itertools.product(*axes):
            v = np.array(combo)
            f = float(np.linalg.eigvalsh(family.gamma(v))[0])
            if f > best_f:
                best_f, best_v = f, v
        span = (hi - lo) / (points - 1)
        lo = np.maximum(-radius, best_v - span)
        hi = np.minimum(radius, best_v + span)
    return best_f


def random_family(rng, dim, nvars):
    """A random affine family in the same shape the assembler produces."""
    positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rng.shuffle(positions)
    nvars = min(nvars, len(positions))
    patterns, variables = [], []
    used = 0
    for k in range(nvars):
        remaining = len(positions) - used - (nvars - k - 1)
        size = int(rng.integers(1, min(3, remaining) + 1))
        chunk = positions[used:used + size]
        used += size
        pattern = np.zeros((dim, dim))
        for i, j in chunk:
            pattern[i, j] = pattern[j, i] = 1.0
        patterns.append(pattern)
        variables.append(((1, k),))
    gamma0 = np.eye(dim)
    leftover = positions[used:]
    for i, j in leftover[: len(leftover) // 2]:
        value = float(rng.uniform(-1, 1))
        gamma0[i, j] = gamma0[j, i] = value
    return AffineMatrixFamily(
        gamma0=gamma0,
        support=support_arrays(patterns),
        variables=tuple(variables),
    )


def classical_completion(family, state, suite, scenario):
    """Moment completion from an explicit local mixture model.

    Each letter becomes a classical +-1 sign; signs are independent across
    letters with means equal to the state's one-body expectations.  The
    moment of any word is computed by enumerating all deterministic sign
    assignments with their product weights, which is a local model by
    construction, so for product-state data the resulting completion must
    make the moment matrix positive semidefinite.
    """
    letters = scenario.letters()
    means = {
        letter: expectation(state, {letter[0]: suite.operator(letter[1])})
        for letter in letters
    }
    moments = {letter: 0.0 for letter in letters}
    word_moments = {}
    for word_letters in family.variables:
        word_moments[word_letters] = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=len(letters)):
        weight = 1.0
        for letter, sign in zip(letters, signs):
            weight *= 0.5 * (1.0 + means[letter] * sign)
        if weight == 0.0:
            continue
        assignment = dict(zip(letters, signs))
        for word_letters in word_moments:
            product = 1.0
            for letter in word_letters:
                product *= assignment[letter]
            word_moments[word_letters] += weight * product
    return np.array([word_moments[w] for w in family.variables])


def bisect_visibility(state, suite, scenario, tolerance, config=None, level=2):
    """Bracket (lo, hi) of the critical visibility by bisection on verdicts.

    Each step runs a full analysis at the midpoint; lo stays INCONCLUSIVE,
    hi stays NONLOCAL, and the loop ends once hi - lo <= tolerance.
    """

    def verdict(p):
        request = AnalysisRequest(
            source=SimulatedSource(state, suite, p),
            scenario=scenario,
            level=level,
            policy=PinPolicy.all(),
            config=config if config is not None else SolverConfig(),
        )
        return analyze(request).verdict

    lo, hi = 0.0, 1.0
    assert verdict(lo) == INCONCLUSIVE and verdict(hi) == NONLOCAL
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if verdict(mid) == NONLOCAL:
            hi = mid
        else:
            lo = mid
    return lo, hi
