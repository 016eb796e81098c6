from __future__ import annotations

import functools
import gc
import itertools
import json
import tracemalloc

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from thdist import semantics
from thdist.concepts import check_defeq, check_interpretation
from thdist.errors import CapExceededError, LanguageError
from thdist.network import lower_bound_certificates
from thdist.relations import axiom_add_exists, check_axiom_add
from thdist.semantics import (
    FiniteModel,
    Theory,
    assignment_model,
    assignment_set,
    bounded_consequence,
    canonical_form,
    canonical_model,
    clear_memory_caches,
    conservative_extension,
    enumerate_models,
    enumeration_feasible,
    eval_formula,
    feasible_bound,
    is_true,
    isomorphic,
    logically_equivalent,
    model_to_json,
    sat_assignments,
    sat_of_formula,
    sat_rows,
    spectrum,
)
from thdist.syntax import (
    And,
    Atom,
    Exists,
    Language,
    Not,
    all_assignments,
    and_,
    atom,
    eq,
    exists,
    forall,
    make_psi_n,
    not_,
    parse_formula,
    print_formula,
)
from thdist.translation import Translation, apply_translation, identity_translation

from cylindrification import cylindrify, exists_groups

BIN = Language.make("Bin", {"R": 2}, 3)
PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)
PURE = Language.make("Pure", {}, 4)


def _true(model, phi):
    """Reference truth: eval_formula under every assignment."""
    taus = itertools.product(range(model.size), repeat=model.lang.var_bound)
    return all(eval_formula(model, tau, phi) for tau in taus)


def test_eval_satisfaction_clauses():
    m = FiniteModel(BIN, 2, {"R": {(0, 1)}})
    phi = parse_formula("(exists v1 (R v0 v1))", BIN)
    assert eval_formula(m, (0, 0, 0), phi)
    assert not eval_formula(m, (1, 0, 0), phi)
    assert eval_formula(m, (1, 0, 1), parse_formula("(= v0 v0)", BIN))


def test_is_true_examples():
    m = FiniteModel(BIN, 2, {"R": {(0, 1)}})
    taut = parse_formula("(or (R v0 v1) (not (R v0 v1)))", BIN)
    assert is_true(m, taut)
    assert not is_true(m, atom("R", (0, 1)))  # fails under tau(v0)=1
    one = FiniteModel(PURE, 1, {})
    assert is_true(one, parse_formula("(forall v0 (forall v1 (= v0 v1)))", PURE))


@pytest.mark.parametrize("size, interp, message", [
    (0, {"R": set()}, "models have non-empty universes"),
    (2, {}, "symbol R not interpreted"),
    (2, {"R": {(0, 2)}}, "tuple (0, 2) out of bounds for R/2"),
    (2, {"R": set(), "S": set()}, "interpretation of unknown symbols: ['S']"),
])
def test_finite_model_refuses_a_bad_interpretation(size, interp, message):
    # the closure CLI infers its language from the interpretation, so the
    # missing and unknown symbols are reachable only from the library
    with pytest.raises(LanguageError) as err:
        FiniteModel(BIN, size, interp)
    assert str(err.value) == message


def test_sat_of_formula_needs_constants_only():
    with pytest.raises(LanguageError):
        sat_of_formula(BIN, atom("R", (0, 1)))


def test_theory_constructor_validates_its_axioms():
    with pytest.raises(LanguageError, match="unknown symbol 'P'"):
        Theory("x", BIN, [atom("P", (0,))])
    with pytest.raises(LanguageError, match="arity mismatch"):
        Theory("x", BIN, [atom("R", (0,))])


def test_rank0_atom_truth():
    m = FiniteModel(PQ, 3, {"P": True, "Q": False})
    assert is_true(m, atom("P")) and not is_true(m, atom("Q"))


@st.composite
def _bin_models(draw, size=st.integers(1, 3)):
    k = draw(size)
    pairs = list(itertools.product(range(k), repeat=2))
    rel = {p for p in pairs if draw(st.booleans())}
    return FiniteModel(BIN, k, {"R": rel})


def test_enumerate_empty_language_one_model_per_size():
    empty = Theory.make("pure", PURE, [])
    for k in (1, 2, 3, 4):
        assert spectrum(empty, k) == 1


def test_enumerate_unary_three_models():
    lang = Language.make("U", {"P": 1}, 2)
    assert spectrum(Theory.make("free", lang, []), 2) == 3


def test_enumerate_sentential_counts():
    lang = Language.make("S3", {"A": 0, "B": 0, "C": 0}, 0)
    t = Theory.make("tstar3", lang, [])
    assert spectrum(t, 1) == 8
    assert spectrum(t, 5) == 8  # sentential spectra ignore universe size


def test_enumerate_sorted_and_canonical():
    t = Theory.make("free", BIN, [])
    models = enumerate_models(t, 3)
    forms = [canonical_form(m) for m in models]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(models) == 104  # binary relations up to iso


def test_spectrum_matches_pairwise_isomorphism_oracle():
    # independent oracle: partition ALL labeled models by explicit
    # permutation search, sizes <= 3
    lang = Language.make("U", {"P": 1, "Q": 1}, 2)
    theory = Theory.make("distinct", lang, ["(exists v0 (and (P v0) (not (Q v0))))"])

    def labeled(k):
        singles = list(itertools.product(range(k), repeat=1))
        for pbits in range(1 << k):
            for qbits in range(1 << k):
                m = FiniteModel(
                    lang,
                    k,
                    {
                        "P": {singles[i] for i in range(k) if pbits >> i & 1},
                        "Q": {singles[i] for i in range(k) if qbits >> i & 1},
                    },
                )
                if all(is_true(m, a) for a in theory.axioms):
                    yield m

    def iso(a, b):
        for perm in itertools.permutations(range(a.size)):
            if all(
                {tuple(perm[e] for e in t) for t in a.rel(sym)} == b.rel(sym)
                for sym, _ in lang.symbols
            ):
                return True
        return False

    for k in (1, 2, 3):
        classes = []
        for m in labeled(k):
            if not any(iso(m, rep) for rep in classes):
                classes.append(m)
        assert spectrum(theory, k) == len(classes)


def test_canonical_form_permutation_examples():
    m1 = FiniteModel(BIN, 2, {"R": {(0, 1)}})
    m2 = FiniteModel(BIN, 2, {"R": {(1, 0)}})
    m3 = FiniteModel(BIN, 2, {"R": {(0, 1), (1, 0)}})
    assert canonical_form(m1) == canonical_form(m2)
    assert canonical_form(m1) != canonical_form(m3)
    assert isomorphic(m1, m2) and not isomorphic(m1, m3)


@settings(max_examples=40)
@given(_bin_models(size=st.just(4)), st.permutations(range(4)))
def test_canonical_form_invariant_under_permutation(model, perm):
    permuted = FiniteModel(
        BIN,
        4,
        {"R": {tuple(perm[e] for e in t) for t in model.rel("R")}},
    )
    assert canonical_form(model) == canonical_form(permuted)
    rebuilt = canonical_model(model)
    assert canonical_form(rebuilt) == canonical_form(model)


PR = Language.make("PR", {"P": 1, "R": 2}, 2)


def _relabel(model, perm):
    return {
        sym: v if isinstance(v, bool) else {tuple(perm[e] for e in t) for t in v}
        for sym, v in model.interp.items()
    }


def _brute_isomorphic(a, b):
    return a.size == b.size and any(
        _relabel(a, perm) == b.interp for perm in itertools.permutations(range(a.size))
    )


@st.composite
def _models3(draw, lang):
    interp = {}
    for sym, rank in lang.symbols:
        tuples = list(itertools.product(range(3), repeat=rank))
        interp[sym] = {t for t in tuples if draw(st.booleans())}
    return FiniteModel(lang, 3, interp)


@st.composite
def _model_pairs(draw):
    # b is a relabelled copy of a, possibly with one tuple toggled, or an
    # independent model: isomorphic and non-isomorphic pairs both occur
    lang = draw(st.sampled_from([BIN, PR]))
    a = draw(_models3(lang))
    how = draw(st.sampled_from(["copy", "toggle", "fresh"]))
    if how == "fresh":
        return a, draw(_models3(lang))
    interp = _relabel(a, draw(st.permutations(range(3))))
    if how == "toggle":
        sym, rank = draw(st.sampled_from(lang.symbols))
        interp[sym] = interp[sym] ^ {draw(st.tuples(*[st.integers(0, 2)] * rank))}
    return a, FiniteModel(lang, 3, interp)


@settings(max_examples=150)
@given(_model_pairs())
def test_canonical_form_complete(pair):
    a, b = pair
    assert (canonical_form(a) == canonical_form(b)) == _brute_isomorphic(a, b)
    assert isomorphic(a, b) == _brute_isomorphic(a, b)


@settings(max_examples=60)
@given(st.sampled_from([BIN, PR]).flatmap(_models3))
def test_canonical_model_is_isomorphic_fixed_point(model):
    rebuilt = canonical_model(model)
    assert _brute_isomorphic(model, rebuilt)
    assert canonical_model(rebuilt) == rebuilt


def test_model_json_round_trip():
    m = FiniteModel(BIN, 2, {"R": {(1, 0), (0, 0)}})
    text = model_to_json(m)
    assert text == '{"interp": {"R": [[0, 0], [1, 0]]}, "size": 2}'
    data = json.loads(text)
    assert FiniteModel(BIN, data["size"], data["interp"]) == m


POSET_AXIOMS = [
    "(forall v0 (R v0 v0))",
    "(forall v0 (forall v1 (implies (and (R v0 v1) (R v1 v0)) (= v0 v1))))",
    "(forall v0 (forall v1 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
]


def test_bounded_consequence_examples():
    sent = Theory.make("p", PQ, ["P"])
    res = bounded_consequence(sent, parse_formula("(or P Q)", PQ))
    assert res.holds and res.exact

    posets = Theory.make("posets", BIN, POSET_AXIOMS)
    symmetry = parse_formula("(forall v0 (forall v1 (implies (R v0 v1) (R v1 v0))))", BIN)
    res = bounded_consequence(posets, symmetry, 4)
    assert not res.holds and res.countermodel.size == 2  # the 2-chain

    empty = Theory.make("pure", PURE, [])
    res = bounded_consequence(empty, make_psi_n(1, PURE), 2)
    assert not res.holds and res.countermodel.size == 2


def test_logical_equivalence_examples():
    t1 = Theory.make("conj", PQ, ["(and P Q)"])
    t2 = Theory.make("two", PQ, ["P", "Q"])
    assert logically_equivalent(t1, t2).equivalent

    tp = Theory.make("p", PQ, ["P"])
    tq = Theory.make("q", PQ, ["Q"])
    res = logically_equivalent(tp, tq)
    assert not res.equivalent and res.exact
    # witness assignment: P true, Q false separates the theories
    assert res.witness_model.interp == {"P": True, "Q": False}

    other = Theory.make("other", Language.make("X", {"P": 0}, 0), [])
    assert logically_equivalent(tp, other).reason == "language mismatch"


def test_logical_equivalence_bounded_on_permuted_axioms():
    strict = Theory.make("strict", BIN, [
        "(forall v0 (not (R v0 v0)))",
        "(forall v0 (forall v1 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
    ])
    permuted = Theory.make("permuted", BIN, [
        "(forall v1 (forall v0 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
        "(forall v2 (not (R v2 v2)))",
    ])
    res = logically_equivalent(strict, permuted, 4)
    assert res.equivalent and not res.exact and res.bound == 4


def test_conservative_extension_sentential():
    t1 = Theory.make("free", Language.make("P1", {"P": 0}, 0), [])
    big = Language.make("P2", {"P": 0, "Q": 0}, 0)
    linked = Theory.make("linked", big, ["(iff Q P)"])
    res = conservative_extension(t1, linked)
    assert res.holds and res.exact

    refuting = Theory.make("notp", big, ["(not P)"])
    res = conservative_extension(t1, refuting)
    assert not res.holds and res.exact
    assert print_formula(res.witness_formula) == "(not P)"

    with pytest.raises(LanguageError):
        conservative_extension(linked, t1)


def test_conservative_extension_first_order_defining_axiom():
    base_lang = Language.make("K", {"IOb": 1, "W": 2}, 3)
    ext_lang = Language.make("KE", {"IOb": 1, "W": 2, "E": 1}, 3)
    base = Theory.make("base", base_lang, ["(exists v0 (IOb v0))"])
    ext = Theory.make("ext", ext_lang, [
        "(exists v0 (IOb v0))",
        "(exists v0 (and (IOb v0) (forall v1 (iff (E v1) (and (IOb v1) (W v0 v1))))))",
    ])
    res = conservative_extension(base, ext, 3)
    assert res.holds and not res.exact and res.bound == 3
    # reduct closure: reducts of the extension land inside the base models
    for k in (1, 2, 3):
        own = {canonical_form(m) for m in enumerate_models(base, k)}
        for m in enumerate_models(ext, k):
            reduct = FiniteModel(
                base_lang, m.size, {s: m.interp[s] for s, _ in base_lang.symbols}
            )
            assert canonical_form(reduct) in own


def test_conservative_extension_refuted_with_psi_witness():
    small = Theory.make("pure", PURE, [])
    ext_lang = Language.make("PureP", {"P": 1}, 4)
    two_only = Theory.make(
        "twoonly", ext_lang,
        ["(exists v0 (exists v1 (and (not (= v0 v1)) (forall v2 (or (= v2 v0) (= v2 v1))))))"],
    )
    res = conservative_extension(small, two_only, 3)
    assert not res.holds
    assert res.witness_formula is not None  # not psi(k) for the missing size


def test_conservativity_beyond_the_variable_bound():
    pure2, lang = Language.make("Eq2", {}, 2), Language.make("E2", {"E": 2}, 2)
    # a reduct that fails an axiom of t1 refutes at any size: here the
    # 2-element set, at k = 2 = n
    one_point = Theory.make("one", pure2, ["(forall v0 (forall v1 (= v0 v1)))"])
    res = conservative_extension(one_point, Theory.make("free", lang, []), 3)
    assert res.holds is False and res.bound == 2 and res.witness_model.size == 2
    # one point, or a tournament where every point beats another: none on
    # two points, but L^2 cannot tell two points from three, so a missing
    # expansion at k >= n leaves the answer undecided
    tournament = Theory.make("T", lang, [
        "(or (forall v0 (forall v1 (= v0 v1))) (and (forall v0 (not (E v0 v0))) "
        "(and (forall v0 (forall v1 (implies (not (= v0 v1)) (iff (E v0 v1) "
        "(not (E v1 v0)))))) (forall v0 (exists v1 (E v0 v1))))))",
    ])
    assert [spectrum(tournament, k) for k in (1, 2, 3, 4)] == [2, 0, 1, 2]
    res = conservative_extension(Theory.make("Set", pure2, []), tournament, 4)
    assert res.holds is None and not res and res.bound == 2
    assert res.witness_model.size == 2 and res.witness_formula is None
    # with three variables the same gap refutes, with "not exactly 2" as witness
    pure3, lang3 = Language.make("Eq3", {}, 3), Language.make("E3", {"E": 2}, 3)
    res = conservative_extension(
        Theory.make("Set", pure3, []), Theory("T", lang3, tournament.axioms), 4
    )
    assert res.holds is False and res.bound == 2
    assert res.witness_formula == not_(make_psi_n(2, pure3))


def test_sentential_truth_ignores_universe_size():
    phi = parse_formula("(implies P (or P Q))", PQ)
    for row in itertools.product((False, True), repeat=2):
        values = {is_true(assignment_model(PQ, row, k), phi) for k in (1, 2, 5)}
        assert len(values) == 1


def test_caps_raise():
    big = Language.make("big", {"R": 2, "S": 2}, 3)
    with pytest.raises(CapExceededError):
        enumerate_models(Theory.make("too", big, []), 4)  # 2^32 candidates
    for theory in (Theory.make("pure", PURE, []), Theory.make("p", PQ, ["P"])):
        with pytest.raises(CapExceededError, match="^size 9 exceeds cap 8$"):
            enumerate_models(theory, 9)  # sentential ones too
    with pytest.raises(CapExceededError) as err:
        enumerate_models(Theory.make("free", BIN, []), 5)  # 2^25 candidates
    assert str(err.value) == "33554432 interpretation candidates at size 5 exceed cap 2097152"


def test_clear_memory_caches_empties_every_table():
    posets = Theory.make("posets", BIN, POSET_AXIOMS)
    m = FiniteModel(BIN, 3, {"R": {(0, 1), (1, 2)}})
    phi = parse_formula("(exists v2 (and (R v0 v2) (not (= v1 v2))))", BIN)
    sent = Theory.make("p", PQ, ["(or P Q)"])

    def run():
        return (
            [model_to_json(x) for x in enumerate_models(posets, 3)],
            assignment_set(m, phi),
            cylindrify(assignment_set(m, phi), 3, 3, 2),
            sat_assignments(sent),
            canonical_form(m),
            bounded_consequence(posets, parse_formula("(R v0 v0)", BIN), 3),
        )

    before = run()
    cached = (semantics._space, semantics._restriction, semantics._fibres)
    assert all(f.cache_info().currsize for f in cached)
    # bounded_consequence keeps lane masks beside the code lists it checked
    assert all(semantics._model_memo[posets.key, k][1] is not None for k in (1, 2, 3))
    space = semantics._space(BIN.symbols, 3)
    assert space.alive  # the sweep's conjunct memo lives on its space
    clear_memory_caches()
    for table in (semantics._model_memo, semantics._induced_memo, semantics._sat_memo):
        assert not table
    for f in cached:
        assert f.cache_info().currsize == 0
    fresh = semantics._space(BIN.symbols, 3)
    assert fresh is not space and not fresh.alive
    assert run() == before


def test_assignment_set_leaves_nothing_behind():
    # with the cyclic collector off, what assignment_set and is_true
    # allocate is freed by reference counting: a collection finds no
    # garbage, and the memory traced to semantics.py is no larger after
    # 500 more calls than after the first 1,100. Each measure runs a full
    # collection first, which also empties the interpreter's free lists,
    # so a list header kept there for reuse does not count. CPython 3.10
    # gives a code object its opcache once the function has run 1,024
    # times, traced to semantics.py; the warm-up calls pass that mark.
    m = FiniteModel(BIN, 3, {"R": {(0, 1), (1, 2)}})
    phi = parse_formula("(exists v2 (and (R v0 v2) (not (= v1 v2))))", BIN)
    expected = assignment_set(m, phi), is_true(m, phi)  # fills the lru tables first
    here = [tracemalloc.Filter(True, semantics.__file__, all_frames=True)]

    def call():
        assert (assignment_set(m, phi), is_true(m, phi)) == expected

    def traced():
        gc.collect()
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(here).traces)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    tracemalloc.start(25)
    try:
        for _ in range(1100):
            call()
        once = traced()
        for _ in range(500):
            call()
        many = traced()
        garbage = list(gc.garbage)
    finally:
        tracemalloc.stop()
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == []
    assert many <= once


# Oracle for the bit-sliced enumeration: every labelled structure checked
# clause by clause with eval_formula, one kept per orbit (its least code
# under the packing: symbols in declaration order, tuples lexicographic).

class _Labelled:
    __slots__ = ("size", "interp")

    def __init__(self, size, interp):
        self.size, self.interp = size, interp

    def rel(self, sym):
        return self.interp[sym]


class _BruteSpace:
    def __init__(self, lang, k):
        self.lang, self.k = lang, k
        self.slots = [
            (sym, t) for sym, rank in lang.symbols
            for t in itertools.product(range(k), repeat=rank)
        ]
        index = {slot: i for i, slot in enumerate(self.slots)}
        self.perms = [
            [index[sym, tuple(p[e] for e in t)] for sym, t in self.slots]
            for p in itertools.permutations(range(k))
        ]
        self.least: dict[int, int] = {}

    def structure(self, code):
        interp = {sym: False if rank == 0 else set() for sym, rank in self.lang.symbols}
        for i, (sym, t) in enumerate(self.slots):
            if code >> i & 1:
                if t:
                    interp[sym].add(t)
                else:
                    interp[sym] = True
        return _Labelled(self.k, interp)

    def orbit(self, code):
        return {
            sum(1 << perm[i] for i in range(len(self.slots)) if code >> i & 1)
            for perm in self.perms
        }

    def orbit_min(self, code):
        if code not in self.least:
            orbit = self.orbit(code)
            for image in orbit:
                self.least[image] = min(orbit)
        return self.least[code]

    def models(self, axioms):
        taus = list(itertools.product(range(self.k), repeat=self.lang.var_bound))
        keep = set()
        for code in range(1 << len(self.slots)):
            m = self.structure(code)
            if all(eval_formula(m, tau, a) for a in axioms for tau in taus):
                keep.add(self.orbit_min(code))
        return [
            model_to_json(FiniteModel(self.lang, self.k, self.structure(c).interp))
            for c in sorted(keep)
        ]


# code widths 2-4, 10 and 12 bits: below and at one block of 2^12 codes
_SMALL_CASES = [
    (Language.make("CP", {"C": 0, "P": 1}, 2), k) for k in (1, 2, 3)
] + [
    (Language.make("CR", {"C": 0, "R": 2}, 3), 3),
    (Language.make("PR", {"P": 1, "R": 2}, 2), 3),
]
# 16 bits: sixteen blocks, so the top four bits come from the block index
_WIDE_CASE = (Language.make("R", {"R": 2}, 2), 4)
_brute_spaces: dict = {}


def _formulas(lang, max_leaves=6):
    n = lang.var_bound
    var = st.integers(0, n - 1)
    leaves = [st.builds(eq, var, var)] if n else []
    leaves += [
        st.builds(lambda s, args: atom(s, args), st.just(sym), st.tuples(*[var] * rank))
        for sym, rank in lang.symbols
    ]
    return st.recursive(
        st.one_of(leaves),
        lambda c: st.one_of(
            st.builds(and_, c, c), st.builds(not_, c),
            *[st.builds(exists, var, c)] if n else [],
        ),
        max_leaves=max_leaves,
    )


def _axioms(lang, max_leaves=6):
    return st.lists(_formulas(lang, max_leaves), min_size=1, max_size=2)


def _check_against_brute_force(lang, k, axioms):
    brute = _brute_spaces.setdefault((lang, k), _BruteSpace(lang, k))
    theory = Theory(print_formula(axioms[0]), lang, axioms)
    got = [model_to_json(m) for m in enumerate_models(theory, k)]
    assert got == brute.models(axioms)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_SMALL_CASES).flatmap(
    lambda case: st.tuples(st.just(case), _axioms(case[0]))
))
def test_enumeration_matches_brute_force(example):
    (lang, k), axioms = example
    _check_against_brute_force(lang, k, axioms)


# no shrinking: each shrink step reruns the 2^16-code brute force
@settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_axioms(_WIDE_CASE[0], max_leaves=4))
def test_enumeration_matches_brute_force_across_blocks(axioms):
    _check_against_brute_force(*_WIDE_CASE, axioms)


def _complement(f):
    """f with R read as its complement: every atom negated."""
    if isinstance(f, Atom):
        return not_(f)
    if isinstance(f, And):
        return and_(_complement(f.lhs), _complement(f.rhs))
    if isinstance(f, Not):
        return not_(_complement(f.sub))
    return exists(f.var, _complement(f.sub)) if isinstance(f, Exists) else f


# Checks read code lists (`model_lanes`), the CLI reads model lists
# (`enumerate_models`); both come from one memo entry. The second theory is
# drawn fresh, as the first with each axiom doubly negated (equivalent, with
# its own key), as the first plus more axioms, or as the first about the
# complement of R (as many models at each size, mostly other ones).
@st.composite
def _theory_pairs(draw):
    ax1 = draw(_axioms(BIN, max_leaves=5))
    how = draw(st.sampled_from(["fresh", "negneg", "more", "complement"]))
    ax2 = draw(_axioms(BIN, max_leaves=5))
    ax2 = {"fresh": ax2, "negneg": [not_(not_(a)) for a in ax1], "more": ax1 + ax2,
           "complement": [_complement(a) for a in ax1]}[how]
    return Theory("t1", BIN, ax1), Theory("t2", BIN, ax2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_theory_pairs())
# the countermodel, R = {(0, 0)}, is not the first of the free theory's models
@example((Theory("free", BIN, []), Theory("irrefl", BIN, [parse_formula("(not (R v0 v0))", BIN)])))
def test_code_lists_agree_with_model_lists(pair):
    t1, t2 = pair
    res = logically_equivalent(t1, t2, 3)
    for t in pair:
        for k in (1, 2, 3):
            assert semantics.model_lanes(t, k)[0] == [m.code for m in enumerate_models(t, k)]
    assert res.equivalent == all(enumerate_models(t1, k) == enumerate_models(t2, k)
                                 for k in (1, 2, 3))
    if not res.equivalent:
        model, phi = res.witness_model, res.witness_formula
        assert not _true(model, phi)
        assert any(phi in b.axioms and all(_true(model, ax) for ax in a.axioms)
                   for a, b in ((t1, t2), (t2, t1)))


# The sweep memo: each space maps (block, conjunct uid) to the mask of the
# block's codes where the conjunct holds, and every theory over the space
# reads it. Theories sharing conjuncts, enumerated in any order, must list
# what a run from empty caches lists, and what the brute force lists.
@st.composite
def _shared_conjunct_theories(draw):
    lang, k = draw(st.sampled_from(_SMALL_CASES))
    pool = draw(_axioms(lang)) + draw(_axioms(lang))
    conjunct = st.sampled_from(pool)
    item = st.one_of(conjunct, st.builds(and_, conjunct, conjunct))
    theories = draw(st.lists(st.lists(item, min_size=1, max_size=3), min_size=2, max_size=4))
    return lang, k, theories, draw(st.permutations(range(len(theories))))


def _model_list(lang, k, axioms, name="T"):
    return [model_to_json(m) for m in enumerate_models(Theory(name, lang, axioms), k)]


@settings(max_examples=30, deadline=None)
@given(_shared_conjunct_theories())
def test_sweep_memo_shared_across_theories(case):
    lang, k, theories, order = case
    clear_memory_caches()
    shared = {i: _model_list(lang, k, theories[i], f"T{i}") for i in order}
    brute = _brute_spaces.setdefault((lang, k), _BruteSpace(lang, k))
    for i, axioms in enumerate(theories):
        clear_memory_caches()
        assert shared[i] == _model_list(lang, k, axioms) == brute.models(axioms)


def _memo_uids(lang, k):
    return {uid for _, uid in semantics._space(lang.symbols, k).alive}


def test_sweep_memo_splits_conjunctions():
    # one axiom (and A (and B C)) against the three axioms A, B, C over
    # sixteen blocks: the second theory finds every entry in the memo
    refl, anti, trans = (parse_formula(t, BIN) for t in POSET_AXIOMS)
    clear_memory_caches()
    one = _model_list(BIN, 4, [and_(refl, and_(anti, trans))], "one")
    space = semantics._space(BIN.symbols, 4)
    entries = dict(space.alive)
    assert {uid for _, uid in entries} == {refl.uid, anti.uid, trans.uid}
    assert {block for block, _ in entries} == set(range(16))
    assert _model_list(BIN, 4, [refl, anti, trans], "three") == one
    assert space.alive == entries
    assert len(one) == 16  # posets on four points
    clear_memory_caches()
    assert _model_list(BIN, 4, [refl, anti, trans]) == one


@pytest.mark.parametrize("texts, conjuncts", [
    # an open conjunct that no structure satisfies, alone and inside an and
    (["(not (= v0 v0))"], ["(not (= v0 v0))"]),
    (["(and (R v0 v1) (not (= v0 v0)))"], ["(R v0 v1)", "(not (= v0 v0))"]),
    # open conjuncts, universally closed
    (["(and (R v0 v1) (exists v2 (not (R v2 v2))))"], ["(R v0 v1)", "(exists v2 (not (R v2 v2)))"]),
    # a conjunct repeated within one theory is swept once
    (["(R v0 v0)", "(and (exists v1 (R v0 v1)) (R v0 v0))", "(R v0 v0)"],
     ["(R v0 v0)", "(exists v1 (R v0 v1))"]),
])
def test_sweep_memo_conjunct_cases(texts, conjuncts):
    lang, k = _SMALL_CASES[3]
    axioms = [parse_formula(t, lang) for t in texts]
    clear_memory_caches()
    _check_against_brute_force(lang, k, axioms)
    # the memo holds only the top-level conjuncts that were reached
    assert _memo_uids(lang, k) <= {parse_formula(t, lang).uid for t in conjuncts}
    parts = [parse_formula(t, lang) for t in conjuncts]
    assert _model_list(lang, k, parts, "parts") == _model_list(lang, k, axioms)


# Theory.key is the model class's content up to renaming: the ranks in
# sorted-name order, the variable bound and the set of axiom conjuncts with
# symbols named by position. Variants that share it share one sweep, so the
# model lists must still carry each caller's language; the brute force
# checks every variant on its own, so a key collision cannot hide.
_RENAMINGS = [  # language, an order-preserving renaming, an order-swapping one
    (Language.make("PQ", {"P": 1, "Q": 1}, 2), {"P": "A", "Q": "B"}, {"P": "Q", "Q": "P"}),
    (Language.make("R", {"R": 2}, 2), {"R": "leq"}, None),
]


def _renamed(lang, names, name):
    return Language.make(name, {names[s]: r for s, r in lang.symbols}, lang.var_bound)


def _rename(phi, names, lang):
    return parse_formula(print_formula(phi, names), lang)


@st.composite
def _regrouped(draw, conjuncts):
    """The conjuncts shuffled, some repeated, and grouped into ands
    bracketed to the left or to the right."""
    items = draw(st.permutations(conjuncts + draw(st.lists(st.sampled_from(conjuncts), max_size=2))))
    axioms = []
    while items:
        n = draw(st.integers(1, len(items)))
        group, items = items[:n], items[n:]
        axioms.append(functools.reduce(and_, group) if draw(st.booleans())
                      else functools.reduce(lambda a, b: and_(b, a), group[::-1]))
    return axioms


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_theory_key_is_the_model_class_up_to_renaming(data):
    lang, keep, swap = data.draw(st.sampled_from(_RENAMINGS))
    k = data.draw(st.integers(1, 3))
    axioms = data.draw(_axioms(lang, max_leaves=5))
    parts = [c for a in axioms for c in semantics._conjuncts(a)]
    uids = {c.uid for c in parts}
    extra = data.draw(_formulas(lang, 3).filter(
        lambda f: any(c.uid not in uids for c in semantics._conjuncts(f))))
    renamed = _renamed(lang, keep, "Renamed")
    variants = {
        "T": Theory("T", lang, axioms),
        "renamed": Theory("renamed", renamed, [_rename(a, keep, renamed) for a in axioms]),
        "regrouped": Theory("regrouped", lang, data.draw(_regrouped(parts))),
        "other": Theory("other", lang, [*axioms, extra]),
    }
    if swap:
        variants["swapped"] = Theory("swapped", lang, [_rename(a, swap, lang) for a in axioms])
    clear_memory_caches()
    got = {name: enumerate_models(variants[name], k)
           for name in data.draw(st.permutations(sorted(variants)))}
    for name, theory in variants.items():
        assert all(m.lang == theory.lang for m in got[name])
        brute = _brute_spaces.setdefault((theory.lang, k), _BruteSpace(theory.lang, k))
        assert [model_to_json(m) for m in got[name]] == brute.models(theory.axioms)
    t = variants["T"]
    for name in ("renamed", "regrouped"):
        assert variants[name].key == t.key
        assert [m.code for m in got[name]] == [m.code for m in got["T"]]
    assert variants["other"].key != t.key
    if swap:  # a swap keeps the key only when it maps the conjunct set onto itself
        same = {print_formula(c) for c in parts} == {print_formula(c, swap) for c in parts}
        assert (variants["swapped"].key == t.key) == same


def test_alphabetic_variants_share_one_sweep(monkeypatch):
    leq = _renamed(BIN, {"R": "leq"}, "LeqL")
    posets = Theory.make("Posets", BIN, POSET_AXIOMS)
    variant = Theory.make("PosetsLeq", leq, [t.replace("R ", "leq ") for t in POSET_AXIOMS[::-1]])
    assert variant.key == posets.key
    sweeps, real = [], semantics._least_codes
    monkeypatch.setattr(semantics, "_least_codes", lambda *a: sweeps.append(a) or real(*a))
    clear_memory_caches()
    for theory in (posets, variant, posets, variant):
        models = enumerate_models(theory, 3)
        assert len(models) == 5 and all(m.lang == theory.lang for m in models)
    assert len(sweeps) == 1
    # each language labels the shared codes once
    assert enumerate_models(variant, 3) is enumerate_models(variant, 3)
    clear_memory_caches()


# Burnside: the orbits of an axiom-free theory number the mean, over the
# k! permutations, of 2^(cycles of the permutation's action on the code
# bits). Widths 8-20 bits, so the larger ones span several blocks.
_BURNSIDE = [
    ({"R": 2}, 4, 3044),
    ({"IOb": 1, "W": 2}, 4, 45960),  # KinBase's 42,916 and the 3,044 without IOb
    ({"T": 3}, 2, 136),
    ({"A": 1, "B": 1, "C": 1}, 6, 1716),
    ({"C": 0, "P": 1, "R": 2}, 3, 1504),  # C doubles the 752 orbits of (P 1)(R 2)
]


def _cycles(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


@pytest.mark.parametrize("symbols, k, orbits", _BURNSIDE)
def test_orbit_count_matches_burnside(symbols, k, orbits):
    lang = Language.make("Free", symbols, 3)
    perms = _brute(lang, k).perms
    assert sum(2 ** _cycles(p) for p in perms) == orbits * len(perms)
    assert len(enumerate_models(Theory.make("free", lang, []), k)) == orbits


# 13-16 bits: permutations move code bits between the block index (bits
# 12 and up) and the low 12 bits of a block
_ACROSS_BLOCKS = [
    (Language.make("CPR", {"C": 0, "P": 1, "R": 2}, 2), 3),
    (Language.make("CDPR", {"C": 0, "D": 0, "P": 1, "R": 2}, 2), 3),
    (Language.make("PQR", {"P": 1, "Q": 1, "R": 2}, 2), 3),
    (Language.make("R", {"R": 2}, 2), 4),
]


@pytest.mark.parametrize("lang, k", _ACROSS_BLOCKS)
def test_kept_codes_are_the_orbit_minima(lang, k):
    brute = _brute(lang, k)
    kept = {m.code for m in enumerate_models(Theory.make("free", lang, []), k)}
    assert kept == {c for c in range(1 << len(brute.slots)) if brute.orbit_min(c) == c}


def test_perm_cap_bounds_feasible_sizes(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_SIZE", 3)
    # 5 variables: spectrum evidence counts up to size 4, so the size cap
    # is what stops it at 3
    s1 = Theory.make("S1", Language.make("A", {"A": 1}, 5), [])
    s2 = Theory.make("S2", Language.make("AB", {"A": 1, "B": 1}, 5), [])
    assert enumeration_feasible(s1, 3) and not enumeration_feasible(s1, 4)
    assert not enumeration_feasible(Theory.make("p", PQ, ["P"]), 4)  # sentential ones too
    evidence = lower_bound_certificates(s1, s2, rank_cap=1)
    assert evidence.kind == "growth-certificate" and evidence.size in (1, 2, 3)
    # a check clamps its default bound of 4 there too
    res = conservative_extension(s1, s2)
    assert res == conservative_extension(s1, s2, 3) and (res.holds, res.bound) == (True, 3)


# Up to three constants, the empty signature (sentential and first-order),
# one unary and one binary symbol; free theories, since what fits the caps
# depends on the signature alone.
_FEASIBILITY_THEORIES = [
    Theory.make(lang.name, lang, [])
    for lang in (
        *(Language.make(f"S{m}", {f"C{i}": 0 for i in range(m)}, 0) for m in range(4)),
        Language.make("Eq", {}, 2), Language.make("U", {"U": 1}, 1), BIN,
    )
]
_first_refused: dict[str, int] = {}


def _first_refused_size(theory: Theory) -> int:
    """The least size at which enumerate_models raises CapExceededError."""
    if theory.name not in _first_refused:
        k = 1
        while True:
            try:
                enumerate_models(theory, k)
            except CapExceededError:
                break
            k += 1
        _first_refused[theory.name] = k
    return _first_refused[theory.name]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(0, 12), st.integers(0, 10**9)),
    st.lists(st.sampled_from(_FEASIBILITY_THEORIES), min_size=1, max_size=3),
)
def test_feasible_bound_matches_the_enumeration_oracle(bound, theories):
    # the largest k <= bound at which no theory's enumeration is refused at
    # any size up to k; sentential theories are capped at MAX_SIZE too
    oracle = min(bound, *(_first_refused_size(t) - 1 for t in theories))
    assert feasible_bound(bound, theories) == oracle


# The sweep's alive masks against the reference truth on every code-born
# model (eval_formula under every assignment: is_true runs the sweep's own
# table evaluator, so it cannot be the oracle here). Each
# subformula is swept as a table over its own free variables, so the
# explicit cases hold the shapes where that table is not over all n:
# axioms with free variables (universally closed), vacuous exists, (= v v)
# and atoms with a repeated argument. Code widths 4-11 bits at sizes 1-4.
_SWEPT = [
    (Language.make("M0123", {"C": 0, "P": 1, "R": 2, "T": 3}, 3), 1),
    (Language.make("BPT", {"B": 0, "P": 1, "T": 3}, 3), 2),
    (Language.make("CR3", {"C": 0, "R": 2}, 3), 3),
    (Language.make("CPQ", {"C": 0, "P": 1, "Q": 1}, 3), 4),
]
# 13 bits: two blocks of 2^12 codes, the top bit from the block index
_SWEPT_WIDE = (Language.make("CPR", {"C": 0, "P": 1, "R": 2}, 2), 3)


# assignment_set bit by bit, and is_true, against eval_formula over the
# swept signatures (ranks 0-3), BIN, and a sentential language whose mask
# has one bit. The examples hold the tables that are not over all n
# variables: (= v v), a vacuous exists, a repeated argument, sentences,
# and exists over a variable after the first of its body's.
_EVAL_LANGS = [BIN, PQ] + [lang for lang, _ in _SWEPT]


@st.composite
def _model_and_formula(draw):
    lang = draw(st.sampled_from(_EVAL_LANGS))
    k = draw(st.integers(1, 4))
    code = draw(st.integers(0, (1 << sum(k**rank for _, rank in lang.symbols)) - 1))
    return FiniteModel._of_code(lang, k, code), draw(_formulas(lang, max_leaves=8))


def _eval_example(lang, k, code, text):
    return example((FiniteModel._of_code(lang, k, code), parse_formula(text, lang)))


@settings(max_examples=60, deadline=None)
@given(_model_and_formula())
@_eval_example(_SWEPT[0][0], 3, 0b1011_0110_1101, "(= v1 v1)")
@_eval_example(_SWEPT[1][0], 2, 0b10_0110_1101, "(exists v2 (P v0))")
@_eval_example(_SWEPT[1][0], 2, 0b11_0100_1011, "(T v0 v0 v1)")
@_eval_example(_SWEPT[2][0], 3, 0b01_0011_0101, "(and (R v2 v2) (not (= v1 v1)))")
@_eval_example(_SWEPT[2][0], 3, 0b00_1010_0110, "(exists v0 (forall v1 (R v0 v1)))")
@_eval_example(BIN, 2, 0b0010, "(exists v1 (R v0 v1))")
@_eval_example(_SWEPT[0][0], 2, 1 << 8, "(exists v2 (T v0 v1 v2))")
@_eval_example(PQ, 1, 0b01, "(or P (not Q))")
@_eval_example(PQ, 3, 0b10, "(and P (not Q))")
def test_assignment_set_agrees_with_eval(case):
    model, phi = case
    mask = assignment_set(model, phi)
    taus = list(itertools.product(range(model.size), repeat=model.lang.var_bound))
    assert mask >> len(taus) == 0
    for idx, tau in enumerate(taus):
        assert bool(mask >> idx & 1) == eval_formula(model, tau, phi)
    assert is_true(model, phi) == _true(model, phi)


def test_exists_groups_match_bucket_definition():
    # one group per assignment of the other variables, in order of first
    # appearance: the assignments that agree everywhere but var
    for k, n in itertools.product(range(1, 5), range(1, 4)):
        taus = list(itertools.product(range(k), repeat=n))
        for var in range(n):
            buckets: dict[tuple, int] = {}
            for idx, tau in enumerate(taus):
                rest = tau[:var] + tau[var + 1 :]
                buckets[rest] = buckets.get(rest, 0) | 1 << idx
            assert exists_groups(k, n, var) == list(buckets.values())


def _check_sweep(lang, k, axioms):
    swept, space = 0, semantics._space(lang.symbols, k)
    for base, alive, _ in semantics._satisfying_blocks(space, axioms, space.alive):
        assert alive and swept >> base == 0  # blocks with a model, ascending
        swept |= alive << base
    width = sum(k**rank for _, rank in lang.symbols)
    assert swept == sum(
        1 << code for code in range(1 << width)
        if all(_true(FiniteModel._of_code(lang, k, code), a) for a in axioms)
    )


def _swept_example(case, *texts):
    lang, _ = case
    return example((case, [parse_formula(t, lang) for t in texts]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SWEPT).flatmap(lambda case: st.tuples(st.just(case), _axioms(case[0]))))
@_swept_example(_SWEPT[1], "(P v0)")
@_swept_example(_SWEPT[1], "(T v0 v0 v1)", "(exists v2 (P v0))")
@_swept_example(_SWEPT[2], "(and (R v2 v2) (not (= v1 v1)))")
@_swept_example(_SWEPT[2], "(exists v0 (or (R v1 v0) (= v0 v2)))")
@_swept_example(_SWEPT[2], "(exists v1 (R v0 v1))")
@_swept_example(_SWEPT[3], "(or C (and (P v2) (not (Q v0))))")
def test_sweep_matches_is_true_per_code(case):
    (lang, k), axioms = case
    _check_sweep(lang, k, axioms)


# no shrinking: each shrink step reruns the 2^13-code oracle
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_axioms(_SWEPT_WIDE[0], max_leaves=4))
@example([parse_formula("(or (R v1 v1) (P v0))", _SWEPT_WIDE[0])])
def test_sweep_matches_is_true_per_code_across_blocks(axioms):
    _check_sweep(*_SWEPT_WIDE, axioms)


# bounded_consequence and axiom_add_exists check all of a model list at
# once, one lane per model; the reference checks one model at a time with
# eval_formula under every assignment and reports the first that fails.
def _first_failure(theory, bound, formulas):
    for k in range(1, bound + 1):
        for m in enumerate_models(theory, k):
            if not all(_true(m, f) for f in formulas):
                return k, m
    return None


def _lane_example(case, axioms, formulas):
    lang, _ = case
    return example((case, *([parse_formula(t, lang) for t in ts] for ts in (axioms, formulas))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SWEPT).flatmap(
    lambda case: st.tuples(st.just(case), _axioms(case[0]), _axioms(case[0]))
))
@_lane_example(_SWEPT[2], ["(not (= v0 v0))"], ["(R v0 v1)"])  # no models at all
@_lane_example(_SWEPT[2], ["(= v0 v1)"], ["(not C)", "(R v0 v0)"])  # none above size 1
@_lane_example(_SWEPT[1], ["(T v0 v0 v1)"], ["(exists v2 (P v0))"])
@_lane_example(_SWEPT[2], ["(R v1 v1)"], ["(and (R v2 v2) (= v1 v1))"])
@_lane_example(_SWEPT[3], ["(or C (P v0))"], ["(exists v0 (or (Q v1) (= v0 v2)))"])
@_lane_example(_SWEPT[2], ["(exists v1 (R v0 v1))"], ["(exists v1 (R v1 v0))"])
def test_bounded_checks_match_is_true_per_model(case):
    (lang, k), axioms, formulas = case
    theory, other = Theory("T", lang, axioms), Theory("U", lang, formulas)
    failure = _first_failure(theory, k, formulas[:1])
    assert bounded_consequence(theory, formulas[0], k) == (
        (False, True, *failure) if failure else (True, False, k, None)
    )
    answer = axiom_add_exists(other, theory, k)
    if set(formulas) <= set(axioms):
        assert answer.answer == "yes"
    else:
        failure = _first_failure(theory, k, formulas)
        assert (answer.answer, answer.countermodel) == (
            ("no", failure[1]) if failure else ("unknown", None)
        )


# `_holds` reads a formula's leading not/exists prefix instead of tabling
# it. Axioms wrap a matrix, often with free variables, in random layers:
# forall (nested, or over a variable that is not free), exists (a forall
# prefix that ends in exists, or a forall under an exists), not not
# between quantifiers, not exists over a body that is no negation, and
# plain not. Model lists and first countermodels are checked against
# eval_formula under every assignment.
_PREFIX_CASES = [
    (Language.make("PR3", {"P": 1, "R": 2}, 3), 2),
    (Language.make("CP3", {"C": 0, "P": 1}, 3), 3),
]


@st.composite
def _prefixed(draw, lang):
    phi = draw(_formulas(lang, max_leaves=3))
    wraps = [
        lambda v, f: forall(v, f), exists, lambda v, f: not_(not_(f)),
        lambda v, f: not_(exists(v, f)), lambda v, f: not_(f),
    ]
    for wrap in draw(st.lists(st.sampled_from(wraps), max_size=4)):
        phi = wrap(draw(st.integers(0, lang.var_bound - 1)), phi)
    return phi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_PREFIX_CASES).flatmap(lambda case: st.tuples(
    st.just(case),
    st.lists(_prefixed(case[0]), max_size=2),
    st.lists(_prefixed(case[0]), min_size=1, max_size=2),
)))
@_lane_example(_PREFIX_CASES[0],
               ["(forall v0 (forall v1 (forall v2 (implies (R v0 v1) (R v1 v2)))))"],
               ["(forall v2 (forall v0 (R v0 v0)))"])
@_lane_example(_PREFIX_CASES[0], ["(forall v0 (not (not (forall v1 (R v0 v1)))))"],
               ["(not (exists v0 (and (P v0) (R v0 v1))))"])
@_lane_example(_PREFIX_CASES[0], ["(forall v0 (exists v1 (R v0 v1)))"],
               ["(exists v1 (forall v0 (R v0 v1)))", "(R v0 v1)"])
@_lane_example(_PREFIX_CASES[1], ["(not (not (exists v0 (P v0))))"],
               ["(not (exists v1 (not (P v0))))", "(not (not (not C)))"])
def test_quantifier_prefixes_match_the_closure_oracle(case):
    (lang, k), axioms, formulas = case
    theory = Theory("T", lang, axioms)
    models = [model_to_json(m) for m in enumerate_models(theory, k)]
    assert models == _brute(lang, k).models(axioms)
    expected = next((m for m in enumerate_models(theory, k)
                     if not all(_true(m, f) for f in formulas)), None)
    assert semantics.first_countermodel(theory, k, formulas) == expected


def test_sweep_tables_no_universal_prefix(monkeypatch):
    # a forall-prefixed conjunct is decided on its matrix: neither its own
    # node nor the exists nodes of its prefix get a table
    lang = Language.make("Pin", {"R": 2}, 3)
    phi = parse_formula("(forall v0 (forall v1 (implies (R v0 v1) (exists v2 (R v1 v2)))))", lang)
    prefix = [phi, phi.sub, phi.sub.sub, phi.sub.sub.sub, phi.sub.sub.sub.sub]
    assert [type(f).__name__ for f in prefix] == ["Not", "Exists", "Not", "Not", "Exists"]
    tabled, real = [], semantics._Tables.table
    monkeypatch.setattr(semantics._Tables, "table",
                        lambda tables, f: tabled.append(f) or real(tables, f))
    clear_memory_caches()
    models = [model_to_json(m) for m in enumerate_models(Theory("T", lang, [phi]), 3)]
    assert tabled and not any(f is g for f in tabled for g in prefix)
    assert models == _brute(lang, 3).models([phi])


# Orbits and canonical forms of code-born models against the brute force
# above, which relabels every tuple under every permutation. The
# signatures mix ranks 0-3 in several orders of their blocks.
_MIXED = [
    Language.make("M0123", {"C": 0, "P": 1, "R": 2, "T": 3}, 3),
    Language.make("M3021", {"A": 3, "B": 0, "D": 2, "E": 1}, 3),
    Language.make("M202", {"A": 2, "B": 0, "C": 2}, 2),
    Language.make("M00", {"A": 0, "B": 0}, 1),
]


def _brute(lang, k):
    return _brute_spaces.setdefault((lang, k), _BruteSpace(lang, k))


@st.composite
def _coded(draw, langs=_MIXED, sizes=st.integers(1, 4)):
    lang, k = draw(st.sampled_from(langs)), draw(sizes)
    width = sum(k**rank for _, rank in lang.symbols)
    return lang, k, draw(st.integers(0, (1 << width) - 1))


@settings(max_examples=120, deadline=None)
@given(_coded())
def test_orbit_matches_brute_force(example):
    lang, k, code = example
    orbit = _brute(lang, k).orbit(code)
    assert set(semantics._space(lang.symbols, k).images(code)) == orbit
    model = FiniteModel._of_code(lang, k, code)
    assert canonical_form(model) == (k, min(orbit))
    assert canonical_model(model).code == min(orbit)


# sizes 6 and 7: 719 and 5,039 position maps
_WIDE_ROWS = Language.make("CPR", {"C": 0, "P": 1, "R": 2}, 2)


@settings(max_examples=6, deadline=None)
@given(_coded([_WIDE_ROWS], st.integers(6, 7)))
def test_canonical_form_matches_brute_force_at_sizes_6_and_7(example):
    lang, k, code = example
    model = FiniteModel._of_code(lang, k, code)
    assert canonical_form(model) == (k, min(_brute(lang, k).orbit(code)))


@settings(max_examples=120, deadline=None)
@given(_coded())
def test_code_born_model_round_trip(example):
    lang, k, code = example
    model = FiniteModel._of_code(lang, k, code)
    assert model.interp == _brute(lang, k).structure(code).interp
    rebuilt = FiniteModel(lang, k, model.interp)
    assert rebuilt == model and hash(rebuilt) == hash(model)
    assert rebuilt.code == code
    assert model_to_json(rebuilt) == model_to_json(model)
    data = json.loads(model_to_json(model))
    assert FiniteModel(lang, data["size"], data["interp"]) == model


_S3 = Language.make("S3", {"A": 0, "B": 0, "C": 0}, 0)
_sentence = st.recursive(
    st.sampled_from([atom("A"), atom("B"), atom("C")]),
    lambda c: st.one_of(st.builds(and_, c, c), st.builds(not_, c)),
    max_leaves=8,
)


@settings(max_examples=60)
@given(st.lists(_sentence, max_size=3))
def test_sat_sets_match_truth_tables(axioms):
    rows = list(itertools.product((False, True), repeat=3))
    expected = frozenset(
        row for row in rows
        if all(eval_formula(assignment_model(_S3, row), (), a) for a in axioms)
    )
    assert frozenset(sat_rows(_S3, sat_assignments(Theory("s", _S3, axioms)))) == expected
    for phi in axioms:
        assert frozenset(sat_rows(_S3, sat_of_formula(_S3, phi))) == frozenset(
            row for row in rows if eval_formula(assignment_model(_S3, row), (), phi)
        )


# Sat masks against the truth-table oracle, bit by bit. 13 constants give
# 2^13 rows, two evaluation blocks of 2^12.
_S13 = Language.make("S13", {f"C{i:02d}": 0 for i in range(13)}, 0)


def _sentences(lang, max_leaves=8):
    return st.recursive(
        st.sampled_from([atom(c) for c in lang.constants]),
        lambda c: st.one_of(st.builds(and_, c, c), st.builds(not_, c)),
        max_leaves=max_leaves,
    )


def _truth_table(lang, formulas):
    """Per all_assignments row: does it satisfy every formula?"""
    return [
        all(eval_formula(assignment_model(lang, row), (), f) for f in formulas)
        for row in all_assignments(lang)
    ]


def _assert_mask_matches(lang, mask, formulas):
    table = _truth_table(lang, formulas)
    assert mask >> len(table) == 0
    assert [bool(mask >> r & 1) for r in range(len(table))] == table
    assert list(sat_rows(lang, mask)) == [
        row for row, ok in zip(all_assignments(lang), table) if ok
    ]


@settings(max_examples=60)
@given(st.lists(_sentence, max_size=3))
def test_sat_mask_bits_are_truth_table_rows(axioms):
    _assert_mask_matches(_S3, sat_assignments(Theory("s", _S3, axioms)), axioms)
    for phi in axioms:
        _assert_mask_matches(_S3, sat_of_formula(_S3, phi), [phi])


@settings(max_examples=5, deadline=None)
@given(st.lists(_sentences(_S13), max_size=2))
def test_sat_mask_bits_across_blocks(axioms):
    _assert_mask_matches(_S13, sat_assignments(Theory("s13", _S13, axioms)), axioms)


@settings(max_examples=40, deadline=None)
@given(st.lists(_sentence, max_size=3))
def test_sentential_model_lists_are_the_mask_rows(axioms):
    theory = Theory("s", _S3, axioms)
    rows = list(sat_rows(_S3, sat_assignments(theory)))
    for k in (1, 2, 3):
        expected = [assignment_model(_S3, row, k) for row in rows]
        assert enumerate_models(theory, k) == expected
        assert [m.code for m in enumerate_models(theory, k)] == [m.code for m in expected]


# The sentential decisions against a frozenset reference. A countermodel
# to a consequence is the least row in sorted order; every other witness is
# a formula that eval_formula finds true in every model of the side that
# proves it and false in the witness model.
def _ref_sat(lang, formulas):
    return frozenset(
        row for row, ok in zip(all_assignments(lang), _truth_table(lang, formulas)) if ok
    )


def _row(model):
    return tuple(model.rel(c) for c in model.lang.constants)


def _holds_in(phi, lang, rows):
    return all(eval_formula(assignment_model(lang, r), (), phi) for r in rows)


def _separates(phi, lang, rows, model):
    """phi holds in the model over lang of every row and fails in model."""
    return _holds_in(phi, lang, rows) and not eval_formula(model, (), phi)


def _induce(images, row):
    """The source row that the images (over _S3) induce in an _S3 row."""
    return tuple(eval_formula(assignment_model(_S3, row), (), phi) for phi in images)


@settings(max_examples=60, deadline=None)
@given(st.lists(_sentence, max_size=3), _sentence)
def test_sentential_consequence_witness_matches_reference(axioms, phi):
    theory = Theory("s", _S3, axioms)
    bad = sorted(_ref_sat(_S3, axioms) - _ref_sat(_S3, [phi]))
    res = bounded_consequence(theory, phi)
    assert res.exact and res.bound is None
    assert res.holds == (not bad)
    assert res.countermodel == (assignment_model(_S3, bad[0]) if bad else None)


_ATOMS3 = [atom("A"), atom("B"), atom("C")]
_images3 = st.lists(_sentence, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(_sentence, max_size=3), st.lists(_sentence, max_size=3), _sentence,
       _images3, _images3)
@example([], [], atom("A"), _ATOMS3, _ATOMS3)  # the identity pair is a defeq
@example([atom("A")], [atom("B")], atom("B"),  # swapping A and B is one too
         [atom("B"), atom("A"), atom("C")], [atom("B"), atom("A"), atom("C")])
def test_sentential_equivalence_witness_matches_reference(ax1, ax2, phi, im12, im21):
    s1, s2 = _ref_sat(_S3, ax1), _ref_sat(_S3, ax2)
    t1, t2 = Theory("a", _S3, ax1), Theory("b", _S3, ax2)
    res = logically_equivalent(t1, t2)
    assert res.exact and res.bound is None and res.equivalent == (s1 == s2)
    if s1 != s2:  # an axiom of one side, failing in a model of the other
        row = _row(res.witness_model)
        assert row in s1 ^ s2
        assert _separates(res.witness_formula, _S3, s2 if row in s1 else s1, res.witness_model)
    # axiom adding: t1 + phi must have t2's rows, and some axiom exists
    # exactly when t2's rows are among t1's
    added = s1 & _ref_sat(_S3, [phi])
    status = check_axiom_add(t1, t2, phi)
    assert (status.state, status.bound) == ("verified-exact" if added == s2 else "refuted", None)
    assert added == s2 or _row(status.witness) in added ^ s2
    answer = axiom_add_exists(t1, t2)
    assert (answer.answer, answer.exact, answer.bound) == ("yes" if s2 <= s1 else "no", True, None)
    assert answer.countermodel == (assignment_model(_S3, min(s2 - s1)) if s2 - s1 else None)
    # defeq: both translations pull rows back into the other theory's rows
    # and both round trips fix every row
    tr12 = Translation.make(_S3, _S3, dict(zip(_S3.constants, im12)))
    tr21 = Translation.make(_S3, _S3, dict(zip(_S3.constants, im21)))
    defeq = (all(_induce(im12, b) in s1 for b in s2) and all(_induce(im21, a) in s2 for a in s1)
             and all(_induce(im12, _induce(im21, a)) == a for a in s1)
             and all(_induce(im21, _induce(im12, b)) == b for b in s2))
    rep = check_defeq(tr12, tr21, t1, t2)
    assert (rep.verdict, rep.exact, rep.bound) == ("defeq" if defeq else "refuted", True, None)
    model, psi = rep.witness_model, rep.witness_formula
    if rep.note.startswith("round trip"):  # an atom whose round trip moves in the model
        home, there, back = (s1, tr21, tr12) if rep.note.endswith(" a") else (s2, tr12, tr21)
        trip = apply_translation(there, apply_translation(back, psi))
        assert _row(model) in home
        assert eval_formula(model, (), psi) != eval_formula(model, (), trip)
    elif not defeq:  # an axiom of the source whose translation fails in a target model
        source, tr, target = (s1, tr12, s2) if rep.note.startswith("tr12") else (s2, tr21, s1)
        assert _row(model) in target and _holds_in(psi, _S3, source)
        assert not eval_formula(model, (), apply_translation(tr, psi))


_S2 = Language.make("AC", {"A": 0, "C": 0}, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_sentences(_S2, 4), max_size=2), st.lists(_sentence, max_size=3),
       st.lists(_sentence, min_size=2, max_size=2))
@example([], [], [atom("A"), atom("C")])  # the inclusion of a free theory is faithful
def test_sentential_conservativity_witness_matches_reference(ax1, ax2, images):
    s1, s2 = _ref_sat(_S2, ax1), _ref_sat(_S3, ax2)
    t1, t2 = Theory("t1", _S2, ax1), Theory("t2", _S3, ax2)
    projected = {_induce([atom("A"), atom("C")], row) for row in s2}
    res = conservative_extension(t1, t2)
    assert res.exact and res.bound is None and res.holds == (projected == s1)
    if projected != s1:  # not chi(row), row one side's and not the other's
        row = _row(res.witness_model)
        assert row in projected ^ s1 and res.detail == "size-1 reducts of t2 differ from models of t1"
        proves = (_S3, s2) if row in s1 else (_S2, s1)
        assert _separates(res.witness_formula, *proves, res.witness_model)
    # an interpretation of t1 in t2 is checked on the rows its images induce
    tr = Translation.make(_S2, _S3, dict(zip(_S2.constants, images)))
    induced = {_induce(images, row) for row in s2}
    rep = check_interpretation(tr, t1, t2)
    verdict = "refuted" if induced - s1 else "interpretation" if s1 - induced else "faithful"
    assert (rep.verdict, rep.exact, rep.bound) == (verdict, True, None)
    if verdict == "refuted":  # an axiom of t1 whose translation fails in a model of t2
        assert _row(rep.witness_model) in s2 and _holds_in(rep.witness_formula, _S2, s1)
        assert not eval_formula(rep.witness_model, (), apply_translation(tr, rep.witness_formula))
    if verdict == "interpretation":  # true in every induced row: t2 proves its translation
        assert _row(rep.witness_model) in s1 - induced
        assert _separates(rep.witness_formula, _S2, induced, rep.witness_model)


def test_a_sentential_source_in_a_first_order_target_stays_bounded():
    # size 1 decides only when every language is sentential: against a
    # first-order target the checks run size by size, and from k = n = 0 on
    # a model of free that nothing induces (P false) leaves them undecided,
    # though p proves P; deciding it is ROADMAP direction 4 across languages
    sentential = Language.make("P0", {"P": 0}, 0)
    first_order = Language.make("PU", {"P": 0, "U": 1}, 1)
    free, p = Theory.make("free", sentential, []), Theory.make("p", first_order, ["P"])
    res = conservative_extension(free, p, 3)
    assert (res.holds, res.exact, res.bound) == (None, False, 1)
    rep = check_interpretation(Translation.make(sentential, first_order), free, p, 3)
    assert (rep.verdict, rep.exact, rep.bound) == ("undecided", False, 1)


def test_truth_tables_are_capped():
    wide = Language.make("S22", {f"C{i:02d}": 0 for i in range(22)}, 0)
    theory = Theory.make("wide", wide, [])
    assert not enumeration_feasible(theory, 1)
    with pytest.raises(CapExceededError) as err:
        sat_assignments(theory)
    assert str(err.value) == "4194304 truth-table rows exceed cap 2097152"
    with pytest.raises(CapExceededError):
        enumerate_models(theory, 1)
    with pytest.raises(CapExceededError):
        sat_of_formula(wide, atom("C00"))
    edge = Language.make("S21", {f"C{i:02d}": 0 for i in range(21)}, 0)
    assert enumeration_feasible(Theory.make("edge", edge, []), 1)


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 20).flatmap(
    lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=40).map(lambda c: (width, c))))
def test_lane_masks_transpose_the_codes_and_back(case):
    # bit i of mask j is bit j of code i; zero codes or zero width included
    width, codes = case
    bits = semantics._lanes(codes, width)
    assert bits == [sum((c >> j & 1) << i for i, c in enumerate(codes)) for j in range(width)]
    assert semantics._lane_codes(bits, len(codes)) == codes
    assert [semantics._lane_code(bits, i) for i in range(len(codes))] == codes


# t1's blocks lie apart inside t2's code: B and D are separated by C, and
# by A before them; each pair with the largest size its sweep allows
_REDUCT_PAIRS = [
    ({"B": 1, "D": 2}, {"A": 1, "B": 1, "C": 2, "D": 2}, 2),
    ({"B": 1, "D": 2}, {"A": 0, "B": 1, "C": 0, "D": 2}, 3),
    ({"B": 0, "D": 1}, {"A": 1, "B": 0, "C": 1, "D": 1}, 3),
]


def _reduct_oracle(t1, t2, bound):
    """conservative_extension by its definition: each t2 model's interp cut
    down to t1's symbols and put in canonical form; a mismatch at size k
    decides where k < n, or where a reduct is no t1 model, and otherwise
    leaves the answer undecided unless a larger size decides."""
    n, undecided = t1.lang.var_bound, None
    for k in range(1, bound + 1):
        own = {canonical_form(m) for m in enumerate_models(t1, k)}
        reducts = {
            canonical_form(FiniteModel(t1.lang, k, {s: m.interp[s] for s, _ in t1.lang.symbols}))
            for m in enumerate_models(t2, k)
        }
        decisive = own ^ reducts if k < n else reducts - own
        if decisive:
            return False, k, min(decisive)
        if own != reducts and undecided is None:
            undecided = (None, k, min(own ^ reducts))
    return undecided or (True, bound, None)


@st.composite
def _reduct_cases(draw):
    sig1, sig2, top = draw(st.sampled_from(_REDUCT_PAIRS))
    n = draw(st.integers(max(sig1.values()) or 1, 3))
    lang1 = Language.make("L1", sig1, n)
    lang2 = Language.make("L2", sig2, draw(st.integers(n, 3)))
    # t2's own axioms speak of every symbol, or of the new ones only
    new = Language.make("New", {s: r for s, r in sig2.items() if s not in sig1}, lang2.var_bound)
    ax1 = draw(st.lists(_formulas(lang1, 4), max_size=2))
    ax2 = draw(st.lists(_formulas(draw(st.sampled_from((lang2, new))), 4), max_size=2))
    if draw(st.integers(0, 3)):  # mostly an extension of t1, conservative or not
        ax2 = ax1 + ax2
    return Theory("t1", lang1, ax1), Theory("t2", lang2, ax2), draw(st.integers(top - 1, top))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_reduct_cases())
def test_conservativity_matches_the_reduct_oracle(case):
    t1, t2, bound = case
    res = conservative_extension(t1, t2, bound)
    holds, k, least = _reduct_oracle(t1, t2, bound)
    assert (res.holds, res.exact, res.bound) == (holds, False, k)
    assert (None if res.witness_model is None else canonical_form(res.witness_model)) == least


_AGREEING = {True: ("faithful",), None: ("undecided",), False: ("refuted", "interpretation")}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_reduct_cases())
def test_faithfulness_of_the_inclusion_is_conservativity(case):
    # the identity from t1's language into t2's is faithful exactly when
    # t2 is conservative over t1: both answers come from one rule
    t1, t2, bound = case
    holds = conservative_extension(t1, t2, bound).holds
    rep = check_interpretation(identity_translation(t1.lang, t2.lang), t1, t2, bound)
    assert rep.verdict in _AGREEING[holds]
