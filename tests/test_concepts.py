from __future__ import annotations

import itertools
import operator

import pytest

from thdist.concepts import (
    check_defeq,
    check_interpretation,
    closure_formula,
    closure_to_json,
    concept_closure,
    cz_lower_bound,
    cz_of_model,
    cz_sentential,
    formula_battery,
    sentential_defeq_witness,
)
from thdist.errors import InconsistencyError, UnsupportedFragmentError
from thdist.semantics import FiniteModel, Theory, assignment_set, enumerate_models
from thdist.syntax import Language, and_, atom, eq, exists, not_
from thdist.translation import Translation, identity_translation

from cylindrification import cylindrify

PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)
LT2 = Language.make("LT2", {"R": 2}, 2)


def test_cz_sentential_examples():
    assert cz_sentential(Theory.make("free", PQ, [])).value == 16
    assert cz_sentential(Theory.make("or", PQ, ["(or P Q)"])).value == 8
    bot = cz_sentential(Theory.make("bot", PQ, ["(and P (not P))"]))
    assert bot.value == 1  # all formulas collapse into one concept
    with pytest.raises(UnsupportedFragmentError):
        cz_sentential(Theory.make("fo", LT2, []))


def test_concept_closure_two_point_order():
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    closure = concept_closure(m)
    assert len(closure) == 16  # every subset of M^2 is definable
    assert len(closure) == len(closure.relations) == len(closure.traces)


def test_concept_closure_single_point():
    lang = Language.make("one", {"P": 1}, 1)
    m = FiniteModel(lang, 1, {"P": {(0,)}})
    assert len(concept_closure(m)) == 2  # empty set and the full set


def test_concept_closure_is_closed_and_traceable():
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    closure = concept_closure(m)
    rels = closure.relations
    full = (1 << closure.universe_bits) - 1
    for x in rels:
        assert (full ^ x) in rels
        for i in range(closure.n_vars):
            assert cylindrify(x, m.size, closure.n_vars, i) in rels
        for y in rels:
            assert (x & y) in rels
    for mask in rels:
        assert assignment_set(m, closure_formula(closure, mask)) == mask


def test_adding_definable_symbol_keeps_closure_size():
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    closure = concept_closure(m)
    bigger = Language.make("LT2S", {"R": 2, "S": 2}, 2)
    m2 = FiniteModel(bigger, 2, {"R": {(0, 1)}, "S": {(0, 1), (1, 1)}})
    assert len(concept_closure(m2)) == len(closure)


def test_closure_matches_formula_enumeration_oracle():
    # depth-bounded formula enumeration over sizes <= 2, n <= 2
    for rel in [set(), {(0, 1)}, {(0, 0), (1, 1)}]:
        m = FiniteModel(LT2, 2, {"R": set(rel)})
        layers = [
            [eq(i, j) for i in range(2) for j in range(2)]
            + [atom("R", (i, j)) for i in range(2) for j in range(2)]
        ]
        seen = {assignment_set(m, f) for f in layers[0]}
        for _ in range(4):
            prev = [f for layer in layers for f in layer]
            fresh = []
            for f in layers[-1]:
                for cand in [not_(f)] + [exists(v, f) for v in range(2)]:
                    mask = assignment_set(m, cand)
                    if mask not in seen:
                        seen.add(mask)
                        fresh.append(cand)
                for g in prev:
                    cand = and_(f, g)
                    mask = assignment_set(m, cand)
                    if mask not in seen:
                        seen.add(mask)
                        fresh.append(cand)
            layers.append(fresh)
        assert seen == set(concept_closure(m).relations)


def test_closure_fragment_precondition():
    # the closure runs in the ambient fragment: over the language's varBound
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    assert concept_closure(m).n_vars == LT2.var_bound


def test_closure_json_shape():
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    data = closure_to_json(concept_closure(m))
    assert data["count"] == 16 and data["vars"] == 2
    assert all(len(e["bits"]) == 4 for e in data["elements"])


def test_cz_of_model_closure_exact():
    m = FiniteModel(LT2, 2, {"R": {(0, 1)}})
    value = cz_of_model(m)
    assert value.value == 16 and value.method == "closure-exact"


def test_cz_lower_bound_first_order():
    posets = Theory.make("posets", Language.make("B", {"R": 2}, 3), [
        "(forall v0 (R v0 v0))",
        "(forall v0 (forall v1 (implies (and (R v0 v1) (R v1 v0)) (= v0 v1))))",
        "(forall v0 (forall v1 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
    ])
    value = cz_lower_bound(posets, bound=2, depth=3)
    assert value.lower_bound and value.method == "enumeration-lower-bound"
    assert value.value >= 16 and value.depth == 3


def _tuple_vector_cz(theory, bound, depth):
    """Reference: the enumeration bound with one meaning vector per formula,
    a tuple holding one assignment mask per model, combined coordinate by
    coordinate. Returns the count after each of rounds 0..depth."""
    models = [m for k in range(1, bound + 1) for m in enumerate_models(theory, k)]
    n = theory.lang.var_bound
    fulls = [(1 << (m.size**n)) - 1 for m in models]

    def vec(phi):
        return tuple(assignment_set(m, phi) for m in models)

    seen = set()
    frontier = []

    def add(v):
        if v not in seen:
            seen.add(v)
            frontier.append(v)

    for i in range(n):
        for j in range(n):
            add(vec(eq(i, j)))
    for sym, rank in theory.lang.symbols:
        for args in itertools.product(range(n), repeat=rank):
            add(vec(atom(sym, args)))
    counts = [len(seen)]
    older = []  # the elements of the rounds before this one
    for _ in range(depth):
        fresh, frontier = frontier, []
        for a, x in enumerate(fresh):
            add(tuple(map(operator.xor, fulls, x)))
            for i in range(n):
                add(tuple(cylindrify(xc, m.size, n, i) for m, xc in zip(models, x)))
            # & commutes: each unordered pair inside fresh is met once
            for y in itertools.chain(older, fresh[a:]):
                add(tuple(map(operator.and_, x, y)))
        older += fresh
        counts.append(len(seen))
    return counts


@pytest.mark.parametrize("name", ["BinEmpty", "Posets", "Eqrels"])
def test_cz_lower_bound_matches_tuple_vector_reference(examples_catalog, name):
    theory = examples_catalog.theory(name)
    for bound in (1, 2, 3):
        expected = _tuple_vector_cz(theory, bound, 3)
        got = [cz_lower_bound(theory, bound, depth).value for depth in range(4)]
        assert got == expected, (bound, got, expected)


def test_cz_lower_bound_posets_pinned(examples_catalog):
    assert cz_lower_bound(examples_catalog.theory("Posets"), bound=4, depth=3).value == 2715


def test_check_interpretation_first_order_preserved_not_reflected():
    # Full proves (R v0 v1) under its universal closure and Free does not;
    # the identity preserves Free's theorems but does not reflect this one
    free = Theory.make("Free", LT2, [])
    full = Theory.make("Full", LT2, ["(forall v0 (forall v1 (R v0 v1)))"])
    rep = check_interpretation(identity_translation(LT2, LT2), free, full, bound=3)
    assert (rep.verdict, rep.exact, rep.bound) == ("interpretation", False, 3)
    assert rep.witness_formula == atom("R", (0, 1))
    assert rep.witness_model == FiniteModel(LT2, 1, {"R": set()})
    assert rep.note == "theoremhood preserved but not reflected on the battery"


def test_check_defeq_first_order_round_trip_refuted():
    # R -> not R one way and the identity back sends (R v0 v1) to its
    # negation, false in every model
    free = Theory.make("Free", LT2, [])
    negate = Translation.make(LT2, LT2, {"R": not_(atom("R", (0, 1)))})
    rep = check_defeq(negate, identity_translation(LT2, LT2), free, free)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 1)
    assert rep.witness_formula == atom("R", (0, 1))
    assert rep.witness_model == FiniteModel(LT2, 1, {"R": set()})
    assert rep.note == "round trip fails over Free"


def test_check_interpretation_identity_faithful_on_conservative_pair():
    small = Language.make("P1", {"P": 0}, 0)
    big = Language.make("P2", {"P": 0, "Q": 0}, 0)
    t1 = Theory.make("free", small, [])
    t2 = Theory.make("linked", big, ["(iff Q P)"])
    rep = check_interpretation(identity_translation(small, big), t1, t2)
    assert rep.verdict == "faithful" and rep.exact


def test_check_interpretation_refuted():
    t1 = Theory.make("p", Language.make("LP", {"P": 0}, 0), ["P"])
    t2 = Theory.make("notq", Language.make("LQ", {"Q": 0}, 0), ["(not Q)"])
    tr = Translation.make(t1.lang, t2.lang, {"P": atom("Q")})
    rep = check_interpretation(tr, t1, t2)
    assert rep.verdict == "refuted" and rep.exact


def test_check_interpretation_first_order_refutation_through_a_non_axiom_is_bounded():
    # the axiom's atom (R v1 v0) needs a substitution chain past v1, so the
    # axiom itself is skipped; its conjunct (P v0) held in t1's models only
    # up to the bound, so failing it in t2 refutes only up to that bound
    lang = Language.make("RP", {"P": 1, "R": 2}, 2)
    t1 = Theory.make("t1", lang, ["(and (R v1 v0) (forall v0 (P v0)))"])
    t2 = Theory.make("t2", lang, [])
    rep = check_interpretation(identity_translation(lang, lang), t1, t2, 2)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", False, 2)
    assert rep.witness_formula == atom("P", (0,))
    assert rep.note == (
        "theoremhood not preserved, bounded: t1 proves the formula only up to size 2"
    )


def test_check_interpretation_not_faithful():
    # everything maps to theorems, but falsity is not reflected
    t1 = Theory.make("free", Language.make("LP", {"P": 0}, 0), [])
    t2 = Theory.make("q", Language.make("LQ", {"Q": 0}, 0), ["Q"])
    tr = Translation.make(t1.lang, t2.lang, {"P": atom("Q")})
    rep = check_interpretation(tr, t1, t2)
    assert rep.verdict == "interpretation"


def test_check_defeq_identity():
    t = Theory.make("conj", PQ, ["(and P Q)"])
    tr = identity_translation(PQ, PQ)
    rep = check_defeq(tr, tr, t, t)
    assert rep.verdict == "defeq" and rep.exact


def test_check_defeq_refuted_on_wrong_translation():
    t1 = Theory.make("p", PQ, ["P"])
    t2 = Theory.make("q", PQ, ["Q"])
    tr = identity_translation(PQ, PQ)
    rep = check_defeq(tr, tr, t1, t2)
    assert rep.verdict == "refuted"


def test_sentential_defeq_witness_found_and_checked():
    t1 = Theory.make("conj", PQ, ["(and P Q)"])
    t2 = Theory.make("r", Language.make("LR", {"R": 0}, 0), ["R"])
    pair = sentential_defeq_witness(t1, t2)
    assert pair is not None
    rep = check_defeq(pair[0], pair[1], t1, t2)
    assert rep.verdict == "defeq" and rep.exact


def test_sentential_defeq_witness_none_on_size_mismatch():
    t1 = Theory.make("free1", Language.make("L1", {"P": 0}, 0), [])
    t2 = Theory.make("free2", PQ, [])
    assert sentential_defeq_witness(t1, t2) is None


def test_sentential_defeq_witness_identity_case():
    t = Theory.make("p", PQ, ["P"])
    pair = sentential_defeq_witness(t, t)
    assert pair is not None


def test_sentential_defeq_witness_rejects_inconsistent():
    bot = Theory.make("bot", PQ, ["(and P (not P))"])
    with pytest.raises(InconsistencyError):
        sentential_defeq_witness(bot, bot)


def test_defeq_implies_equal_cz_and_faithful_directions():
    t1 = Theory.make("peq", PQ, ["(iff P Q)"])
    t2 = Theory.make("single", Language.make("L1", {"X": 0}, 0), [])
    pair = sentential_defeq_witness(t1, t2)
    assert pair is not None
    assert cz_sentential(t1).value == cz_sentential(t2).value
    assert check_interpretation(pair[0], t1, t2).verdict == "faithful"
    assert check_interpretation(pair[1], t2, t1).verdict == "faithful"


def test_faithful_implies_cz_monotone():
    small = Theory.make("free1", Language.make("L1", {"P": 0}, 0), [])
    big = Theory.make("free2", PQ, [])
    tr = identity_translation(small.lang, big.lang)
    rep = check_interpretation(tr, small, big)
    assert rep.verdict == "faithful"
    assert cz_sentential(small).value <= cz_sentential(big).value


def test_battery_contents():
    t = Theory.make("posets", Language.make("B", {"R": 2}, 3), [
        "(forall v0 (R v0 v0))",
    ])
    battery = formula_battery(t, 3)
    assert t.axioms[0] in battery
    assert atom("R", (0, 1)) in battery
    # psi(1) and psi(2) fit inside three variables, psi(3) does not
    names = [f for f in battery]
    assert len(names) == len(set(f.uid for f in names))
