from __future__ import annotations

import hashlib
import itertools
import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from thdist.catalog import loads_catalog, shipped_catalog_text
from thdist.concepts import (
    CLOSURE_CAP,
    _types,
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
from thdist.errors import (
    CapExceededError,
    InconsistencyError,
    UnsupportedFragmentError,
    VariableBudgetError,
)
from thdist.relations import EdgeCertificate, verify_certificate
from thdist.semantics import (
    FiniteModel,
    Theory,
    _induced,
    _space,
    assignment_set,
    enumerate_models,
    eval_formula,
    model_lang_from_json,
)
from thdist.syntax import Language, and_, atom, eq, exists, not_, print_formula
from thdist.translation import Translation, apply_translation, identity_translation

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


@st.composite
def _small_models(draw):
    # four points over two variables as well: a class of three or fewer
    # points is split by a single round of refinement
    k, rank = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    lang = Language.make("M", {"R": rank}, draw(st.integers(rank, 3 if k < 4 else 2)))
    tuples = list(itertools.product(range(k), repeat=rank))
    return FiniteModel(lang, k, {"R": draw(st.sets(st.sampled_from(tuples)))})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_small_models())
def test_closure_has_two_to_the_types_elements(m):
    # the closure is the Boolean algebra whose atoms are the L^n-types
    types = _types([m])
    if 1 << types > CLOSURE_CAP:
        with pytest.raises(CapExceededError, match=rf"closure has 2\^{types} elements"):
            concept_closure(m)
    else:
        assert len(concept_closure(m)) == 1 << types


# (model JSON, variables, count, SHA-256 of the sorted-key JSON of
# closure_to_json), computed with the multi-model closure engine that the
# one-model one replaced, so that no rewrite moves the output unseen
_PINNED_CLOSURES = [
    ('{"size": 2, "interp": {"R": [[0, 1]]}}', 2, 16,
     "ac81631e3e59e1fa0ae49c5610447882ca635a1dd5f8aca658aee81ffdab1798"),
    ('{"size": 4, "interp": {"R": [[0, 0], [1, 1], [2, 2], [3, 3]]}}', 2, 4,
     "57b03ea273416f62d89aa5b06f1d0ee5319ea7e6d664a4e065c35e8badd135fb"),
    ('{"size": 4, "interp": {"R": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [1, 3], [2, 2], '
     '[2, 3], [3, 3]]}}', 2, 1024,
     "c89ded6ce1154afea85629d58658921f03d5f53aa669ec6338de8f3d98a0d8ed"),
    ('{"size": 4, "interp": {"R": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [2, 2], [3, 3]]}}',
     2, 32, "b1a49b42dfdc8379d883a45f1a11de48c85235fc120cc5b1b46c96aae54116c0"),
    ('{"size": 4, "interp": {"R": [[0, 0], [0, 1], [1, 1], [2, 2], [2, 3], [3, 3]]}}', 2, 256,
     "5e585034bf8c2402c3f1f783141a3c34a0de4e0634b35c036f3289fa3c0b4d42"),
    ('{"size": 3, "interp": {"P": [[0]]}}', 1, 4,
     "c908a28827b3c840d34cefd1aed440435ff9f9196c30b616b90fa3cb94c0d221"),
    ('{"size": 3, "interp": {"P": [[0]]}}', 2, 32,
     "7696e3746c7ec8c15fe1742a27c23db1bdaa963cdf1721bcf50a3637cfbd20b1"),
    ('{"size": 2, "interp": {"P": [[0]]}}', 3, 256,
     "6edb5dd5c968890cd00f3d46763977ad813511eb53ef4c4d59c5d17f79c7d535"),
    ('{"size": 3, "interp": {"R": [[0, 1], [1, 2]]}}', 2, 512,
     "03d9e6de972fe5ce83d60cb21f0b1cdcd6d894679b7174538bad7a624d0c87f1"),
    ('{"size": 2, "interp": {"R": []}, "ranks": {"R": 2}}', 3, 16,
     "a4f6a6c769c4bd64d4d14c73d0daf76ccf7951fb4de09f4bbab6698d2ccbe57f"),
    ('{"size": 2, "interp": {"R": []}, "ranks": {"R": 2}}', 4, 256,
     "a23bdfb0ddcd4e6c46e20be844a63101b718f116d192d42bf640a8a198bb2cef"),
]


@pytest.mark.parametrize(
    "text, n, count, digest", _PINNED_CLOSURES,
    ids=[f"model{i}" for i in range(len(_PINNED_CLOSURES))],
)
def test_closure_output_is_pinned(text, n, count, digest):
    _, m = model_lang_from_json(text, n)
    data = closure_to_json(concept_closure(m))
    assert data["count"] == count
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == digest


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
    value = cz_lower_bound(posets, bound=2)
    assert value.lower_bound and value.method == "enumeration-lower-bound"
    assert value.value == 1 << 13


def _tuple_vector_cz(theory, bound, depth=None):
    """Reference: the closure of the models' meaning vectors, a tuple
    holding one assignment mask per model per formula, combined coordinate
    by coordinate. Returns the count after each of rounds 0..depth, or of
    every round up to the fixpoint when depth is None."""
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
    for _ in itertools.count() if depth is None else range(depth):
        if not frontier:
            break
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


# the bounds at which the reference reaches its fixpoint within a second
_FIXPOINT_BOUNDS = {"BinEmpty": (1,), "Posets": (1,), "Eqrels": (1, 2)}


@pytest.mark.parametrize("name", ["BinEmpty", "Posets", "Eqrels"])
def test_cz_lower_bound_matches_tuple_vector_reference(examples_catalog, name):
    theory = examples_catalog.theory(name)
    for bound in (1, 2):
        got = cz_lower_bound(theory, bound).value
        # each round's count counts closure elements, so none exceeds 2^types
        assert _tuple_vector_cz(theory, bound, 3)[-1] <= got, bound
        if bound in _FIXPOINT_BOUNDS[name]:
            assert _tuple_vector_cz(theory, bound)[-1] == got, bound


def test_cz_lower_bound_posets_pinned(examples_catalog):
    assert cz_lower_bound(examples_catalog.theory("Posets"), bound=4).value == 1 << 718


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


def test_check_interpretation_first_order_refutation_through_an_untranslatable_axiom_is_exact():
    # the axiom's atom (R v1 v0) has no substitution chain within two
    # variables, yet the check evaluates the axiom itself on the induced
    # structures, so it refutes exactly through the axiom
    lang = Language.make("RP", {"P": 1, "R": 2}, 2)
    t1 = Theory.make("t1", lang, ["(and (R v1 v0) (forall v0 (P v0)))"])
    t2 = Theory.make("t2", lang, [])
    rep = check_interpretation(identity_translation(lang, lang), t1, t2, 2)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 2)
    assert rep.witness_formula == t1.axioms[0]
    assert rep.witness_model == FiniteModel(lang, 1, {"P": set(), "R": set()})
    assert rep.note == "theoremhood not preserved"


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


def _induced_by_eval(tr: Translation, model: FiniteModel) -> FiniteModel:
    """tr*(M) clause by clause: each source symbol gets the extension of
    its image in M, whose free variables lie within the symbol's rank."""
    pad = model.lang.var_bound
    interp = {}
    for sym, rank in tr.source.symbols:
        tuples = {
            t for t in itertools.product(range(model.size), repeat=rank)
            if eval_formula(model, t + (0,) * (pad - rank), tr.image(sym))
        }
        interp[sym] = bool(tuples) if rank == 0 else tuples
    return FiniteModel(tr.source, model.size, interp)


# the shipped strict-defeq with each image negated instead of made strict
# or reflexive: both round trips hold, but tr12 is no interpretation
_WRONG_PAIR = (
    (':tr12 ((leq "(or (lt v0 v1) (= v0 v1))"))', ':tr12 ((leq "(not (lt v0 v1))"))'),
    (':tr21 ((lt "(and (leq v0 v1) (not (= v0 v1)))"))', ':tr21 ((lt "(not (leq v0 v1))"))'),
)


def _wrong_strict_defeq_catalog() -> str:
    text = shipped_catalog_text()
    for old, new in _WRONG_PAIR:
        assert old in text
        text = text.replace(old, new)
    return text


def test_wrong_strict_defeq_pair_is_refuted_with_a_rechecked_witness():
    # antisymmetry's atom (leq v1 v0) has no substitution chain within
    # three variables; the check evaluates antisymmetry itself on tr12*(M)
    cat = loads_catalog(_wrong_strict_defeq_catalog())
    cert = next(c for c in cat.certificates if c.name == "strict-defeq")
    assert verify_certificate(cert, cat.theories, 4).state == "refuted"
    leq, lt = cat.theory("PosetsLeq"), cat.theory("PosetsLt")
    rep = check_defeq(cert.tr12, cert.tr21, leq, lt, 4)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 4)
    assert rep.note == "tr12 is not an interpretation: theoremhood not preserved"
    assert rep.witness_formula == leq.axioms[1]  # antisymmetry
    antichain = FiniteModel(lt.lang, 2, {"lt": set()})
    assert rep.witness_model == antichain
    every = list(itertools.product(range(2), repeat=3))
    assert all(eval_formula(antichain, a, ax) for ax in lt.axioms for a in every)
    induced = _induced_by_eval(cert.tr12, antichain)
    assert not all(eval_formula(induced, a, rep.witness_formula) for a in every)


def test_check_interpretation_undecided_where_an_image_is_no_cylinder():
    # P's image has a free v1 and varies along it on reflexive relations of
    # size 2, so the battery decides; the axiom's atom (P v1) has no
    # substitution chain within two variables, and nothing else refutes
    lp = Language.make("LP", {"P": 1}, 2)
    t1 = Theory.make("taut", lp, ["(or (P v1) (not (P v1)))"])
    t2 = Theory.make("refl", LT2, ["(R v0 v0)"])
    tr = Translation.make(lp, LT2, {"P": atom("R", (0, 1))})
    rep = check_interpretation(tr, t1, t2, 2)
    assert (rep.verdict, rep.exact, rep.bound) == ("undecided", False, 2)
    assert rep.witness_formula == t1.axioms[0]
    assert rep.note == (
        f"{print_formula(t1.axioms[0])} has no translation within 2 variables, "
        "and the image of P varies along a variable past its rank"
    )
    cert = EdgeCertificate("faithful", "taut", "refl", tr=tr)
    status = verify_certificate(cert, {"taut": t1, "refl": t2}, 2)
    assert (status.state, status.bound) == ("undecided", 2)


_SIGNATURES = ({"R": 2}, {"P": 1, "Q": 1})


def _formulas(lang: Language, depth: int, variables, quantifiers: bool = True):
    vs = st.sampled_from(variables)
    leaf = st.one_of(
        st.builds(eq, vs, vs),
        *(st.tuples(*[vs] * rank).map(lambda args, s=sym: atom(s, args))
          for sym, rank in lang.symbols),
    )
    if depth == 0:
        return leaf
    sub = _formulas(lang, depth - 1, variables, quantifiers)
    steps = [st.builds(and_, sub, sub), st.builds(not_, sub)]
    if quantifiers:
        steps.append(st.builds(exists, st.sampled_from(range(lang.var_bound)), sub))
    return st.one_of(leaf, *steps)


def _image(target: Language, rank: int):
    """Quantifier-free, or one quantifier over a quantifier-free body;
    free variables within v0..v_{rank-1} either way."""
    own = tuple(range(rank))
    bodies = st.sampled_from(range(target.var_bound)).flatmap(
        lambda j: _formulas(target, 2, sorted({*own, j}), False).map(lambda f: exists(j, f))
    )
    return st.one_of(_formulas(target, 2, own, False), bodies, bodies.map(not_))


@st.composite
def _reduction_cases(draw):
    source = Language.make("Src", draw(st.sampled_from(_SIGNATURES)), 3)
    # five target variables leave room for every substitution chain
    target = Language.make("Tgt", draw(st.sampled_from(_SIGNATURES)), draw(st.sampled_from((3, 5))))
    tr = Translation.make(source, target, {s: draw(_image(target, r)) for s, r in source.symbols})
    k = draw(st.integers(1, 3))
    width = sum(k**rank for _, rank in target.symbols)
    model = FiniteModel._of_code(target, k, draw(st.integers(0, (1 << width) - 1)))
    return tr, draw(_formulas(source, 3, range(3))), model


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_reduction_cases())
def test_reduction_theorem_on_induced_structures(case):
    # M satisfies tr(phi) iff tr*(M) satisfies phi, under every assignment
    tr, phi, model = case
    induced = _induced_by_eval(tr, model)
    space = _space(model.lang.symbols, model.size)
    bits = [model.code >> j & 1 for j in range(space.width)]
    lanes = _induced(tr.source.symbols, dict(tr.basic), space, bits, 1, {})
    assert lanes == [induced.code >> j & 1 for j in range(len(lanes))]
    try:
        psi = apply_translation(tr, phi)
    except VariableBudgetError:
        return
    pad = (0,) * (model.lang.var_bound - 3)
    for a in itertools.product(range(model.size), repeat=3):
        assert eval_formula(induced, a, phi) == eval_formula(model, a + pad, psi)
