from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from thdist.errors import LanguageError, VariableBudgetError
from thdist.semantics import FiniteModel, eval_formula
from thdist.syntax import (
    Language,
    and_,
    atom,
    eq,
    exists,
    not_,
    parse_formula,
)
from thdist.translation import (
    Translation,
    apply_translation,
    identity_translation,
    make_pairing,
)

RS = Language.make("RS", {"R": 1, "S": 1}, 6)
PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)
QL = Language.make("QL", {"Q": 0}, 0)


def test_translation_must_be_total():
    with pytest.raises(LanguageError):
        Translation.make(PQ, QL, {})  # P has no image and QL lacks it
    # Q defaults to itself (same symbol, same rank, in the target)
    tr = Translation.make(PQ, QL, {"P": not_(atom("Q"))})
    assert tr.image("P") is not_(atom("Q"))
    assert tr.image("Q") is atom("Q")


def test_an_image_free_past_the_source_variables_is_refused():
    # no formula over v0, v1 can say that P's image ignores v2
    lp, lr = Language.make("LP", {"P": 1}, 2), Language.make("LR", {"R": 2}, 3)
    with pytest.raises(LanguageError, match="image of P is free in v2"):
        Translation.make(lp, lr, {"P": atom("R", (0, 2))})
    Translation.make(lp, lr, {"P": atom("R", (0, 1))})
    Translation.make(lp, lr, {"P": exists(2, atom("R", (0, 2)))})


def test_sentential_homomorphism_example():
    tr = Translation.make(PQ, QL, {"P": not_(atom("Q")), "Q": atom("Q")})
    f = and_(atom("P"), atom("P"))
    assert apply_translation(tr, f) is and_(not_(atom("Q")), not_(atom("Q")))


def test_identity_translation_preserves_meaning():
    tr = identity_translation(RS, RS)
    phi = parse_formula("(exists v0 (and (R v0) (not (S v0))))", RS)
    assert apply_translation(tr, phi) is phi


def _models_rs(max_size=3):
    for k in range(1, max_size + 1):
        for r_bits in range(1 << k):
            for s_bits in range(1 << k):
                yield FiniteModel(
                    RS,
                    k,
                    {
                        "R": {(i,) for i in range(k) if r_bits >> i & 1},
                        "S": {(i,) for i in range(k) if s_bits >> i & 1},
                    },
                )


def test_substitution_chain_matches_direct_substitution():
    # non-canonical atom through the pairing translation, checked against
    # pointwise substitution on every model of size <= 3
    pairing = make_pairing(RS, "R", "S", "B")
    chained = apply_translation(pairing.tr_from_b, atom("B", (1, 0, 2)))
    n = RS.var_bound
    for model in _models_rs():
        k = model.size
        for tau in itertools.product(range(k), repeat=n):
            swapped = (tau[1], tau[0], tau[2]) + tau[3:]
            assert eval_formula(model, tau, chained) == eval_formula(
                model, swapped, pairing.psi
            )


def test_substitution_chain_repeated_variables():
    pairing = make_pairing(RS, "R", "S", "B")
    chained = apply_translation(pairing.tr_from_b, atom("B", (2, 2, 0)))
    for model in _models_rs(2):
        k = model.size
        for tau in itertools.product(range(k), repeat=RS.var_bound):
            direct = (tau[2], tau[2], tau[0]) + tau[3:]
            assert eval_formula(model, tau, chained) == eval_formula(
                model, direct, pairing.psi
            )


def test_variable_budget_error():
    tight = Language.make("tight", {"R": 1, "S": 1}, 3)
    pairing = make_pairing(tight, "R", "S", "B")
    with pytest.raises(VariableBudgetError):
        apply_translation(pairing.tr_from_b, atom("B", (1, 0, 2)))


def test_pairing_shape():
    pairing = make_pairing(RS, "R", "S", "B")
    assert pairing.b_language.rank("B") == 3  # l = max(1,1) + 2
    assert not pairing.b_language.has("R") and not pairing.b_language.has("S")
    with pytest.raises(VariableBudgetError):
        make_pairing(Language.make("small", {"R": 1, "S": 1}, 2), "R", "S", "B")
    with pytest.raises(LanguageError):
        make_pairing(RS, "R", "R", "B")


_vars = st.integers(0, RS.var_bound - 1)
# atom arguments stay low so substitution chains fit inside the bound
_low_vars = st.integers(0, 3)
_base = st.one_of(
    st.builds(eq, _vars, _vars),
    st.builds(lambda v: atom("R", (v,)), _low_vars),
    st.builds(lambda v: atom("S", (v,)), _low_vars),
)
_formulas = st.recursive(
    _base,
    lambda children: st.one_of(
        st.builds(and_, children, children),
        st.builds(not_, children),
        st.builds(exists, _vars, children),
    ),
    max_leaves=10,
)


@given(_formulas, _formulas)
def test_application_distributes_over_connectives(f, g):
    tr = make_pairing(RS, "R", "S", "B").tr_to_b
    assert apply_translation(tr, and_(f, g)) is and_(
        apply_translation(tr, f), apply_translation(tr, g)
    )
    assert apply_translation(tr, not_(f)) is not_(apply_translation(tr, f))
    assert apply_translation(tr, exists(2, f)) is exists(2, apply_translation(tr, f))
    assert apply_translation(tr, eq(0, 1)) is eq(0, 1)
