"""Integration test: pairing two unary relations into one ternary one is a
definitional equivalence once size-1 models are excluded.

The combined-relation theory is axiomatized by fiber uniformity: for each
point, the diagonal slice is constant and the off-diagonal slice is
constant. Over universes of size >= 2 these models correspond exactly to
interpretations of the two original relations.
"""

from __future__ import annotations

import itertools

import thdist.concepts as concepts
from thdist.concepts import check_defeq, check_interpretation
from thdist.semantics import FiniteModel, Theory, eval_formula, spectrum
from thdist.syntax import Language, atom, forall, iff
from thdist.translation import apply_translation, make_pairing

RS6 = Language.make("RS6", {"R": 1, "S": 1}, 6)
PAIRING = make_pairing(RS6, "R", "S", "B")

NO_SINGLETON = "(not (exists v0 (forall v1 (= v0 v1))))"
AX_DIAG = (
    "(forall v0 (or (forall v1 (B v0 v1 v1)) (forall v1 (not (B v0 v1 v1)))))"
)
AX_OFF = (
    "(forall v0 (or"
    " (forall v1 (forall v2 (implies (not (= v1 v2)) (B v0 v1 v2))))"
    " (forall v1 (forall v2 (implies (not (= v1 v2)) (not (B v0 v1 v2)))))))"
)

T_RS = Theory.make("rs-no-singletons", RS6, [NO_SINGLETON])
T_B = Theory.make("b-no-singletons", PAIRING.b_language, [NO_SINGLETON, AX_DIAG, AX_OFF])


def test_spectra_correspond():
    # one B-model per (R, S) pair on each universe of size >= 2
    assert spectrum(T_RS, 1) == 0 and spectrum(T_B, 1) == 0
    assert spectrum(T_RS, 2) == spectrum(T_B, 2) > 0


def test_pairing_defeq_bounded():
    report = check_defeq(PAIRING.tr_from_b, PAIRING.tr_to_b, T_B, T_RS, bound=2)
    assert report.verdict == "defeq" and not report.exact


def test_pairing_faithful_bounded_each_way():
    fwd = check_interpretation(PAIRING.tr_to_b, T_RS, T_B, bound=2)
    bwd = check_interpretation(PAIRING.tr_from_b, T_B, T_RS, bound=2)
    assert fwd.verdict == "faithful" and not fwd.exact
    assert bwd.verdict == "faithful" and not bwd.exact


def test_size_one_failure_is_reported_not_masked():
    # with a singleton model allowed the S-recovery round trip fails
    free_rs = Theory.make("rs-free", RS6, [])
    free_b = Theory.make(
        "b-free", PAIRING.b_language, [AX_DIAG, AX_OFF]
    )
    report = check_defeq(PAIRING.tr_from_b, PAIRING.tr_to_b, free_b, free_rs, bound=2)
    assert report.verdict == "refuted"
    assert report.witness_model is not None and report.witness_model.size == 1


def _translations_made(monkeypatch) -> list:
    made = []

    def spy(tr, phi):
        made.append(phi)
        return apply_translation(tr, phi)

    monkeypatch.setattr(concepts, "apply_translation", spy)
    return made


def test_pairing_checks_over_t_b_take_the_induced_path(monkeypatch):
    # fiber uniformity makes both recovery images cylinders along v1, so
    # no formula is translated
    made = _translations_made(monkeypatch)
    assert check_defeq(PAIRING.tr_from_b, PAIRING.tr_to_b, T_B, T_RS, bound=2).verdict == "defeq"
    assert check_interpretation(PAIRING.tr_to_b, T_RS, T_B, bound=2).verdict == "faithful"
    assert made == []


def _no_relation(sym: str):
    """phi_sym,1, the valid formula whose translation fails where the
    recovery image of sym varies along v1."""
    own = atom(sym, (0,))
    return iff(forall(1, own), own)


def test_pairing_recovery_over_free_b_structures_is_refuted(monkeypatch):
    # without its axioms a B-structure's diagonal slice varies along v1, so
    # the recovery image of R defines no relation in B = {(0, 0, 0)}
    made = _translations_made(monkeypatch)
    any_b = Theory.make("b-any", PAIRING.b_language, [])
    free_rs = Theory.make("rs-free", RS6, [])
    rep = check_interpretation(PAIRING.tr_to_b, free_rs, any_b, bound=2)
    first = FiniteModel(PAIRING.b_language, 2, {"B": {(0, 0, 0)}})
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 2)
    assert (rep.witness_formula, rep.witness_model) == (_no_relation("R"), first)
    assert rep.note == "theoremhood not preserved: the image of R varies along v1"
    assert made == [_no_relation("R")]  # only to re-check the witness
    every = list(itertools.product(range(2), repeat=6))
    assert not all(eval_formula(first, a, apply_translation(PAIRING.tr_to_b, _no_relation("R")))
                   for a in every)
    # tr_from_b is an interpretation of b-any in rs-free, tr_to_b is not
    report = check_defeq(PAIRING.tr_from_b, PAIRING.tr_to_b, any_b, free_rs, bound=2)
    assert (report.verdict, report.witness_model) == ("refuted", first)
    assert report.note.startswith("tr21 is not an interpretation")


def test_a_recovery_image_that_defines_no_relation_refutes_before_the_axioms():
    # the size-1 B-structure with an empty diagonal slice breaks the axiom's
    # translation, but the size-2 one where R's image varies refutes first
    all_r = Theory.make("all-r", RS6, ["(forall v0 (R v0))"])
    any_b = Theory.make("b-any", PAIRING.b_language, [])
    rep = check_interpretation(PAIRING.tr_to_b, all_r, any_b, bound=2)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 2)
    assert rep.witness_formula == _no_relation("R") and rep.witness_model.size == 2


def test_pairing_recovery_with_a_full_diagonal_slice_is_refuted():
    # a full diagonal slice makes R's image true everywhere, but S's image
    # varies along v1, so the check refutes instead of reporting a theorem
    # that is not reflected
    free_rs = Theory.make("rs-free", RS6, [])
    diag = Theory.make("b-diag", PAIRING.b_language, ["(forall v0 (forall v1 (B v0 v1 v1)))"])
    rep = check_interpretation(PAIRING.tr_to_b, free_rs, diag, bound=2)
    assert (rep.verdict, rep.exact, rep.bound) == ("refuted", True, 2)
    assert rep.witness_formula == _no_relation("S")
    assert rep.note == "theoremhood not preserved: the image of S varies along v1"
