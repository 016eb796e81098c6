from __future__ import annotations

import itertools

import pytest

from thdist import relations
from thdist.concepts import CheckReport, check_defeq, check_interpretation
from thdist.errors import CapExceededError, RemovalError, UnsupportedFragmentError
from thdist.network import check_amalgamation, classify_ad
from thdist.relations import (
    AxiomAddAnswer,
    CertStatus,
    EdgeCertificate,
    axiom_add_exists,
    check_axiom_add,
    check_concept_add,
    collapse_concepts,
    concept_removals,
    theorem_removals,
    verify_certificate,
)
from thdist.semantics import (
    Theory,
    bounded_consequence,
    conservative_extension,
    feasible_bound,
    logically_equivalent,
    sat_assignments,
    sat_rows,
    spectrum,
    theory_from_sat,
)
from thdist.syntax import Language, big_and, parse_formula
from thdist.translation import Translation

PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)
BIN = Language.make("Bin", {"R": 2}, 3)

POSET_AXIOMS = [
    "(forall v0 (R v0 v0))",
    "(forall v0 (forall v1 (implies (and (R v0 v1) (R v1 v0)) (= v0 v1))))",
    "(forall v0 (forall v1 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
]
EQREL_AXIOMS = [
    "(forall v0 (R v0 v0))",
    "(forall v0 (forall v1 (implies (R v0 v1) (R v1 v0))))",
    "(forall v0 (forall v1 (forall v2 (implies (and (R v0 v1) (R v1 v2)) (R v0 v2)))))",
]


def _rows(theory):
    """Sat(theory) as a set of truth-table rows."""
    return frozenset(sat_rows(theory.lang, sat_assignments(theory)))


def _sat_theories():
    rows = list(itertools.product((False, True), repeat=2))
    out = {}
    for bits in range(16):
        sat = [rows[i] for i in range(4) if bits >> i & 1]
        out[bits] = theory_from_sat(f"S{bits:02d}", PQ, sat)
    return out


def test_check_axiom_add_sentential():
    empty = Theory.make("free", PQ, [])
    tp = Theory.make("p", PQ, ["P"])
    assert check_axiom_add(empty, tp, parse_formula("P", PQ)).state == "verified-exact"
    bot = Theory.make("bot", PQ, ["(and P (not P))"])
    contradiction = parse_formula("(and Q (not Q))", PQ)
    assert check_axiom_add(tp, bot, contradiction).state == "verified-exact"
    tq = Theory.make("q", PQ, ["Q"])
    status = check_axiom_add(tp, tq, parse_formula("Q", PQ))
    assert status.state == "refuted"


def test_axiom_add_exists_sentential():
    tp = Theory.make("p", PQ, ["P"])
    tor = Theory.make("or", PQ, ["(or P Q)"])
    res = axiom_add_exists(tp, tor)
    assert res.answer == "no"  # Sat(or) is no subset of Sat(p)
    res = axiom_add_exists(tor, tp)
    assert res.answer == "yes"
    extended = Theory("ext", PQ, (*tor.axioms, res.phi))
    assert logically_equivalent(extended, tp).equivalent


def test_axiom_add_exists_first_order():
    empty = Theory.make("free", BIN, [])
    posets = Theory.make("posets", BIN, POSET_AXIOMS)
    eqrels = Theory.make("eqrels", BIN, EQREL_AXIOMS)
    res = axiom_add_exists(empty, posets)
    assert res.answer == "yes" and res.phi is not None
    res = axiom_add_exists(posets, eqrels, 4)
    assert res.answer == "no" and res.countermodel.size == 2
    res = axiom_add_exists(eqrels, posets, 4)
    assert res.answer == "no" and res.countermodel.size == 2
    # bounded inclusion without a proof stays unknown
    total = Theory.make("serial", BIN, ["(forall v0 (exists v1 (R v0 v1)))"])
    refl = Theory.make("refl", BIN, ["(forall v0 (R v0 v0))"])
    res = axiom_add_exists(total, refl, 3)
    assert res.answer == "unknown" and res.phi is not None


def test_axiom_add_language_mismatch():
    tp = Theory.make("p", PQ, ["P"])
    other = Theory.make("x", Language.make("X", {"P": 0}, 0), [])
    assert axiom_add_exists(tp, other).answer == "no"


def test_facts_one_to_three_exhaustively_on_two_constants():
    theories = _sat_theories()
    sats = {b: _rows(t) for b, t in theories.items()}

    def arrow(a, b):
        return sats[b] <= sats[a]

    for a in theories:
        for b in theories:
            for c in theories:
                if arrow(a, b) and arrow(b, c):
                    assert arrow(a, c)  # (1) transitivity
                if sats[a] == sats[b] and arrow(b, c):
                    assert arrow(a, c)  # (2) equivalence on the left
                if arrow(a, b) and sats[b] == sats[c]:
                    assert arrow(a, c)  # (3) equivalence on the right


def test_concept_add_tstar_chain_and_refutation():
    l0 = Language.make("L0", {}, 0)
    l1 = Language.make("L1", {"C1": 0}, 0)
    t0 = Theory.make("t0", l0, [])
    t1 = Theory.make("t1", l1, [])
    status, symbol = check_concept_add(t0, t1)
    assert status.state == "verified-exact" and symbol == "C1"

    tp = Theory.make("free", Language.make("P1", {"P": 0}, 0), [])
    bad = Theory.make("bad", PQ, ["(not P)", "Q"])
    status, _ = check_concept_add(tp, bad)
    assert status.state == "refuted"


def test_concept_add_spectrum_growth_bound():
    base_lang = Language.make("K", {"IOb": 1, "W": 2}, 3)
    ext_lang = Language.make("KE", {"IOb": 1, "W": 2, "E": 1}, 3)
    base = Theory.make("base", base_lang, ["(exists v0 (IOb v0))"])
    ext = Theory.make("ext", ext_lang, [
        "(exists v0 (IOb v0))",
        "(exists v0 (and (IOb v0) (forall v1 (iff (E v1) (and (IOb v1) (W v0 v1))))))",
    ])
    status, symbol = check_concept_add(base, ext, 3)
    assert status.state == "verified-bounded"
    rank = ext_lang.rank(symbol)
    for k in (1, 2, 3):
        assert spectrum(ext, k) <= (1 << (k**rank)) * spectrum(base, k)


def test_concept_removals_theorem_case():
    t = theory_from_sat("t", PQ, [(True, True)])
    phi = parse_formula("P", PQ)
    removals = concept_removals(t, phi)
    sats = sorted(sorted(_rows(r.theory)) for r in removals)
    assert sats == [[(False, False)], [(False, True)]]
    for r in removals:
        assert r.added_assignment is not None
        # maximality: the removal keeps falsity of phi with one new row
        assert not _rows(r.theory) & _rows(t)


def test_concept_removals_nontheorem_case_matches_paper_example():
    lang4 = Language.make("F4", {"P1": 0, "P2": 0, "P3": 0, "P4": 0}, 0)
    t2 = Theory.make("four-free", lang4, [])
    phi = parse_formula("(or (not (iff P2 P3)) (not (iff P3 P4)))", lang4)
    removals = concept_removals(t2, phi)
    assert len(removals) == 1 and removals[0].added_assignment is None
    sat = _rows(removals[0].theory)
    assert len(sat) == 4  # all P2 = P3 = P4 rows
    assert all(row[1] == row[2] == row[3] for row in sat)


def test_concept_removal_errors():
    t = theory_from_sat("t", PQ, [(True, True)])
    taut = parse_formula("(or P (not P))", PQ)
    with pytest.raises(RemovalError):
        concept_removals(t, taut)
    fo = Theory.make("fo", BIN, [])
    with pytest.raises(UnsupportedFragmentError):
        concept_removals(fo, parse_formula("(R v0 v1)", BIN))


def test_theorem_removals():
    t = theory_from_sat("t", PQ, [(True, True)])
    phi = parse_formula("P", PQ)
    removals = theorem_removals(t, phi)
    sats = sorted(sorted(_rows(r.theory)) for r in removals)
    assert sats == [
        [(False, False), (True, True)],
        [(False, True), (True, True)],
    ]
    free = Theory.make("free", PQ, [])
    with pytest.raises(RemovalError):
        theorem_removals(free, phi)  # phi is not a theorem of the free theory


def test_theorem_removal_round_trip():
    # removing phi and re-adding it as an axiom lands back on T exactly
    t = theory_from_sat("t", PQ, [(True, True), (True, False)])
    phi = parse_formula("P", PQ)
    for removal in theorem_removals(t, phi):
        status = check_axiom_add(removal.theory, t, phi)
        assert status.state == "verified-exact"


def test_collapse_is_axiom_adding():
    free = Theory.make("free", PQ, [])
    collapsed = collapse_concepts(free, parse_formula("P", PQ), parse_formula("Q", PQ))
    expected = Theory.make("iff", PQ, ["(iff P Q)"])
    assert logically_equivalent(collapsed, expected).equivalent
    # collapsing phi with a theorem is the same as adding phi
    tp = Theory.make("p", PQ, ["P"])
    taut = parse_formula("(or P (not P))", PQ)
    collapsed = collapse_concepts(tp, parse_formula("Q", PQ), taut)
    added = Theory.make("pq", PQ, ["P", "Q"])
    assert logically_equivalent(collapsed, added).equivalent
    # phi = psi collapses to the theory itself
    same = collapse_concepts(tp, parse_formula("Q", PQ), parse_formula("Q", PQ))
    assert logically_equivalent(same, tp).equivalent


def test_collapse_symmetric_subclass_first_order():
    # toy version of collapsing a.b=c with b.a=c: collapsing R(v0,v1)
    # with R(v1,v0) over the empty theory shapes the symmetric subclass
    empty = Theory.make("free", BIN, [])
    collapsed = collapse_concepts(
        empty, parse_formula("(R v0 v1)", BIN), parse_formula("(R v1 v0)", BIN)
    )
    symmetric = Theory.make("sym", BIN, [
        "(forall v0 (forall v1 (implies (R v0 v1) (R v1 v0))))",
    ])
    assert logically_equivalent(collapsed, symmetric, 4).equivalent


def test_verify_certificate_dispatch():
    free = Theory.make("free", PQ, [])
    tp = Theory.make("p", PQ, ["P"])
    lookup = {"free": free, "p": tp}
    cert = EdgeCertificate("axiom-add", "free", "p", axiom=parse_formula("P", PQ))
    assert verify_certificate(cert, lookup).state == "verified-exact"
    bad = EdgeCertificate("axiom-add", "free", "p", axiom=parse_formula("Q", PQ))
    assert verify_certificate(bad, lookup).state == "refuted"
    equiv = EdgeCertificate("equiv", "free", "p")
    assert verify_certificate(equiv, lookup).state == "refuted"
    defeq = EdgeCertificate("defeq", "free", "p")
    assert verify_certificate(defeq, lookup).state == "refuted"  # |Sat| differs


def test_concept_removal_maximality_pairwise():
    # the chosen subtheories are exactly the minimal Sat-supersets of
    # Sat(T) that still falsify phi somewhere (maximal consequence sets)
    t = theory_from_sat("t", PQ, [(True, True)])
    phi = parse_formula("P", PQ)
    rows = list(itertools.product((False, True), repeat=2))
    sat = _rows(t)
    candidates = []
    for bits in range(16):
        superset = frozenset(rows[i] for i in range(4) if bits >> i & 1)
        if superset >= sat and any(not row[0] for row in superset):
            candidates.append(superset)
    minimal = [
        c for c in candidates if not any(o < c for o in candidates)
    ]
    chosen = sorted(
        sat | {r.added_assignment} for r in concept_removals(t, phi)
    )
    assert chosen == sorted(minimal)
    for removal in concept_removals(t, phi):
        removed_sat = _rows(removal.theory)
        assert removed_sat  # consistent
        assert all(not row[0] for row in removed_sat)  # proves not-phi


def test_cert_status_values_built_apart_are_equal():
    a = CertStatus("verified-bounded", 3, note="up to 3")
    b = CertStatus("verified-bounded", 3, None, "up to 3")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CertStatus("verified-bounded", 2, note="up to 3")
    assert CertStatus("declared") == CertStatus("declared", None, None, "")


# a ternary symbol needs 27 code bits at size 3, past the candidate cap
TERN = Language.make("Tern", {"T": 3}, 3)
DIAG = Theory.make("diag", TERN, ["(forall v0 (T v0 v0 v0))"])
DIAG_VIA_EQ = Theory.make(
    "diag-eq", TERN, ["(forall v0 (forall v1 (implies (= v0 v1) (T v0 v1 v1))))"])


@pytest.mark.parametrize("note, expected", [
    ("", "(cap stopped at 2)"),
    ("bounded", "bounded (cap stopped at 2)"),
])
def test_verify_certificate_runs_once_at_the_clamp_and_notes_it(monkeypatch, note, expected):
    # the verifier passes K on; the check clamps it (here a stub that
    # reports the bound 2 the caps allow for Tern), and a bound below K is
    # noted from the status alone
    bounds = []

    def check(tr, t1, t2, bound):
        bounds.append(bound)
        return CheckReport("faithful", False, min(bound, 2), note=note)

    monkeypatch.setattr(relations, "check_interpretation", check)
    lookup = {"diag": DIAG}
    cert = EdgeCertificate("faithful", "diag", "diag", tr=Translation.make(TERN, TERN, {}))
    assert verify_certificate(cert, lookup, 4) == CertStatus("verified-bounded", 2, None, expected)
    assert cert.status.note == expected
    # at a bound the caps allow there is nothing to note
    assert verify_certificate(cert, lookup, 2) == CertStatus("verified-bounded", 2, None, note)
    assert bounds == [4, 2]


def test_verify_certificate_clamps_real_checks_only():
    free = Theory.make("free", TERN, [])
    lookup = {"diag": DIAG, "diag-eq": DIAG_VIA_EQ, "free": free}
    equiv = EdgeCertificate("equiv", "diag", "diag-eq")
    assert verify_certificate(equiv, lookup, 4) == CertStatus(
        "verified-bounded", 2, note="(cap stopped at 2)")
    # a refutation below the clamp keeps its own bound and note
    wrong = EdgeCertificate("axiom-add", "free", "diag", axiom=parse_formula(
        "(forall v0 (forall v1 (forall v2 (T v0 v1 v2))))", TERN))
    status = verify_certificate(wrong, lookup, 4)
    assert status.state == "refuted" and status.bound is None
    assert status.note == "diag does not prove an axiom of free+axiom"
    # 22 unary symbols need 22 code bits at size 1: no size is feasible, so
    # the check is refused even though axiom-free theories need no model;
    # a certificate asserted without its payload still stays asserted
    wide = Language.make("Wide", {f"U{i}": 1 for i in range(22)}, 1)
    lookup = {"w": Theory.make("w", wide, [])}
    with pytest.raises(CapExceededError, match="verification infeasible even at size 1"):
        verify_certificate(EdgeCertificate("equiv", "w", "w"), lookup, 4)
    trusted = EdgeCertificate("faithful", "w", "w", status=CertStatus("asserted"))
    assert verify_certificate(trusted, lookup, 4) == CertStatus(
        "asserted", note="no translation supplied; taken on trust")
    # a bound below 1 is infeasible for every kind
    with pytest.raises(CapExceededError, match="verification infeasible even at size 1"):
        verify_certificate(trusted, lookup, 0)


def test_axiom_add_exists_stops_at_the_cap():
    # size 3 is past the cap, so a bound of 4 answers as a bound of 2 does
    expected = AxiomAddAnswer(
        "unknown", big_and(TERN, list(DIAG_VIA_EQ.axioms)), None, False, 2,
        "model inclusion holds up to the bound but is not proved",
    )
    assert axiom_add_exists(DIAG, DIAG_VIA_EQ, 4) == expected
    assert axiom_add_exists(DIAG, DIAG_VIA_EQ, 2) == expected


# DIAG with one more, unary, symbol: a conservative extension of DIAG
DIAG_U = Theory.make("diag-u", Language.make("TernU", {"T": 3, "U": 1}, 3),
                     ["(forall v0 (T v0 v0 v0))"])


def test_concept_add_past_the_caps_answers_at_the_clamp():
    # a library call clamps as the verifier does: the check's own bound
    assert check_concept_add(DIAG, DIAG_U, 3) == check_concept_add(DIAG, DIAG_U, 2) == (
        CertStatus("verified-bounded", 2), "U")


def _one_policy_checks(t1: Theory, t2: Theory, grown: Theory, phi: str) -> dict:
    """Each check at bound b, by name: t1 against t2 (one language), t1
    within grown (one symbol more), and phi as a consequence of t1."""
    lang = t1.lang
    same = Translation.make(lang, lang, {})
    formula = parse_formula(phi, lang)
    pair = {"a": t1, "b": t2}
    return {
        "bounded_consequence": lambda b: bounded_consequence(t1, formula, b),
        "logically_equivalent": lambda b: logically_equivalent(t1, t2, b),
        "conservative_extension": lambda b: conservative_extension(t1, grown, b),
        "check_interpretation": lambda b: check_interpretation(same, t1, t2, b),
        "check_defeq": lambda b: check_defeq(same, same, t1, t2, b),
        "check_axiom_add": lambda b: check_axiom_add(t1, t2, formula, b),
        "axiom_add_exists": lambda b: axiom_add_exists(t1, t2, b),
        "check_amalgamation": lambda b: check_amalgamation(pair, (), b),
        "classify_ad": lambda b: classify_ad(pair, "a", "b", (), b, amalgamation="asserted"),
    }


# "at least two elements" fails at size 1, below the clamp
_TERN_CHECKS = _one_policy_checks(
    DIAG, DIAG_VIA_EQ, DIAG_U, "(exists v0 (exists v1 (not (= v0 v1))))")


@pytest.mark.parametrize("name", list(_TERN_CHECKS))
def test_a_check_past_the_caps_answers_as_at_the_feasible_bound(name):
    # Tern fits the caps up to size 2: a bound of 4 or 5 is that bound,
    # field for field
    assert feasible_bound(5, (DIAG, DIAG_VIA_EQ, DIAG_U)) == 2
    check = _TERN_CHECKS[name]
    at_the_clamp = check(2)
    assert check(4) == at_the_clamp and check(5) == at_the_clamp


# 22 unary symbols need 22 code bits at size 1, past the candidate cap
WIDE = Language.make("Wide", {f"U{i}": 1 for i in range(22)}, 1)
WIDE_ALL = Theory.make("all-u0", WIDE, ["(forall v0 (U0 v0))"])
WIDE_FREE = Theory.make("free", WIDE, [])
WIDE_GROWN = Theory.make("all-u0-v", Language.make(
    "WideV", {**{f"U{i}": 1 for i in range(22)}, "V": 1}, 1), ["(forall v0 (U0 v0))"])


@pytest.mark.parametrize("name", list(_TERN_CHECKS))
def test_a_check_that_cannot_run_size_1_raises(name):
    check = _one_policy_checks(WIDE_ALL, WIDE_FREE, WIDE_GROWN, "(U1 v0)")[name]
    for bound in (1, 4):
        with pytest.raises(CapExceededError, match="^verification infeasible even at size 1$"):
            check(bound)
