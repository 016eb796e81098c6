"""One-step relations between theories and their verifiable certificates.

Each edge of a cluster network is backed by an EdgeCertificate: a typed
witness (axiom added, symbol added, removal data, translation pair, ...)
with a verification status. Sentential instances are decided exactly from
Sat-sets; first-order instances are verified up to a size bound, and
first-order removals are accepted only as asserted certificates.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .errors import (
    CapExceededError,
    InconsistencyError,
    LanguageError,
    RemovalError,
    UnsupportedFragmentError,
)
from .concepts import CheckReport, check_defeq, check_interpretation, sentential_defeq_witness
from .semantics import (
    DEFAULT_BOUND,
    ConservativityResult,
    EquivalenceResult,
    FiniteModel,
    Theory,
    _set_bits,
    assignment_model,
    conservative_extension,
    enumerate_models,  # unused here; perfbench's self-test asserts this binding
    feasible_bound,
    first_countermodel,
    logically_equivalent,
    sat_assignments,
    sat_of_formula,
    sat_rows,
    theory_from_sat,
)
from .syntax import (
    Formula,
    big_and,
    false_formula,
    iff,
    print_formula,
)
from .translation import Translation

CERT_KINDS = (
    "equiv",
    "defeq",
    "axiom-add",
    "concept-add",
    "concept-remove",
    "theorem-remove",
    "collapse",
    "faithful",
)

DECLARED = "declared"
ASSERTED = "asserted"
VERIFIED_EXACT = "verified-exact"
VERIFIED_BOUNDED = "verified-bounded"
REFUTED = "refuted"
UNDECIDED = "undecided"  # neither verified nor refuted; builds no edge


class CertStatus(NamedTuple):
    state: str
    bound: int | None = None
    witness: object = None
    note: str = ""

    @property
    def usable(self) -> bool:
        """May the network layer build an edge on this certificate?"""
        return self.state in (ASSERTED, VERIFIED_EXACT, VERIFIED_BOUNDED)

    @property
    def verified(self) -> bool:
        return self.state in (VERIFIED_EXACT, VERIFIED_BOUNDED)

    def to_json(self) -> dict:
        out: dict = {"state": self.state}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.note:
            out["note"] = self.note
        if isinstance(self.witness, Formula):
            out["witness"] = print_formula(self.witness)
        elif self.witness is not None:
            out["witness"] = str(self.witness)
        return out


class EdgeCertificate:
    __slots__ = ("kind", "source", "target", "name", "axiom", "symbol", "formula",
                 "extra_assignment", "phi", "psi", "tr12", "tr21", "tr", "bound_override",
                 "status")

    def __init__(
        self,
        kind: str,
        source: str,
        target: str,
        name: str = "",
        axiom: Formula | None = None,
        symbol: str | None = None,
        formula: Formula | None = None,
        extra_assignment: tuple[bool, ...] | None = None,
        phi: Formula | None = None,
        psi: Formula | None = None,
        tr12: Translation | None = None,
        tr21: Translation | None = None,
        tr: Translation | None = None,
        bound_override: int | None = None,
        status: CertStatus = CertStatus(DECLARED),
    ) -> None:
        self.kind, self.source, self.target, self.name = kind, source, target, name
        self.axiom, self.symbol, self.formula = axiom, symbol, formula
        self.extra_assignment, self.phi, self.psi = extra_assignment, phi, psi
        self.tr12, self.tr21, self.tr = tr12, tr21, tr
        self.bound_override, self.status = bound_override, status

    def label(self) -> str:
        return self.name or f"{self.kind}:{self.source}->{self.target}"


# ---------------------------------------------------------------------------
# Axiom adding (the <- relation) and collapsing

def check_axiom_add(
    t: Theory, t2: Theory, phi: Formula, bound: int = DEFAULT_BOUND
) -> CertStatus:
    """Does T + phi axiomatize t2? Exact on Sat-sets in the sentential case."""
    if not t.lang.same_formulas(t2.lang):
        raise LanguageError("axiom adding keeps the language fixed")
    if t.lang.is_sentential:
        expected = sat_assignments(t) & sat_of_formula(t.lang, phi)
        actual = sat_assignments(t2)
        if expected == actual:
            return CertStatus(VERIFIED_EXACT)
        row = next(sat_rows(t.lang, expected ^ actual))
        return CertStatus(
            REFUTED,
            witness=assignment_model(t.lang, row),
            note="Sat(T) ∩ Sat(phi) differs from Sat(T')",
        )
    extended = Theory(f"{t.name}+axiom", t.lang, (*t.axioms, phi))
    return _status_of_equivalence(logically_equivalent(extended, t2, bound))


def _status_of_equivalence(res: EquivalenceResult) -> CertStatus:
    if res.equivalent:  # an exact answer has no bound
        return CertStatus(VERIFIED_EXACT if res.exact else VERIFIED_BOUNDED, res.bound)
    return CertStatus(
        REFUTED,
        bound=None if res.exact else res.bound,
        witness=res.witness_model or res.witness_formula,
        note=res.reason,
    )


class AxiomAddAnswer(NamedTuple):
    answer: str  # yes | no | unknown
    phi: Formula | None = None
    countermodel: FiniteModel | None = None
    exact: bool = True
    bound: int | None = None
    note: str = ""


def axiom_add_exists(
    t: Theory, t2: Theory, bound: int = DEFAULT_BOUND
) -> AxiomAddAnswer:
    """Is there any phi with T + phi equivalent to t2 (T <- T')?

    The candidate is the conjunction of t2's axioms: T + it is equivalent
    to t2 exactly when every model of t2 is a model of T. Sentential: Sat
    inclusion decides. First-order: model inclusion refutable by
    countermodel up to the bound; provable only when t's axioms already sit
    inside t2's, otherwise unknown-bounded with the candidate.
    """
    if not t.lang.same_formulas(t2.lang):
        return AxiomAddAnswer("no", exact=True, note="language mismatch")
    candidate = big_and(t.lang, list(t2.axioms))
    if t.lang.is_sentential:
        s1, s2 = sat_assignments(t), sat_assignments(t2)
        if not s2 & ~s1:
            return AxiomAddAnswer("yes", candidate)
        row = next(sat_rows(t.lang, s2 & ~s1))
        return AxiomAddAnswer(
            "no", countermodel=assignment_model(t.lang, row),
            note="a model of T' is no model of T",
        )
    if set(t.axioms) <= set(t2.axioms):
        return AxiomAddAnswer("yes", candidate, note="axioms of T are axioms of T'")
    top = feasible_bound(bound, (t2,))  # only t2's models are enumerated
    for k in range(1, top + 1):
        m = first_countermodel(t2, k, t.axioms)
        if m is not None:
            return AxiomAddAnswer(
                "no", countermodel=m,
                note=f"size-{k} model of {t2.name} violates {t.name}",
            )
    if top < bound:
        return AxiomAddAnswer(
            "unknown", candidate, exact=False, bound=top,
            note=f"cap reached before size {top + 1}",
        )
    return AxiomAddAnswer(
        "unknown", candidate, exact=False, bound=bound,
        note="model inclusion holds up to the bound but is not proved",
    )


def collapse_concepts(t: Theory, phi: Formula, psi: Formula) -> Theory:
    """Identify two concepts: T + (phi <-> psi). A special case of axiom
    adding, and conversely adding phi collapses phi with any theorem."""
    return Theory(f"{t.name}|collapse", t.lang, (*t.axioms, iff(phi, psi)))


# ---------------------------------------------------------------------------
# One-concept extension (the ~> relation)

def _language_diff(t: Theory, t2: Theory) -> str:
    small = dict(t.lang.symbols)
    big = dict(t2.lang.symbols)
    extra = [s for s in big if s not in small]
    if (
        len(extra) != 1
        or any(big.get(s) != r for s, r in small.items())
        or t.lang.var_bound != t2.lang.var_bound
    ):
        raise LanguageError(
            f"one-concept extension needs L' = L plus one symbol "
            f"({t.lang.name} vs {t2.lang.name})"
        )
    return extra[0]


def check_concept_add(
    t: Theory, t2: Theory, bound: int = DEFAULT_BOUND
) -> tuple[CertStatus, str]:
    """T ~> T': languages differ by one symbol and T' is conservative
    over T. Returns the status and the added symbol."""
    symbol = _language_diff(t, t2)
    res = conservative_extension(t, t2, bound)
    return _status_of_conservativity(res), symbol


def _status_of_conservativity(res: ConservativityResult) -> CertStatus:
    if res.holds:  # an exact answer has no bound
        return CertStatus(VERIFIED_EXACT if res.exact else VERIFIED_BOUNDED, res.bound)
    if res.holds is None:
        return CertStatus(UNDECIDED, res.bound, res.witness_model, res.detail)
    return CertStatus(
        REFUTED,
        bound=None if res.exact else res.bound,
        witness=res.witness_formula or res.witness_model,
        note=res.detail or "conservativity fails",
    )


# ---------------------------------------------------------------------------
# Concept removal and theorem removal (sentential exact mode only)

class Removal(NamedTuple):
    theory: Theory
    added_assignment: tuple[bool, ...] | None


def _removal_sats(
    kind: str, t: Theory, phi: Formula
) -> list[tuple[int, tuple[bool, ...] | None]]:
    """(Sat mask, added row) of each removal of phi from T, kind being
    concept-remove or theorem-remove."""
    what = kind.split("-")[0]
    if not t.lang.is_sentential:
        raise UnsupportedFragmentError(
            f"first-order {what} removal is not computed; assert the certificate"
        )
    sat = sat_assignments(t)
    if not sat:
        raise InconsistencyError(f"{t.name} is inconsistent")
    falsifiers = ((1 << (1 << len(t.lang.constants))) - 1) ^ sat_of_formula(t.lang, phi)
    if not falsifiers:
        raise RemovalError("phi is a tautology; no consistent subtheory loses it")
    overlap = sat & falsifiers
    if overlap and what == "concept":
        return [(overlap, None)]
    if overlap:
        raise RemovalError(f"{t.name} does not prove the formula")
    keep = sat if what == "theorem" else 0  # a concept removal pins Sat to the row
    rows = sat_rows(t.lang, falsifiers)
    return [(keep | 1 << r, m) for r, m in zip(_set_bits(falsifiers), rows)]


def _as_removals(t: Theory, stem: str, sats) -> list[Removal]:
    return [
        Removal(theory_from_sat(stem if m is None else f"{stem}-{i}", t.lang,
                                sat_rows(t.lang, mask)), m)
        for i, (mask, m) in enumerate(sats)
    ]


def concept_removals(t: Theory, phi: Formula) -> list[Removal]:
    """All concept-removals of phi from T per the maximal-subtheory reading.

    If T proves phi, the maximal consistent subtheories of Cn(T) not
    proving phi add exactly one falsifying assignment m, and the removal
    pins Sat = {m}. If T does not prove phi, Cn(T) itself is the unique
    maximal subtheory and the single removal has Sat(T) ∩ Sat(¬phi).
    Tautologies admit no removal.
    """
    return _as_removals(t, f"{t.name}-minus", _removal_sats("concept-remove", t, phi))


def theorem_removals(t: Theory, phi: Formula) -> list[Removal]:
    """Maximal consistent subtheories of Cn(T) that do not prove phi:
    one per falsifying assignment m, with Sat = Sat(T) ∪ {m}."""
    return _as_removals(t, f"{t.name}-unprove", _removal_sats("theorem-remove", t, phi))


# ---------------------------------------------------------------------------
# Certificate verification

def _trivial_translations(t1: Theory, t2: Theory) -> tuple[Translation, Translation]:
    """Translation pair between inconsistent theories: images are all falsum."""
    tr12 = Translation.make(
        t1.lang, t2.lang,
        {s: false_formula(t2.lang) for s, _ in t1.lang.symbols},
    )
    tr21 = Translation.make(
        t2.lang, t1.lang,
        {s: false_formula(t1.lang) for s, _ in t2.lang.symbols},
    )
    return tr12, tr21


def _status_of_report(rep: CheckReport, verdict: str) -> CertStatus:
    if rep.verdict == verdict:
        state = VERIFIED_EXACT if rep.exact else VERIFIED_BOUNDED
        return CertStatus(state, rep.bound, note=rep.note)
    return CertStatus(
        UNDECIDED if rep.verdict == "undecided" else REFUTED, rep.bound,
        witness=rep.witness_model or rep.witness_formula,
        note=rep.note or f"verdict {rep.verdict}",
    )


def _on_trust(cert: EdgeCertificate, note: str, error: Exception) -> CertStatus:
    """An asserted certificate without its payload is taken on trust; a
    declared one cannot be checked."""
    if cert.status.state != ASSERTED:
        raise error
    return CertStatus(ASSERTED, note=note)


def _concept_step(cert: EdgeCertificate, t1: Theory, t2: Theory, b: int) -> CertStatus:
    status, symbol = check_concept_add(t1, t2, b)
    if cert.symbol is not None and cert.symbol != symbol:
        return CertStatus(REFUTED, note=f"added symbol is {symbol}, not {cert.symbol}")
    cert.symbol = symbol
    return status


def _check_at(
    cert: EdgeCertificate, t1: Theory, t2: Theory
) -> CertStatus | Callable[[int], CertStatus]:
    """The status of cert where it needs no size bound (trust, a missing
    payload, the defeq witness, removals), else its check at a bound b.
    Language errors are raised here, before any bound is decided."""
    kind, label = cert.kind, cert.label()
    sentential = t1.lang.is_sentential and t2.lang.is_sentential
    if kind == "equiv":
        return lambda b: _status_of_equivalence(logically_equivalent(t1, t2, b))
    if kind == "axiom-add" and cert.axiom is None:
        raise LanguageError(f"{label}: axiom-add needs :axiom")
    if kind == "collapse" and (cert.phi is None or cert.psi is None):
        raise LanguageError(f"{label}: collapse needs :phi and :psi")
    if kind in ("axiom-add", "collapse"):
        axiom = cert.axiom if kind == "axiom-add" else iff(cert.phi, cert.psi)
        return lambda b: check_axiom_add(t1, t2, axiom, b)
    if kind == "concept-add":
        _language_diff(t1, t2)
        return lambda b: _concept_step(cert, t1, t2, b)
    if kind == "defeq":
        if cert.tr12 is None or cert.tr21 is None:
            if cert.status.state == ASSERTED or not sentential:
                return _on_trust(cert, "no translations supplied; taken on trust",
                                 UnsupportedFragmentError(
                                     f"{label}: first-order defeq needs translations"))
            if not sat_assignments(t1) and not sat_assignments(t2):
                pair = _trivial_translations(t1, t2)
            else:
                pair = sentential_defeq_witness(t1, t2)
            if pair is None:
                return CertStatus(REFUTED, note="no witness exists (Sat-set sizes "
                                  "differ or one language has no formulas)")
            cert.tr12, cert.tr21 = pair
        return lambda b: _status_of_report(
            check_defeq(cert.tr12, cert.tr21, t1, t2, b), "defeq")
    if kind == "faithful":
        if cert.tr is None:
            return _on_trust(cert, "no translation supplied; taken on trust",
                             LanguageError(f"{label}: faithful needs :tr"))
        return lambda b: _status_of_report(
            check_interpretation(cert.tr, t1, t2, b), "faithful")
    if kind not in ("concept-remove", "theorem-remove"):
        raise LanguageError(f"unknown certificate kind {kind!r}")
    if not sentential:
        return _on_trust(cert, "first-order removal taken on trust", UnsupportedFragmentError(
            f"{label}: first-order removals are only accepted asserted"))
    if cert.formula is None:
        return _on_trust(cert, "no removal data; taken on trust",
                         LanguageError(f"{label}: removal needs :formula"))
    if not t1.lang.same_formulas(t2.lang):
        raise LanguageError(f"{label}: removal keeps the language fixed")
    masks = [mask for mask, m in _removal_sats(kind, t1, cert.formula)
             if cert.extra_assignment in (None, m)]
    if sat_assignments(t2) in masks:
        return CertStatus(VERIFIED_EXACT)
    return CertStatus(REFUTED, note=f"{t2.name} matches none of the {len(masks)} removals")


def _verify_between(cert: EdgeCertificate, t1: Theory, t2: Theory, bound: int) -> CertStatus:
    """Verify cert from t1 to t2 and record the status on the certificate.
    A check runs once, at the largest bound up to K whose enumerations
    stay inside the caps; a bounded success below K notes where it stopped."""
    k = bound if cert.bound_override is None else cert.bound_override
    try:
        check = _check_at(cert, t1, t2)
        b = k if isinstance(check, CertStatus) else feasible_bound(k, (t1, t2))
        if b < 1:
            raise CapExceededError("verification infeasible even at size 1")
        status = check if isinstance(check, CertStatus) else check(b)
        if b < k and status.state == VERIFIED_BOUNDED:
            status = status._replace(note=f"{status.note} (cap stopped at {b})".strip())
    except (InconsistencyError, RemovalError) as exc:
        status = CertStatus(REFUTED, note=str(exc))
    cert.status = status
    return status


def verify_certificate(
    cert: EdgeCertificate,
    lookup: Mapping[str, Theory],
    bound: int = DEFAULT_BOUND,
    _caps: object = None,
) -> CertStatus:
    """Verify one certificate to its strongest achievable status and
    record the result on the certificate. The fourth parameter is ignored:
    `perfbench/worker.py` still passes `Policy.caps()` there."""
    return _verify_between(cert, lookup[cert.source], lookup[cert.target], bound)
