"""Concept machinery: conceptual size, definable-relation closures,
interpretation and definitional-equivalence checking.

Concepts of a theory are formula classes modulo provable biconditional.
Over a single finite model they materialize as assignment sets (subsets of
M^n), which is what the closure computes; formula representatives are
recovered from generation traces on demand. A closure has 2^types
elements, one atom per L^n-type of its (model, assignment) pairs.
Sentential conceptual size is exact (2^|Sat|); multi-model first-order
sizes are only ever reported as lower bounds, 2^types over the models up to
a size bound.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .errors import (
    CapExceededError,
    InconsistencyError,
    LanguageError,
    UnsupportedFragmentError,
    VariableBudgetError,
)
from .semantics import (
    DEFAULT_BOUND,
    MAX_SIZE,
    FiniteModel,
    Theory,
    _Tables,
    _fibres,
    _holds,
    _induced,
    _lane_codes,
    _least_codes_of,
    _sat_pullback,
    _set_bits,
    _space,
    assignment_model,
    assignment_set,
    bounded_consequence,
    enumerate_models,
    eval_formula,
    model_lanes,
    sat_assignments,
    sat_rows,
)
from .syntax import (
    Formula,
    Language,
    and_,
    atom,
    characteristic_formula,
    dnf_of_assignments,
    eq,
    exists,
    make_psi_n,
    not_,
    print_formula,
    subformulas,
)
from .translation import Translation, apply_translation


# ---------------------------------------------------------------------------
# Conceptual size

class CzValue(NamedTuple):
    value: int
    method: str  # sentential-exact | closure-exact | enumeration-lower-bound
    lower_bound: bool = False
    detail: str = ""


def cz_sentential(theory: Theory) -> CzValue:
    """Exact conceptual size of a sentential theory: 2^|Sat(T)|.

    Concepts correspond to the definable subsets of the satisfying
    assignments, and over finitely many constants every subset is definable.
    The inconsistent theory has the single concept.
    """
    if not theory.lang.is_sentential:
        raise UnsupportedFragmentError("cz_sentential needs a sentential theory")
    return CzValue(1 << sat_assignments(theory).bit_count(), "sentential-exact")


# ---------------------------------------------------------------------------
# Definable-relation closures

Trace = tuple

# The most relations concept_closure builds, and the most (model,
# assignment) pairs _types refines. Each new relation is met with every
# known one, so the closure's work grows with the square of the count.
CLOSURE_CAP = 4096


def _generators(lang: Language) -> list[tuple[Trace, Formula]]:
    """The diagonals and atoms over the language's variables, with their traces."""
    n = lang.var_bound
    return [(("diag", i, j), eq(i, j)) for i in range(n) for j in range(n)] + [
        (("atom", sym, args), atom(sym, args))
        for sym, rank in lang.symbols
        for args in itertools.product(range(n), repeat=rank)
    ]


def _types(models: Sequence[FiniteModel]) -> int:
    """The number of L^n-types that the (model, assignment) pairs of a
    non-empty list of models of one language realise, n the variable
    bound. They are the atoms of the closure of the models' diagonals and
    atom meanings, which therefore has 2^types elements.

    Pairs start in classes by the generators they satisfy. A round splits
    each class by membership in the cylinder of every class along every
    coordinate i: by the classes met in a pair's i-fibre, the pairs of its
    model that differ from it at most at i. Rounds stop when no class
    splits (counting-free Weisfeiler-Leman refinement). More than
    CLOSURE_CAP pairs raise CapExceededError."""
    n = models[0].lang.var_bound
    pairs = sum(m.size**n for m in models)
    if pairs > CLOSURE_CAP:
        raise CapExceededError(f"{pairs} (model, assignment) pairs exceed cap {CLOSURE_CAP}")
    formulas = [phi for _, phi in _generators(models[0].lang)]
    classes: dict = {}
    colour = []
    for m in models:
        masks = [assignment_set(m, phi) for phi in formulas]
        for a in range(m.size**n):
            colour.append(classes.setdefault(tuple(x >> a & 1 for x in masks), len(classes)))
    while True:
        # colour sets and signatures are numbered as they come, so that no
        # pair keeps an object of its own
        count, classes, sets, along = len(classes), {}, {}, []
        for i in range(n):
            met, off = [0] * len(colour), 0  # per pair: its i-fibre's colour set
            for m in models:
                for fibre in zip(*_fibres(m.size, n, i)):
                    x = sets.setdefault(frozenset(colour[off + a] for a in fibre), len(sets))
                    for a in fibre:
                        met[off + a] = x
                off += m.size**n
            along.append(met)
        colour = [classes.setdefault(sig, len(classes)) for sig in zip(colour, *along)]
        if len(classes) == count:
            return count


def _fixpoint(model: FiniteModel) -> dict[int, Trace]:
    """Close the model's diagonals and atom meanings, each an assignment
    mask (`assignment_set`), under complement, intersection and
    per-coordinate cylindrification. Returns each relation with its first
    generator, in the order found."""
    k, n = model.size, model.lang.var_bound
    full = (1 << k**n) - 1
    # per coordinate i: the groups of assignments agreeing off i
    groups = [[sum(1 << a for a in g) for g in zip(*_fibres(k, n, i))] for i in range(n)]

    def cylindrify(x: int, i: int) -> int:
        out = 0
        for g in groups[i]:
            if g & x:
                out |= g
        return out

    traces: dict[int, Trace] = {}

    def add(mask: int, trace: Trace, frontier: list[int]) -> None:
        if mask not in traces:
            traces[mask] = trace
            frontier.append(mask)

    frontier: list[int] = []
    for trace, phi in _generators(model.lang):
        add(assignment_set(model, phi), trace, frontier)
    while frontier:
        fresh, frontier = frontier, []
        known = list(traces)
        for x in fresh:
            add(full ^ x, ("not", x), frontier)
            for i in range(n):
                add(cylindrify(x, i), ("exists", i, x), frontier)
            for y in known:
                add(x & y, ("and", x, y), frontier)
    return traces


class ConceptClosure:
    """Fixpoint of diagonals and atom meanings under complement,
    intersection and per-coordinate cylindrification."""

    __slots__ = ("model", "n_vars", "traces")

    def __init__(self, model: FiniteModel, n_vars: int, traces: dict[int, Trace]) -> None:
        self.model = model
        self.n_vars = n_vars
        self.traces = traces  # assignment-set bitmask -> first generator

    @property
    def relations(self) -> frozenset[int]:
        return frozenset(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def universe_bits(self) -> int:
        return self.model.size**self.n_vars


def concept_closure(model: FiniteModel) -> ConceptClosure:
    """Close the model's atom meanings and diagonals under the three
    generator operations, over the language's varBound variables. The
    closure has 2^types elements (`_types`); past CLOSURE_CAP it raises
    CapExceededError before building a single one."""
    if model.size > MAX_SIZE:
        raise CapExceededError(f"size {model.size} exceeds cap {MAX_SIZE}")
    types = _types([model])
    if 1 << types > CLOSURE_CAP:
        raise CapExceededError(f"closure has 2^{types} elements, past cap {CLOSURE_CAP}")
    return ConceptClosure(model, model.lang.var_bound, _fixpoint(model))


def closure_formula(closure: ConceptClosure, mask: int) -> Formula:
    """Recover a defining formula from the generation trace."""
    return _trace_formula(closure.traces, mask, {})


def _trace_formula(traces: dict[int, Trace], mask: int, memo: dict[int, Formula]) -> Formula:
    if mask not in memo:
        trace = traces[mask]
        op = trace[0]
        if op == "diag":
            out = eq(trace[1], trace[2])
        elif op == "atom":
            out = atom(trace[1], trace[2])
        elif op == "not":
            out = not_(_trace_formula(traces, trace[1], memo))
        elif op == "and":
            out = and_(
                _trace_formula(traces, trace[1], memo), _trace_formula(traces, trace[2], memo)
            )
        else:
            out = exists(trace[1], _trace_formula(traces, trace[2], memo))
        memo[mask] = out
    return memo[mask]


def closure_to_json(closure: ConceptClosure) -> dict:
    """Bitset dump in lexicographic assignment order, with traces."""
    width = closure.universe_bits
    bits = {m: format(m, f"0{width}b")[::-1] for m in closure.traces}
    order = sorted(closure.traces, key=bits.__getitem__)
    index = {m: i for i, m in enumerate(order)}

    def show(trace: Trace):
        op = trace[0]
        if op in ("diag", "atom"):
            return list(trace)
        if op == "not":
            return ["not", index[trace[1]]]
        if op == "and":
            return ["and", index[trace[1]], index[trace[2]]]
        return ["exists", trace[1], index[trace[2]]]

    return {
        "size": closure.model.size,
        "vars": closure.n_vars,
        "count": len(closure),
        "elements": [{"bits": bits[m], "trace": show(closure.traces[m])} for m in order],
    }


def cz_of_model(model: FiniteModel) -> CzValue:
    """Exact fragment-relative conceptual size of Th(model): 2^types."""
    return CzValue(1 << _types([model]), "closure-exact", detail=f"size-{model.size} model")


def cz_lower_bound(theory: Theory, bound: int = DEFAULT_BOUND) -> CzValue:
    """Enumeration lower bound on conceptual size for first-order theories:
    2^types over the models of size <= bound. Every element of their
    closure is the meaning of an L^n formula, and formulas whose meanings
    differ on some model are inequivalent."""
    models = [
        m for k in range(1, bound + 1) for m in enumerate_models(theory, k)
    ]
    if not models:
        return CzValue(1, "enumeration-lower-bound", True, detail=f"no models of size <= {bound}")
    return CzValue(
        1 << _types(models), "enumeration-lower-bound", True,
        detail=f"models up to size {bound}",
    )


# ---------------------------------------------------------------------------
# Interpretation and definitional equivalence checking

class CheckReport(NamedTuple):
    verdict: str  # faithful | interpretation | defeq | refuted | undecided
    exact: bool
    bound: int | None
    witness_formula: Formula | None = None
    witness_model: FiniteModel | None = None
    note: str = ""


def formula_battery(theory: Theory, bound: int) -> list[Formula]:
    """Axioms, their subformulas, all canonical atoms, and the size
    formulas psi(1..bound) the variable bound admits."""
    out: list[Formula] = []
    seen: set[int] = set()

    def push(f: Formula) -> None:
        if f.uid not in seen:
            seen.add(f.uid)
            out.append(f)

    for ax in theory.axioms:
        push(ax)
    for ax in theory.axioms:
        for sub in subformulas(ax):
            push(sub)
    for sym, rank in theory.lang.symbols:
        push(atom(sym, tuple(range(rank))))
    for size in range(1, bound + 1):
        if theory.lang.var_bound >= size + 1:
            push(make_psi_n(size, theory.lang))
    return out


def _sentential_pullback(tr: Translation, sat: int) -> dict[int, int]:
    """Each row of a target Sat mask to the source row it induces through tr."""
    return _sat_pullback(tr.target, [tr.image(c) for c in tr.source.constants], sat)


def _row(lang: Language, r: int) -> tuple[bool, ...]:
    return next(sat_rows(lang, 1 << r))


def _extension(model: FiniteModel, phi: Formula) -> list[bool]:
    """phi under every assignment, by `eval_formula`, to re-check a refutation."""
    n = model.lang.var_bound
    return [eval_formula(model, a, phi) for a in itertools.product(range(model.size), repeat=n)]


def check_interpretation(
    tr: Translation,
    t1: Theory,
    t2: Theory,
    bound: int = DEFAULT_BOUND,
) -> CheckReport:
    """Does tr map theorems of t1 to theorems of t2, and does it reflect
    them back? Sentential case exact; otherwise checked on the structures
    tr*(M) that tr's images define in the models M of t2 up to the bound
    (M satisfies tr(phi) iff tr*(M) satisfies phi), with witnesses from
    the battery."""
    if not (tr.source.same_formulas(t1.lang) and tr.target.same_formulas(t2.lang)):
        raise LanguageError("translation endpoints do not match the theories")
    if t1.lang.is_sentential and t2.lang.is_sentential:
        s1, s2 = sat_assignments(t1), sat_assignments(t2)
        # source row -> the last target row inducing it
        image = {a: b for b, a in _sentential_pullback(tr, s2).items()}
        hit = sum(1 << a for a in image)
        stray, missing = hit & ~s1, s1 & ~hit
        if stray:
            a = next(_set_bits(stray))
            return CheckReport(
                "refuted", True, None,
                not_(characteristic_formula(t1.lang, _row(t1.lang, a))),
                assignment_model(t2.lang, _row(t2.lang, image[a])),
                note=f"{t1.name} proves it, {t2.name} does not prove its translation",
            )
        if missing:
            a = _row(t1.lang, next(_set_bits(missing)))
            return CheckReport(
                "interpretation", True, None,
                not_(characteristic_formula(t1.lang, a)),
                assignment_model(t1.lang, a),
                note="translation holds but does not reflect this formula",
            )
        return CheckReport("faithful", True, None)
    return _first_order_interpretation(tr, t1, t2, bound, {}, True)


def _first_order_interpretation(
    tr: Translation, t1: Theory, t2: Theory, bound: int, free: dict, reflect: bool
) -> CheckReport:
    """Forward: every tr*(M) satisfies t1's axioms, so it satisfies every
    phi that t1 proves up to the bound; the first failing axiom refutes
    exactly. Reflect (skipped when not asked): every model of t1 is
    isomorphic to some tr*(M); otherwise the battery is searched for a
    formula whose translation t2 proves and t1 does not."""
    sizes = []
    for k in range(1, bound + 1):
        models, bits = model_lanes(t2, k)
        full = (1 << len(models)) - 1
        target = _space(tr.target.symbols, k)
        ind = _induced(tr.source.symbols, dict(tr.basic), target, bits, full, free)
        if isinstance(ind, str):
            return _battery_interpretation(tr, t1, t2, bound, ind)
        sizes.append((models, ind, _Tables(_space(t1.lang.symbols, k), ind, full, free)))
    for phi in t1.axioms:  # the head of the battery, each a theorem of t1
        for k, (models, ind, tab) in enumerate(sizes, 1):
            bad = tab.full ^ _holds(tab, (phi,))
            if bad:
                i = (bad & -bad).bit_length() - 1
                induced = FiniteModel._of_code(t1.lang, k, _lane_codes(ind, i + 1)[i])
                if all(_extension(induced, phi)):
                    raise AssertionError(f"{phi!r} holds in the induced structure")
                return CheckReport("refuted", True, bound, phi, models[i],
                                   note="theoremhood not preserved")
    if not reflect:
        return CheckReport("interpretation", False, bound)
    for k, (models, ind, _) in enumerate(sizes, 1):
        own = {m.code for m in enumerate_models(t1, k)}
        if not own <= _least_codes_of(_space(t1.lang.symbols, k), _lane_codes(ind, len(models)), own):
            break
    else:
        return CheckReport("faithful", False, bound)
    for phi in formula_battery(t1, bound):
        if all(_holds(tab, (phi,)) == tab.full for *_, tab in sizes):
            r1 = bounded_consequence(t1, phi, bound)
            if not r1.holds:
                return CheckReport(
                    "interpretation", False, bound, phi, r1.countermodel,
                    note="theoremhood preserved but not reflected on the battery",
                )
    return CheckReport("faithful", False, bound)


def _battery_interpretation(
    tr: Translation, t1: Theory, t2: Theory, bound: int, sym: str
) -> CheckReport:
    """check_interpretation formula by formula over the battery, for a
    translation whose image of `sym` defines no relation: each formula is
    translated and both sides checked. A formula whose translation runs
    out of variables leaves the check undecided unless another refutes."""
    forward_witness = reflect_witness = None
    untranslated = []
    for phi in formula_battery(t1, bound):
        try:
            psi = apply_translation(tr, phi)
        except VariableBudgetError:
            untranslated.append(phi)
            continue
        r1 = bounded_consequence(t1, phi, bound)
        r2 = bounded_consequence(t2, psi, bound)
        if r1.holds and not r2.holds and forward_witness is None:
            exact = phi in t1.axioms or r1.exact
            forward_witness = (phi, r2.countermodel, exact)
        if r2.holds and not r1.holds and reflect_witness is None:
            reflect_witness = (phi, r1.countermodel)
    if forward_witness is not None:
        phi, cm, exact = forward_witness
        # a non-axiom held in t1's models only up to the bound: t1 may
        # still fail to prove it, so the refutation is bounded
        return CheckReport(
            "refuted", exact, bound, phi, cm,
            note="theoremhood not preserved" if exact else
            f"theoremhood not preserved, bounded: {t1.name} proves the formula "
            f"only up to size {bound}",
        )
    if untranslated:
        return CheckReport(
            "undecided", False, bound, untranslated[0],
            note=f"{print_formula(untranslated[0])} has no translation within "
            f"{tr.target.var_bound} variables, and the image of {sym} varies along "
            "a variable past its rank",
        )
    if reflect_witness is not None:
        phi, cm = reflect_witness
        return CheckReport(
            "interpretation", False, bound, phi, cm,
            note="theoremhood preserved but not reflected on the battery",
        )
    return CheckReport("faithful", False, bound)


def _round_trip(
    theory: Theory, outer: Translation, inner: Translation, bound: int, free: dict
) -> CheckReport | None:
    """Does inner*(outer*(M)) = M for every model M of the theory up to
    the bound? Then the round trip of every formula holds, not only the
    battery's. Otherwise the first battery formula whose extensions
    differ refutes, at the least size where they do; an image that is no
    cylinder leaves the sizes from there undecided."""
    sizes, stopped = [], None  # per size where some M moves: k, models, lanes and tables
    for k in range(1, bound + 1):
        models, bits = model_lanes(theory, k)
        full = (1 << len(models)) - 1
        space = _space(theory.lang.symbols, k)
        there = _induced(outer.source.symbols, dict(outer.basic), space, bits, full, free)
        back = there if isinstance(there, str) else _induced(
            inner.source.symbols, dict(inner.basic), _space(inner.target.symbols, k),
            there, full, free)
        if isinstance(back, str):
            stopped = CheckReport(
                "undecided", False, k,
                note=f"round trip over {theory.name} undecided: the image of {back} "
                f"varies along a variable past its rank in a size-{k} model",
            )
            break
        if back != bits:
            sizes.append((k, models, back, [_Tables(space, x, full, free) for x in (bits, back)]))
    if not sizes:
        return stopped
    for phi in formula_battery(theory, bound):
        for k, models, back, (here, trip) in sizes:
            differ = 0
            for x, y in zip(here.table(phi), trip.table(phi)):
                differ |= x ^ y
            if differ:
                i = (differ & -differ).bit_length() - 1
                moved = FiniteModel._of_code(theory.lang, k, _lane_codes(back, i + 1)[i])
                if _extension(models[i], phi) == _extension(moved, phi):
                    raise AssertionError(f"{phi!r} survives the round trip")
                return CheckReport("refuted", True, k, phi, models[i],
                                   note=f"round trip fails over {theory.name}")
    raise AssertionError("the structures differ, yet no canonical atom does")


def check_defeq(
    tr12: Translation,
    tr21: Translation,
    t1: Theory,
    t2: Theory,
    bound: int = DEFAULT_BOUND,
) -> CheckReport:
    """Verify a definitional-equivalence witness pair: both directions are
    interpretations and both round trips are provable biconditionals.
    First-order round trips compare each model with its image through
    both translations' induced structures."""
    if not (tr12.source.same_formulas(t1.lang) and tr12.target.same_formulas(t2.lang)):
        raise LanguageError("tr12 endpoints do not match the theories")
    if not (tr21.source.same_formulas(t2.lang) and tr21.target.same_formulas(t1.lang)):
        raise LanguageError("tr21 endpoints do not match the theories")

    if t1.lang.is_sentential and t2.lang.is_sentential:
        s1, s2 = sat_assignments(t1), sat_assignments(t2)
        pull12, pull21 = _sentential_pullback(tr12, s2), _sentential_pullback(tr21, s1)
        sides = ((pull12, s1, t1.lang, t2.lang, "tr12"), (pull21, s2, t2.lang, t1.lang, "tr21"))
        for pull, sat, to_lang, from_lang, label in sides:
            for b, a in pull.items():
                if not sat >> a & 1:
                    return CheckReport(
                        "refuted", True, None,
                        not_(characteristic_formula(to_lang, _row(to_lang, a))),
                        assignment_model(from_lang, _row(from_lang, b)),
                        note=f"{label} is not an interpretation",
                    )
        trips = ((pull21, pull12, t1.lang, "tr21;tr12"), (pull12, pull21, t2.lang, "tr12;tr21"))
        for pull, back, lang, label in trips:
            for a, b in pull.items():
                if back[b] != a:
                    row = _row(lang, a)
                    return CheckReport(
                        "refuted", True, None,
                        characteristic_formula(lang, row), assignment_model(lang, row),
                        note=f"round trip through {label} moves this assignment",
                    )
        return CheckReport("defeq", True, None)

    free: dict = {}  # one free-variable memo for every table of the check
    undecided = None
    for theory, outer, inner in ((t1, tr21, tr12), (t2, tr12, tr21)):
        rep = _round_trip(theory, outer, inner, bound, free)
        if rep is not None and rep.verdict == "refuted":
            return rep
        undecided = undecided or rep
    for tr, a, b, label in ((tr12, t1, t2, "tr12"), (tr21, t2, t1, "tr21")):
        rep = _first_order_interpretation(tr, a, b, bound, free, False)
        if rep.verdict == "refuted":
            return rep._replace(note=f"{label} is not an interpretation: {rep.note}")
        if rep.verdict == "undecided" and undecided is None:
            undecided = rep._replace(note=f"{label}: {rep.note}")
    return undecided or CheckReport("defeq", False, bound)


def sentential_defeq_witness(t1: Theory, t2: Theory) -> tuple[Translation, Translation] | None:
    """Construct and verify a definitional-equivalence witness between
    consistent sentential theories of equal Sat-set size, if possible.

    Each constant maps to the disjunction of the characteristic
    conjunctions of the assignments where its image under the Sat-set
    bijection holds. Returns None when the sizes differ or one language
    has no formulas to translate into.
    """
    for t in (t1, t2):
        if not t.lang.is_sentential:
            raise UnsupportedFragmentError("witness construction is sentential-only")
    s1, s2 = sat_assignments(t1), sat_assignments(t2)
    if not s1 or not s2:
        raise InconsistencyError("witness construction needs consistent theories")
    if s1.bit_count() != s2.bit_count():
        return None
    c1, c2 = t1.lang.constants, t2.lang.constants
    if (c1 and not c2) or (c2 and not c1):
        return None  # one side has no formulas at all
    rows1, rows2 = list(sat_rows(t1.lang, s1)), list(sat_rows(t2.lang, s2))

    def along(source: Language, target: Language, src_rows, dst_rows) -> Translation:
        # the rows pair up in ascending order
        return Translation.make(source, target, {
            p: dnf_of_assignments(target, [b for a, b in zip(src_rows, dst_rows) if a[i]])
            for i, p in enumerate(source.constants)
        })

    tr12 = along(t1.lang, t2.lang, rows1, rows2)
    tr21 = along(t2.lang, t1.lang, rows2, rows1)
    report = check_defeq(tr12, tr21, t1, t2)
    if report.verdict != "defeq":
        raise AssertionError(f"constructed witness failed verification: {report}")
    return tr12, tr21
