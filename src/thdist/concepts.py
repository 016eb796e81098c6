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

from .errors import CapExceededError, InconsistencyError, LanguageError, UnsupportedFragmentError
from .semantics import (
    DEFAULT_BOUND,
    MAX_SIZE,
    FiniteModel,
    Theory,
    _Tables,
    _fibres,
    _holds,
    _induced,
    _lane_code,
    _reflect,
    _space,
    assignment_set,
    check_sizes,
    enumerate_models,
    eval_formula,
    first_countermodel,
    model_lanes,
    sat_assignments,
    sat_rows,
)
from .syntax import (
    Formula,
    Language,
    and_,
    atom,
    dnf_of_assignments,
    eq,
    exists,
    forall,
    free_variables,
    iff,
    not_,
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
# assignment) pairs or generators _types refines. Each new relation is met
# with every known one, so the closure's work grows with the square of the count.
CLOSURE_CAP = 4096


def _generators(lang: Language) -> list[Trace]:
    """The traces of the diagonals and atoms over the language's variables."""
    n = lang.var_bound
    return [("diag", i, j) for i in range(n) for j in range(n)] + [
        ("atom", sym, args)
        for sym, rank in lang.symbols
        for args in itertools.product(range(n), repeat=rank)
    ]


def _generator_formula(trace: Trace) -> Formula:
    return eq(*trace[1:]) if trace[0] == "diag" else atom(*trace[1:])


def _generator_masks(models: Sequence[FiniteModel]) -> list[list[int]]:
    """Per model of a non-empty list of models of one language, the
    assignment mask (`assignment_set`) of each generator, in the order of
    `_generators`. More than CLOSURE_CAP (model, assignment) pairs, or
    generators, raise CapExceededError before any is built."""
    n = models[0].lang.var_bound
    pairs = sum(m.size**n for m in models)
    if pairs > CLOSURE_CAP:
        raise CapExceededError(f"{pairs} (model, assignment) pairs exceed cap {CLOSURE_CAP}")
    count = n * n + sum(n**rank for _, rank in models[0].lang.symbols)
    if count > CLOSURE_CAP:
        raise CapExceededError(f"{count} generators exceed cap {CLOSURE_CAP}")
    formulas = [_generator_formula(t) for t in _generators(models[0].lang)]
    return [[assignment_set(m, phi) for phi in formulas] for m in models]


def _types(models: Sequence[FiniteModel], masks: Sequence[list[int]]) -> int:
    """The number of L^n-types that the (model, assignment) pairs of a
    non-empty list of models of one language realise, n the variable
    bound. They are the atoms of the closure of the models' diagonals and
    atom meanings, which therefore has 2^types elements. `masks` are the
    models' `_generator_masks`.

    Pairs start in classes by the generators they satisfy. A round splits
    each class by membership in the cylinder of every class along every
    coordinate i: by the classes met in a pair's i-fibre, the pairs of its
    model that differ from it at most at i. Rounds stop when no class
    splits (counting-free Weisfeiler-Leman refinement)."""
    n = models[0].lang.var_bound
    classes: dict = {}
    colour = []
    for m, model_masks in zip(models, masks):
        for a in range(m.size**n):
            colour.append(classes.setdefault(tuple(x >> a & 1 for x in model_masks), len(classes)))
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


def _fixpoint(model: FiniteModel, masks: list[int], size: int) -> dict[int, Trace]:
    """Close the model's diagonals and atom meanings, given as their
    assignment masks (`_generator_masks`), under complement, intersection
    and per-coordinate cylindrification. Returns each relation with its
    first generator, in the order found. Stops once it holds `size`
    relations (2^types), or else after a round that adds none."""
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
    for trace, mask in zip(_generators(model.lang), masks):
        add(mask, trace, frontier)
    while frontier:
        fresh, frontier = frontier, []
        known = list(traces)
        for x in fresh:
            add(full ^ x, ("not", x), frontier)
            for i in range(n):
                add(cylindrify(x, i), ("exists", i, x), frontier)
            # each new product is traced to its first factor in `known`
            products = list(map(x.__and__, known))
            for z in dict.fromkeys(itertools.filterfalse(traces.__contains__, products)):
                add(z, ("and", x, known[products.index(z)]), frontier)
            if len(traces) >= size:
                return traces
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
    masks = _generator_masks([model])
    types = _types([model], masks)
    if 1 << types > CLOSURE_CAP:
        raise CapExceededError(f"closure has 2^{types} elements, past cap {CLOSURE_CAP}")
    return ConceptClosure(model, model.lang.var_bound, _fixpoint(model, masks[0], 1 << types))


def closure_formula(closure: ConceptClosure, mask: int) -> Formula:
    """Recover a defining formula from the generation trace."""
    return _trace_formula(closure.traces, mask, {})


def _trace_formula(traces: dict[int, Trace], mask: int, memo: dict[int, Formula]) -> Formula:
    if mask not in memo:
        trace = traces[mask]
        op = trace[0]
        if op in ("diag", "atom"):
            out = _generator_formula(trace)
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
    types = _types([model], _generator_masks([model]))
    return CzValue(1 << types, "closure-exact", detail=f"size-{model.size} model")


def cz_lower_bound(theory: Theory, bound: int = DEFAULT_BOUND) -> CzValue:
    """Enumeration lower bound on conceptual size for first-order theories:
    2^types over the models of size <= bound. Every element of their
    closure is the meaning of an L^n formula, and formulas whose meanings
    differ on some model are inequivalent."""
    models = [m for k in range(1, bound + 1) for m in enumerate_models(theory, k)]
    if not models:
        return CzValue(1, "enumeration-lower-bound", True, detail=f"no models of size <= {bound}")
    return CzValue(
        1 << _types(models, _generator_masks(models)), "enumeration-lower-bound", True,
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


def _extension(model: FiniteModel, phi: Formula) -> list[bool]:
    """phi under every assignment, by `eval_formula`, to re-check a refutation."""
    n = model.lang.var_bound
    return [eval_formula(model, a, phi) for a in itertools.product(range(model.size), repeat=n)]


def check_interpretation(
    tr: Translation, t1: Theory, t2: Theory, bound: int = DEFAULT_BOUND
) -> CheckReport:
    """Does tr map theorems of t1 to theorems of t2, and does it reflect
    them back? Checked on the structures tr*(M) that tr's images define in
    the models M of t2 up to the bound, or at size 1 and exactly when both
    theories are sentential (`check_sizes`); M satisfies tr(phi) iff
    tr*(M) satisfies phi. The witness is a valid formula whose translation
    fails where an image defines no relation, a failing axiom, or a model
    of t1 that no tr*(M) matches."""
    if not (tr.source.same_formulas(t1.lang) and tr.target.same_formulas(t2.lang)):
        raise LanguageError("translation endpoints do not match the theories")
    return _interpretation(tr, t1, t2, bound, {}, True)


def _cylinder_laws(tr: Translation) -> list[tuple[str, int, Formula, Formula]]:
    """(R, j, phi_R,j, its translation) for each source symbol R of rank r
    and each v_j free in its image psi_R with j >= r. phi_R,j :=
    (forall v_j R(v0..v_{r-1})) iff R(v0..v_{r-1}) is valid, as v_j is not
    free in the atom. `apply_translation` maps the canonical atom to psi_R
    verbatim, so the translation is (forall v_j psi_R) iff psi_R, built
    here directly. It fails exactly in the models where psi_R varies along
    v_j, that is, where psi_R defines no relation."""
    laws = []
    for sym, rank in tr.source.symbols:
        own, image = atom(sym, tuple(range(rank))), tr.image(sym)
        laws += [(sym, j, iff(forall(j, own), own), iff(forall(j, image), image))
                 for j in sorted(free_variables(image)) if j >= rank]
    return laws


def _interpretation(
    tr: Translation, t1: Theory, t2: Theory, bound: int, free: dict, reflect: bool
) -> CheckReport:
    """Each image must define a relation in every model M of t2 of the
    sizes `check_sizes` gives: the first translated `_cylinder_laws`
    formula that fails in an M refutes exactly. Forward: every tr*(M)
    satisfies t1's axioms, so it satisfies every phi that t1 proves up to
    the bound; the first failing axiom refutes exactly. Reflect (skipped
    when not asked): the tr*(M) must cover t1's models by `_reflect`, the
    rule a concept-add is checked by."""
    top, shown = check_sizes(bound, t1, t2)
    exact, laws, sizes = shown is None, _cylinder_laws(tr), []
    for k in range(1, top + 1):
        for sym, j, phi, psi in laws:
            model = first_countermodel(t2, k, (psi,))
            if model is not None:
                if all(_extension(model, apply_translation(tr, phi))):
                    raise AssertionError(f"the translation of {phi!r} holds in its countermodel")
                return CheckReport("refuted", True, shown, phi, model,
                                   note=f"theoremhood not preserved: the image of {sym} "
                                   f"varies along v{j}")
        codes, bits = model_lanes(t2, k)
        full = (1 << len(codes)) - 1
        target = _space(tr.target.symbols, k)
        ind = _induced(tr.source.symbols, dict(tr.basic), target, bits, full, free)
        sizes.append((codes, ind, _Tables(_space(t1.lang.symbols, k), ind, full, free)))
    for phi in t1.axioms:
        for k, (codes, ind, tab) in enumerate(sizes, 1):
            bad = tab.full ^ _holds(tab, (phi,))
            if bad:
                i = (bad & -bad).bit_length() - 1
                if all(_extension(FiniteModel._of_code(t1.lang, k, _lane_code(ind, i)), phi)):
                    raise AssertionError(f"{phi!r} holds in the induced structure")
                model = FiniteModel._of_code(t2.lang, k, codes[i])
                return CheckReport("refuted", True, shown, phi, model,
                                   note="theoremhood not preserved")
    if not reflect:
        return CheckReport("interpretation", exact, shown)
    found = _reflect(t1, ((ind, len(codes)) for codes, ind, _ in sizes), exact)
    if found is None:
        return CheckReport("faithful", exact, shown)
    k, model, witness, decisive = found
    return CheckReport(
        "interpretation" if decisive else "undecided", exact, shown and k, witness, model,
        note=f"size-{k} models of {t1.name} differ from those induced in models of {t2.name}"
        if decisive else f"size-{k} models of {t1.name} are induced by no model of {t2.name}, "
        f"but {t1.lang.var_bound} variables cannot tell size-{k} structures apart",
    )


def _round_trip(
    theory: Theory, outer: Translation, inner: Translation, top: int, shown: int | None, free: dict
) -> CheckReport | None:
    """Does inner*(outer*(M)) = M for every model M of the theory of size
    at most top? Then the round trip of every formula holds. Otherwise the
    first canonical atom whose extension moves refutes, at the least size
    where one does. Both translations have passed their forward checks,
    so outer*(M) is a model of outer's source theory and every image
    defines a relation."""
    for k in range(1, top + 1):
        codes, bits = model_lanes(theory, k)
        full = (1 << len(codes)) - 1
        space = _space(theory.lang.symbols, k)
        there = _induced(outer.source.symbols, dict(outer.basic), space, bits, full, free)
        back = _induced(inner.source.symbols, dict(inner.basic), _space(inner.target.symbols, k),
                        there, full, free)
        if back != bits:
            bit = next(j for j, (x, y) in enumerate(zip(bits, back)) if x != y)
            sym, rank = next((s, r) for s, (r, off) in space.blocks.items() if bit < off + k**r)
            differ = bits[bit] ^ back[bit]
            i = (differ & -differ).bit_length() - 1
            phi = atom(sym, tuple(range(rank)))
            model = FiniteModel._of_code(theory.lang, k, codes[i])
            moved = FiniteModel._of_code(theory.lang, k, _lane_code(back, i))
            if _extension(model, phi) == _extension(moved, phi):
                raise AssertionError(f"{phi!r} survives the round trip")
            return CheckReport("refuted", True, shown and k, phi, model,
                               note=f"round trip fails over {theory.name}")
    return None


def check_defeq(
    tr12: Translation, tr21: Translation, t1: Theory, t2: Theory, bound: int = DEFAULT_BOUND
) -> CheckReport:
    """Verify a definitional-equivalence witness pair: both directions are
    interpretations and both round trips are provable biconditionals.
    Round trips compare each model with its image through both
    translations' induced structures, once both directions are known to
    be interpretations. Sizes and exactness follow `check_sizes`."""
    if not (tr12.source.same_formulas(t1.lang) and tr12.target.same_formulas(t2.lang)):
        raise LanguageError("tr12 endpoints do not match the theories")
    if not (tr21.source.same_formulas(t2.lang) and tr21.target.same_formulas(t1.lang)):
        raise LanguageError("tr21 endpoints do not match the theories")
    free: dict = {}  # one free-variable memo for every table of the check
    for tr, a, b, label in ((tr12, t1, t2, "tr12"), (tr21, t2, t1, "tr21")):
        rep = _interpretation(tr, a, b, bound, free, False)
        if rep.verdict == "refuted":
            return rep._replace(note=f"{label} is not an interpretation: {rep.note}")
    top, shown = check_sizes(bound, t1, t2)
    for theory, outer, inner in ((t1, tr21, tr12), (t2, tr12, tr21)):
        rep = _round_trip(theory, outer, inner, top, shown, free)
        if rep is not None:
            return rep
    return CheckReport("defeq", shown is None, shown)


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
