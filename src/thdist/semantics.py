"""Finite-model semantics: evaluation, enumeration up to isomorphism,
spectra, bounded consequence and equivalence, conservative extensions.

Evaluation comes in two forms. `eval_formula` implements the satisfaction
clauses one assignment at a time; it is the reference. `_Tables` evaluates
sideways, one bit (lane) per packed structure, each subformula a table of
lane masks over its free variables: enumeration sweeps blocks of codes with
it and bounded checks a theory's code list. `assignment_set` and `is_true`
are its one-lane case; `assignment_set` packs the table into an integer
bitmask over the k^n assignments in lexicographic order, the layout
concept closures run on. The test suite checks both forms agree.

The sweep splits axioms at their top-level ands and evaluates each
conjunct at most once per block of codes of a signature and size: the
space keeps the conjunct's alive mask per block, keyed by the interned
formula's uid, so theories that share a conjunct (reflexivity, say) read
it from there, and `clear_memory_caches` drops it with the space.

A sentential Sat-set is an integer mask too: bit r is set when the r-th
row of `syntax.all_assignments` (lexicographic) satisfies the theory, so
ascending bits are ascending rows. `sat_rows` turns a mask back into rows
where a witness or a DNF needs them.

Every answer carries its exact/bounded provenance: a check of sentential
theories is the first-order check run at size 1 alone (`check_sizes`),
which decides it exactly; a first-order 'holds' is bounded.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import CapExceededError, LanguageError, UnsupportedFragmentError
from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Formula,
    Language,
    Not,
    atom,
    characteristic_formula,
    dnf_of_assignments,
    make_psi_n,
    not_,
    parse_formula,
    print_formula,
    validate_formula,
)


MAX_CANDIDATES = 1 << 21  # most codes (or truth-table rows) one enumeration sweeps
MAX_SIZE = 8  # largest model size; canonical forms try its k! permutations
DEFAULT_BOUND = 4  # default K for bounded first-order checks


# ---------------------------------------------------------------------------
# Models

class FiniteModel:
    """Non-empty universe {0..size-1} with one relation per symbol.

    A model is its packed code over the `_Space` of its signature and
    size; equality and hashing read the code. A model built from an
    interpretation packs it on first use of `code` (so a cap on the size
    can refuse an oversized model before its code is allocated); one
    built from a code unpacks `interp` (frozensets of tuples, bools for
    rank 0) on first use."""

    __slots__ = ("lang", "size", "_code", "_interp")

    def __init__(self, lang: Language, size: int, interp: Mapping[str, object]):
        if size < 1:
            raise LanguageError("models have non-empty universes")
        norm: dict[str, object] = {}
        for sym, rank in lang.symbols:
            if sym not in interp:
                raise LanguageError(f"symbol {sym} not interpreted")
            value = interp[sym]
            if rank == 0:
                norm[sym] = bool(value)
            else:
                tuples = frozenset(tuple(t) for t in value)  # type: ignore[union-attr]
                for t in tuples:
                    if len(t) != rank or any(not (0 <= e < size) for e in t):
                        raise LanguageError(f"tuple {t} out of bounds for {sym}/{rank}")
                norm[sym] = tuples
        extra = set(interp) - set(norm)
        if extra:
            raise LanguageError(f"interpretation of unknown symbols: {sorted(extra)}")
        self.lang = lang
        self.size = size
        self._code = None
        self._interp = norm

    @classmethod
    def _of_code(cls, lang: Language, size: int, code: int) -> "FiniteModel":
        """The structure packed as `code`; every code below 2**width is one."""
        model = cls.__new__(cls)
        model.lang, model.size, model._code, model._interp = lang, size, code, None
        return model

    @property
    def code(self) -> int:
        if self._code is None:
            code = 0
            for sym, (rank, offset) in _space(self.lang.symbols, self.size).blocks.items():
                if rank == 0:
                    code |= self._interp[sym] << offset
                else:
                    for t in self._interp[sym]:
                        code |= 1 << offset + _index(self.size, t)
            self._code = code
        return self._code

    @property
    def interp(self) -> dict[str, object]:
        if self._interp is None:
            self._interp = _space(self.lang.symbols, self.size).unpack(self.code)
        return self._interp

    def rel(self, sym: str):
        return self.interp[sym]

    def _identity(self) -> tuple:
        return (self.size, self.lang.var_bound, self.lang.symbols, self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteModel) and self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return f"FiniteModel({self.lang.name}, {model_to_json(self)})"


def model_to_dict(model: FiniteModel) -> dict:
    """The JSON value of a model: tuples lexicographic."""
    interp: dict[str, object] = {}
    for sym, rank in model.lang.symbols:
        v = model.interp[sym]
        interp[sym] = v if isinstance(v, bool) else [list(t) for t in sorted(v)]
    return {"size": model.size, "interp": interp}


def model_to_json(model: FiniteModel) -> str:
    """Deterministic JSON: symbols alphabetical, tuples lexicographic."""
    return json.dumps(model_to_dict(model), sort_keys=True)


def model_lang_from_json(text: str | bytes, var_bound: int) -> tuple[Language, FiniteModel]:
    """Infer a language from a standalone model JSON (needs `ranks` for
    empty relations) and build the model over it. Input of any other shape
    is a LanguageError."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # undecodable bytes included
        raise LanguageError(f"model is not JSON: {exc}") from None
    ranks = data.get("ranks", {}) if isinstance(data, dict) else None
    if not (isinstance(ranks, dict) and all(type(r) is int for r in ranks.values())
            and type(data.get("size")) is int and isinstance(data.get("interp"), dict)):
        raise LanguageError(
            'a model is an object with an integer "size", an "interp" object '
            'and optional integer "ranks"'
        )
    symbols: dict[str, int] = {}
    for sym, value in data["interp"].items():
        if isinstance(value, bool):
            symbols[sym] = 0
        elif not isinstance(value, list) or not all(
            isinstance(t, list) and all(type(e) is int for e in t) for t in value
        ):
            raise LanguageError(f"{sym} is neither a boolean nor a list of integer tuples")
        elif value:
            symbols[sym] = len(value[0])
        elif sym in ranks:
            symbols[sym] = ranks[sym]
        else:
            raise LanguageError(f"empty relation {sym} needs an entry in 'ranks'")
    lang = Language.make("model", symbols, var_bound)
    return lang, FiniteModel(lang, data["size"], data["interp"])


# ---------------------------------------------------------------------------
# Clause-by-clause evaluation

def eval_formula(model: FiniteModel, assignment: Sequence[int], phi: Formula) -> bool:
    """Satisfaction under one assignment (total on v0..varBound-1)."""
    if isinstance(phi, Eq):
        return assignment[phi.i] == assignment[phi.j]
    if isinstance(phi, Atom):
        rel = model.rel(phi.sym)
        if isinstance(rel, bool):
            return rel
        return tuple(assignment[a] for a in phi.args) in rel
    if isinstance(phi, And):
        return eval_formula(model, assignment, phi.lhs) and eval_formula(
            model, assignment, phi.rhs
        )
    if isinstance(phi, Not):
        return not eval_formula(model, assignment, phi.sub)
    assert isinstance(phi, Exists)
    assignment = list(assignment)
    for a in range(model.size):
        assignment[phi.var] = a
        if eval_formula(model, assignment, phi.sub):
            return True
    return False


# ---------------------------------------------------------------------------
# Assignment sets: the table evaluator on one lane

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _one_lane(model: FiniteModel) -> "_Tables":
    """The tables of one lane, the model: bits[j] is bit j of its code."""
    space, code = _space(model.lang.symbols, model.size), model.code
    return _Tables(space, [code >> j & 1 for j in range(space.width)], 1, {})


def assignment_set(model: FiniteModel, phi: Formula) -> int:
    """Bitmask of assignments satisfying `phi` (lexicographic order): its
    one-lane table lifted to v0..varBound-1, entry i as bit i."""
    table = _one_lane(model).lift(phi, tuple(range(model.lang.var_bound)))
    return int(bytes(table[::-1]).translate(_DIGITS), 2)


def is_true(model: FiniteModel, phi: Formula) -> bool:
    """True in the model: satisfied under every assignment."""
    return all(_one_lane(model).table(phi))


# ---------------------------------------------------------------------------
# Theories

class Theory:
    """Named axiom set over a language."""

    __slots__ = ("name", "lang", "axioms", "key")

    def __init__(self, name: str, lang: Language, axioms: Sequence[Formula]):
        self.name = name
        self.lang = lang
        self.axioms = tuple(axioms)
        for a in self.axioms:
            validate_formula(a, lang)
        # what fixes the models and their codes, which follow sorted names:
        # ranks, variable bound and conjunct set, symbols named by position,
        # so memos and disk records serve renamings that keep the order
        names = {sym: f"s{i}" for i, (sym, _) in enumerate(lang.symbols)}
        self.key = json.dumps({
            "ranks": [rank for _, rank in lang.symbols],
            "vars": lang.var_bound,
            "conjuncts": sorted({print_formula(c, names) for a in axioms for c in _conjuncts(a)}),
        })

    @staticmethod
    def make(name: str, lang: Language, axioms: Iterable[Formula | str] = ()) -> "Theory":
        parsed = [parse_formula(a, lang) if isinstance(a, str) else a for a in axioms]
        return Theory(name, lang, parsed)

    def __repr__(self) -> str:
        return f"Theory({self.name!r}, {len(self.axioms)} axioms over {self.lang.name})"


def theory_from_sat(name: str, lang: Language, sat: Iterable[Sequence[bool]]) -> Theory:
    """Sentential theory axiomatized by the canonical DNF of a Sat-set."""
    if not lang.is_sentential:
        raise UnsupportedFragmentError("theory_from_sat needs a sentential language")
    return Theory.make(name, lang, [dnf_of_assignments(lang, sat)])


# ---------------------------------------------------------------------------
# Sentential Sat-sets

_sat_memo: dict[str, int] = {}


def sat_assignments(theory: Theory) -> int:
    """Exact Sat-set of a sentential theory: the mask whose bit r is set
    when the r-th row of `all_assignments` satisfies every axiom."""
    if not theory.lang.is_sentential:
        raise UnsupportedFragmentError(
            f"{theory.name} is not sentential; use bounded model enumeration"
        )
    cached = _sat_memo.get(theory.key)
    if cached is None:
        cached = _sat_memo[theory.key] = _sat_mask(theory.lang, theory.axioms)
    return cached


def sat_of_formula(lang: Language, phi: Formula) -> int:
    for sym, rank in lang.symbols:
        if rank:
            raise LanguageError(f"truth-table rows cannot interpret {sym}/{rank}")
    return _sat_mask(lang, (phi,))


def _sat_mask(lang: Language, formulas: Sequence[Formula]) -> int:
    """Sat mask of the formulas. Over the constants in reverse order the
    size-1 structure packed as code r is the r-th truth-table row (its
    first constant is the code's highest bit), so the satisfying codes
    are the mask's bits."""
    rows = 1 << len(lang.constants)
    if rows > MAX_CANDIDATES:
        raise CapExceededError(f"{rows} truth-table rows exceed cap {MAX_CANDIDATES}")
    mask, space = 0, _space(lang.symbols[::-1], 1)
    for base, alive, _ in _satisfying_blocks(space, formulas, space.alive):
        mask |= alive << base
    return mask


def sat_rows(lang: Language, mask: int) -> Iterator[tuple[bool, ...]]:
    """The truth-table rows of a Sat mask, ascending."""
    m = len(lang.constants)
    for r in _set_bits(mask):
        yield tuple(bool(r >> i & 1) for i in range(m - 1, -1, -1))


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    digits = f"{mask:b}"[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def assignment_model(lang: Language, row: Sequence[bool], size: int = 1) -> FiniteModel:
    return FiniteModel(lang, size, dict(zip(lang.constants, row)))


# ---------------------------------------------------------------------------
# Packed structures and canonical forms

def _index(k: int, t: Sequence[int]) -> int:
    """Position of the tuple t among the k^len(t) tuples, lexicographically."""
    idx = 0
    for e in t:
        idx = idx * k + e
    return idx


class _Space:
    """The size-k structures of one signature, each packed into one
    integer code: symbols in sorted order, each a contiguous block of one
    bit per possible tuple (lexicographic order; one bit for rank 0).

    A universe permutation p acts on codes by a position map m: bit i,
    the tuple t, moves to bit m[i], the tuple p(t); rank-0 bits are fixed
    points. Read the other way, bit j of the image is bit m[j] of the code
    under the inverse of p, so the maps of all permutations serve both
    directions. `maps()` holds one map per distinct non-identity action.
    `alive` is the sweep's memo: (block, conjunct uid) -> the mask of the
    block's codes in which the conjunct holds."""

    __slots__ = ("k", "width", "blocks", "_maps", "alive")

    def __init__(self, symbols: tuple[tuple[str, int], ...], k: int):
        self.k = k
        self.blocks: dict[str, tuple[int, int]] = {}  # symbol -> (rank, offset)
        offset = 0
        for sym, rank in symbols:
            self.blocks[sym] = (rank, offset)
            offset += k**rank
        self.width = offset
        self._maps: list[tuple[int, ...]] | None = None
        self.alive: dict[tuple[int, int], int] = {}

    def unpack(self, code: int) -> dict[str, object]:
        interp: dict[str, object] = {}
        for sym, (rank, offset) in self.blocks.items():
            bits = code >> offset
            if rank == 0:
                interp[sym] = bool(bits & 1)
            else:
                tuples = itertools.product(range(self.k), repeat=rank)
                interp[sym] = frozenset(t for i, t in enumerate(tuples) if bits >> i & 1)
        return interp

    def maps(self) -> list[tuple[int, ...]]:
        """The position maps of the non-identity permutations, built on
        first use. With a symbol of positive rank distinct permutations
        act differently (on the tuple (e, ..., e)); without one every
        permutation acts as the identity and there is no map."""
        if self._maps is None:
            k, pos = self.k, tuple(range(self.width))
            ranked = [(r, off) for r, off in self.blocks.values() if r]
            perms = itertools.permutations(range(k)) if ranked else ()
            self._maps = []
            for p in itertools.islice(perms, 1, None):  # the identity comes first
                m, moved = list(pos), [0]
                for r, off in sorted(ranked):
                    while len(moved) < k**r:  # index of p(t), t lexicographic
                        moved = [x * k + e for x in moved for e in p]
                    m[off : off + k**r] = [pos[off + x] for x in moved]
                self._maps.append(tuple(m))
        return self._maps

    def images(self, code: int) -> Iterator[int]:
        """The code's orbit, possibly with repeats: the code itself, then
        its set bits moved through each map."""
        yield code
        bits, power = list(_set_bits(code)), [1 << i for i in range(self.width)]
        for m in self.maps():
            yield sum(map(power.__getitem__, map(m.__getitem__, bits)))


@functools.lru_cache(maxsize=None)
def _space(symbols: tuple[tuple[str, int], ...], k: int) -> _Space:
    return _Space(symbols, k)


_BLOCK_BITS = 12  # each evaluation pass covers 2^12 consecutive codes

# Bit c of _CODE_BITS[i] is bit i of c, for every c below 2^_BLOCK_BITS: a
# run of 2^i zeros then 2^i ones, repeated.
_CODE_BITS = [
    ((1 << (1 << i)) - 1 << (1 << i))
    * (((1 << (1 << _BLOCK_BITS)) - 1) // ((1 << (2 << i)) - 1))
    for i in range(_BLOCK_BITS)
]


def _code_masks(width: int, block: int) -> list[int]:
    """Per code bit j < width: the mask whose bit c is bit j of code
    (block << w) + c, for the 2^w codes of a block (w = min(width,
    _BLOCK_BITS)). Periodic below w, all-ones or zero from w up."""
    w = min(width, _BLOCK_BITS)
    full = (1 << (1 << w)) - 1
    return [b & full for b in _CODE_BITS[:w]] + [
        full if block >> (j - w) & 1 else 0 for j in range(w, width)
    ]


@functools.lru_cache(maxsize=None)
def _restriction(k: int, vs: tuple[int, ...], sub: tuple[int, ...]) -> list[int]:
    """Per assignment of the variables vs (lexicographic): the index of the
    tuple it gives the variables sub, which all occur in vs."""
    pos = [vs.index(x) for x in sub]
    return [_index(k, [a[p] for p in pos]) for a in itertools.product(range(k), repeat=len(vs))]


@functools.lru_cache(maxsize=None)
def _fibres(k: int, m: int, p: int) -> list[list[int]]:
    """Over m variables: per value e of the p-th, the indices of the
    assignments giving it e, ordered by the assignment of the others."""
    stride = k ** (m - 1 - p)
    outer = [h * k * stride + l for h in range(k**p) for l in range(stride)]
    return [[i + e * stride for i in outer] for e in range(k)]


def _conjuncts(phi: Formula) -> list[Formula]:
    """phi split at its top-level ands: the universal closure of a
    conjunction is the conjunction of the closures."""
    if isinstance(phi, And):
        return _conjuncts(phi.lhs) + _conjuncts(phi.rhs)
    return [phi]


def _satisfying_blocks(
    space: _Space, formulas: Sequence[Formula], memo: dict[tuple[int, int], int]
) -> Iterator[tuple[int, int, list[int] | None]]:
    """(base, alive, bits) per block of 2^w codes with a model, ascending:
    bit c of alive is set when every formula holds in code base + c, and
    bits are the block's `_code_masks`, or None when no conjunct needed
    them. memo maps (block, conjunct uid) to the conjunct's alive mask,
    read before evaluating and filled on a miss; a block stops at the
    first conjunct that leaves no code alive. One free-variable memo
    serves every block."""
    width = space.width
    w = min(width, _BLOCK_BITS)
    full, free = (1 << (1 << w)) - 1, {}
    conjuncts = {c.uid: c for f in formulas for c in _conjuncts(f)}.values()  # each once
    for block in range(1 << (width - w)):
        alive, bits = full, None
        for phi in conjuncts:
            mask = memo.get((block, phi.uid))
            if mask is None:
                if bits is None:
                    bits = _code_masks(width, block)
                mask = memo[block, phi.uid] = _holds(_Tables(space, bits, full, free), (phi,))
            alive &= mask
            if not alive:
                break
        if alive:
            yield block << w, alive, bits


class _Tables:
    """Per subformula, a table of lane masks over the assignments of its
    own sorted free variables (lexicographic), bits[j] masking the lanes
    of `full` whose code has bit j set. `free` memoises the free
    variables by uid and may be shared; the tables are memoised per
    instance. An atom gathers its code bits, `=` is full or a k x k
    table, not works entrywise, and lifts both sides to their union of
    variables via `_restriction`, exists ORs over the `_fibres` of its
    variable."""

    __slots__ = ("k", "blocks", "bits", "full", "free", "memo")

    def __init__(self, space: _Space, bits: Sequence[int], full: int, free: dict):
        self.k, self.blocks, self.bits, self.full = space.k, space.blocks, bits, full
        self.free, self.memo = free, {}

    def fv(self, f: Formula) -> tuple[int, ...]:
        vs = self.free.get(f.uid)
        if vs is None:
            if isinstance(f, Eq):
                vs = {f.i, f.j} if f.i != f.j else ()
            elif isinstance(f, Atom):
                vs = set(f.args)
            elif isinstance(f, And):
                vs = {*self.fv(f.lhs), *self.fv(f.rhs)}
            elif isinstance(f, Not):
                vs = self.fv(f.sub)
            else:
                vs = set(self.fv(f.sub)) - {f.var}
            vs = self.free[f.uid] = tuple(sorted(vs))
        return vs

    def lift(self, f: Formula, vs: tuple[int, ...]) -> list[int]:
        """f's table over vs, a sorted superset of its free variables."""
        sub, table = self.fv(f), self.table(f)
        return table if sub == vs else list(map(table.__getitem__, _restriction(self.k, vs, sub)))

    def table(self, f: Formula) -> list[int]:
        out = self.memo.get(f.uid)
        if out is not None:
            return out
        k, full = self.k, self.full
        if isinstance(f, Eq):
            out = [full] if f.i == f.j else [
                full if a == b else 0 for a in range(k) for b in range(k)
            ]
        elif isinstance(f, Atom):
            rank, offset = self.blocks[f.sym]
            own = self.bits[offset : offset + k**rank]  # the symbol's code bits
            out = list(map(own.__getitem__, _restriction(k, self.fv(f), f.args)))
        elif isinstance(f, And):
            vs = self.fv(f)
            out = list(map(operator.and_, self.lift(f.lhs, vs), self.lift(f.rhs, vs)))
        elif isinstance(f, Not):
            out = list(map(full.__xor__, self.table(f.sub)))
        else:
            sub, vs = self.table(f.sub), self.fv(f.sub)
            if f.var in vs:
                first, *rest = _fibres(k, len(vs), vs.index(f.var))
                out = list(map(sub.__getitem__, first))
                for idx in rest:
                    out = list(map(operator.or_, out, map(sub.__getitem__, idx)))
            else:
                out = sub
        self.memo[f.uid] = out
        return out


def _holds(tables: _Tables, formulas: Sequence[Formula]) -> int:
    """The lanes of the tables in which every formula holds under every
    assignment. A formula's leading not/exists prefix is read, not
    tabled, in two states: every assignment satisfies what is left
    (`every`), or none does. A not switches state; an exists is dropped
    in the second state and ends the prefix in the first. What is left
    is ANDed over its table in the first state, ORed and complemented in
    the second."""
    alive = full = tables.full
    for phi in formulas:
        every = True
        while isinstance(phi, Not) or isinstance(phi, Exists) and not every:
            every, phi = every ^ isinstance(phi, Not), phi.sub
        table = tables.table(phi)
        if every:
            for x in table:
                alive &= x
        else:
            alive &= full ^ functools.reduce(operator.or_, table)
        if not alive:
            break
    return alive


def _induced(
    symbols: Sequence[tuple[str, int]], images: Mapping[str, Formula],
    space: _Space, bits: Sequence[int], full: int, free: dict,
) -> list[int]:
    """The lanes of the structures that the images define in the lanes of
    `bits`, structures of the space: each symbol's image tabled over
    v0..v_{rank-1}, in block order, with its free variables past the rank
    at 0. With canonical atoms as images these are reducts. An image
    defines a relation only where it does not vary along those variables,
    which callers make sure of first (`concepts._cylinder_laws`)."""
    tables, out = _Tables(space, bits, full, free), []
    for sym, rank in symbols:
        image = images[sym]
        vs = tuple(sorted({*range(rank), *tables.fv(image)}))
        out += tables.lift(image, vs)[:: space.k ** (len(vs) - rank)]  # extras vary fastest
    return out


def canonical_form(model: FiniteModel) -> tuple[int, int]:
    """Complete isomorphism invariant: the size and the least packed code
    over all universe permutations. Equal forms iff isomorphic (within
    one signature)."""
    k = model.size
    if k > MAX_SIZE:
        raise CapExceededError(f"size {k} exceeds cap {MAX_SIZE}")
    return (k, min(_space(model.lang.symbols, k).images(model.code)))


def _least_codes_of(space: _Space, codes: Iterable[int], known: set[int]) -> set[int]:
    """The least codes of the orbits of the codes in the space; a code in
    `known`, a set of least codes, is already its orbit's least."""
    out: set[int] = set()
    for code in codes:
        if code not in known and code not in out:
            code = min(space.images(code))
        out.add(code)
    return out


def canonical_model(model: FiniteModel) -> FiniteModel:
    k, code = canonical_form(model)
    return FiniteModel._of_code(model.lang, k, code)


def isomorphic(a: FiniteModel, b: FiniteModel) -> bool:
    if a.size != b.size or a.lang.symbols != b.lang.symbols:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Enumeration up to isomorphism, spectra

_model_memo: dict[tuple[str, int], list] = {}  # -> [codes, lane masks or None, {lang: models}]
_induced_memo: dict[tuple, set[int]] = {}  # (t1 key, k, count, lanes) -> least codes, by _reflect
_store = None  # optional persistent cache registered by the workbench


def set_profile_store(store) -> None:
    """Install a persistent cache with get(key, k) / put(key, k, payload);
    a payload is {"count": n, "codes": the n canonical codes, ascending}."""
    global _store
    _store = store


def clear_memory_caches() -> None:
    _model_memo.clear()
    _induced_memo.clear()
    _sat_memo.clear()
    _restriction.cache_clear()
    _fibres.cache_clear()
    _space.cache_clear()


def enumeration_feasible(theory: Theory, k: int) -> bool:
    """Would enumerate_models stay inside the caps: 1 <= k <= MAX_SIZE, for
    sentential theories too, and at most MAX_CANDIDATES codes? The code
    width is read off the signature (one bit per constant for a sentential
    theory, whatever k), so nothing is built."""
    if not 1 <= k <= MAX_SIZE:
        return False
    return 1 << sum(k**rank for _, rank in theory.lang.symbols) <= MAX_CANDIDATES


def feasible_bound(bound: int, theories: Sequence[Theory]) -> int:
    """The largest k <= bound such that every theory's enumeration stays
    inside the caps at each size up to k; 0 when size 1 already fails.
    `check_sizes` reads it for every check before anything is enumerated."""
    k = 0
    while k < bound and all(enumeration_feasible(t, k + 1) for t in theories):
        k += 1
    return k


def _entry(theory: Theory, k: int) -> list:
    """The theory's size-k memo entry, [codes, lane masks or None, {lang:
    models}], its codes read from the disk cache or swept; builds no model."""
    if k < 1:
        raise CapExceededError("model size must be >= 1")
    if k > MAX_SIZE:
        raise CapExceededError(f"size {k} exceeds cap {MAX_SIZE}")
    lang, entry = theory.lang, _model_memo.get((theory.key, k))
    if entry is None:
        if lang.is_sentential:
            # bit i of a code is constant i, the row index's bit m-1-i
            m = len(lang.constants)
            codes = [int(f"{r:0{m}b}"[::-1], 2) for r in _set_bits(sat_assignments(theory))]
        else:
            space = _space(lang.symbols, k)
            codes = _store and _stored_codes(_store.get(theory.key, k), space.width)
            if codes is None:
                codes = _least_codes(theory, space)
                if _store is not None:
                    _store.put(theory.key, k, {"count": len(codes), "codes": codes})
        entry = _model_memo[theory.key, k] = [codes, None, {}]
    return entry


def enumerate_models(theory: Theory, k: int) -> list[FiniteModel]:
    """Canonical representatives of the size-k models of the theory:
    first-order lists ascend by canonical code, sentential lists follow
    the Sat mask's rows (the same codes at every k)."""
    lang, entry = theory.lang, _entry(theory, k)
    models = entry[2].get(lang)
    if models is None:  # variants share the codes; each language labels them once
        models = entry[2][lang] = [FiniteModel._of_code(lang, k, c) for c in entry[0]]
    return models


def model_lanes(theory: Theory, k: int) -> tuple[list[int], list[int]]:
    """The theory's size-k codes (`enumerate_models` order) and their lane
    masks, one per code bit: bit i of mask j is bit j of the i-th code.
    Built once per code list, beside it."""
    entry = _entry(theory, k)
    if entry[1] is None:
        entry[1] = _lanes(entry[0], _space(theory.lang.symbols, k).width)
    return entry[0], entry[1]


def _lanes(codes: Sequence[int], width: int) -> list[int]:
    """Per code bit j < width, the mask of the codes (by position) with bit
    j set, read off one binary string of the codes padded to n bytes each."""
    n, packed = width // 8 + 1, bytearray()
    for code in codes:
        packed += code.to_bytes(n, "little")
    bits = f"{int.from_bytes(packed, 'little'):0{8 * len(packed)}b}"
    return [int(bits[8 * n - 1 - j :: 8 * n] or "0", 2) for j in range(width)]


def _lane_codes(bits: Sequence[int], lanes: int) -> list[int]:
    """The codes of the first `lanes` lanes of the masks: `_lanes` inverted."""
    if not bits or not lanes:
        return [0] * lanes
    rows = zip(*(f"{b:0{lanes}b}"[-lanes:] for b in reversed(bits)))
    return [int("".join(row), 2) for row in rows][::-1]


def _lane_code(bits: Sequence[int], i: int) -> int:
    """The code in lane i of the masks: bit j is bit i of mask j."""
    return sum((b >> i & 1) << j for j, b in enumerate(bits))


def first_countermodel(theory: Theory, k: int, formulas: Sequence[Formula]) -> FiniteModel | None:
    """The first of the theory's size-k models (in `enumerate_models`
    order) in which some formula is not true, built from its code, or
    None. One `_holds` pass over `model_lanes` checks them all."""
    codes, bits = model_lanes(theory, k)
    full = (1 << len(codes)) - 1
    bad = full ^ _holds(_Tables(_space(theory.lang.symbols, k), bits, full, {}), formulas)
    i = (bad & -bad).bit_length() - 1
    return FiniteModel._of_code(theory.lang, k, codes[i]) if bad else None


def _least_codes(theory: Theory, space: _Space) -> list[int]:
    """Ascending least codes of the orbits of the theory's models in the
    space. The models are closed under isomorphism, so these are the
    satisfying codes c that no permutation maps below c.

    The test runs bit-sliced over each block of the sweep, with x[j] the
    mask of the block's codes whose bit j is set. Bit j of the image of c
    under a map m is bit m[j] of c, so scanning j downwards, eq holds the
    codes whose image agrees with them above j, and those of eq whose bit
    j is 1 while bit m[j] is 0 map below themselves. The maps hold k!
    permutations; `enumerate_models` holds k to MAX_SIZE before it calls."""
    candidates = 1 << space.width
    if candidates > MAX_CANDIDATES:
        raise CapExceededError(
            f"{candidates} interpretation candidates at size {space.k} "
            f"exceed cap {MAX_CANDIDATES}"
        )
    moves = [
        [(j, m[j]) for j in range(space.width - 1, -1, -1) if m[j] != j]
        for m in space.maps()
    ]
    codes = []
    for base, alive, x in _satisfying_blocks(space, theory.axioms, space.alive):
        if x is None and moves:
            x = _code_masks(space.width, base >> _BLOCK_BITS)
        keep = alive
        for moved in moves:
            eq = keep
            for j, src in moved:
                differ = eq & (x[j] ^ x[src])
                if differ:
                    keep ^= differ & x[j]
                    eq ^= differ
                    if not eq:
                        break
            if not keep:
                break
        codes.extend(base + c for c in _set_bits(keep))
    return codes


def _stored_codes(record, width: int) -> list[int] | None:
    """The codes of a cache record when they are ints in [0, 2**width) in
    strictly ascending order; anything else is a miss."""
    codes = record.get("codes") if isinstance(record, dict) else None
    if isinstance(codes, list) and all(type(c) is int for c in codes) \
            and all(a < b for a, b in zip([-1] + codes, codes + [1 << width])):
        return codes
    return None


def spectrum(theory: Theory, k: int) -> int:
    """I(T, k): number of size-k models up to isomorphism."""
    return len(enumerate_models(theory, k))


# ---------------------------------------------------------------------------
# Bounded consequence / equivalence / conservativity

class ConsequenceResult(NamedTuple):
    holds: bool
    exact: bool
    bound: int | None
    countermodel: FiniteModel | None = None

    def __bool__(self) -> bool:
        return self.holds


def check_sizes(bound: int, *theories: Theory) -> tuple[int, int | None]:
    """The sizes 1..top a check of the theories runs through and the bound
    it shows: (1, None) when every theory is sentential, the answer exact,
    else (top, top), top = `feasible_bound(bound, theories)`; an answer
    found at size k shows `shown and k`. Without variables a structure
    satisfies the same sentences as the size-1 structure with the same
    facts, its L^0-type being its truth-table row: size 1 decides. Raises
    when size 1 does not fit the caps."""
    sentential = all(t.lang.is_sentential for t in theories)
    top = feasible_bound(1 if sentential else bound, theories)
    if top < 1:
        raise CapExceededError("verification infeasible even at size 1")
    return (1, None) if sentential else (top, top)


def bounded_consequence(
    theory: Theory, phi: Formula, bound: int = DEFAULT_BOUND
) -> ConsequenceResult:
    """Is phi a theorem of the theory, up to models of size `bound`?

    Refutations always carry a concrete countermodel. A sentential theory
    is decided exactly at size 1 (`check_sizes`); a first-order 'holds' is
    only holds-up-to-K.
    """
    top, shown = check_sizes(bound, theory)
    for k in range(1, top + 1):
        model = first_countermodel(theory, k, (phi,))
        if model is not None:
            return ConsequenceResult(False, True, shown and k, model)
    return ConsequenceResult(True, shown is None, shown)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    exact: bool
    bound: int | None
    witness_formula: Formula | None = None
    witness_model: FiniteModel | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


def logically_equivalent(t1: Theory, t2: Theory, bound: int = DEFAULT_BOUND) -> EquivalenceResult:
    """Same consequences? Exact for sentential theories, bounded otherwise.

    Theories on different languages are distinguished outright: logical
    equivalence presupposes a shared language.
    """
    if not t1.lang.same_formulas(t2.lang):
        return EquivalenceResult(False, True, None, reason="language mismatch")
    top, shown = check_sizes(bound, t1, t2)
    for k in range(1, top + 1):
        if _entry(t1, k)[0] != _entry(t2, k)[0]:
            break
    else:
        return EquivalenceResult(True, shown is None, shown)
    for a, b in ((t1, t2), (t2, t1)):
        for phi in b.axioms:
            r = bounded_consequence(a, phi, bound)
            if not r.holds:
                return EquivalenceResult(
                    False, r.exact, r.bound, phi, r.countermodel,
                    reason=f"{a.name} does not prove an axiom of {b.name}",
                )
    raise AssertionError(f"size-{k} models of {t1.name} and {t2.name} differ, yet no axiom fails")


class ConservativityResult(NamedTuple):
    holds: bool | None  # None: undecided, the evidence lies beyond L^n
    exact: bool
    bound: int | None
    witness_formula: Formula | None = None
    witness_model: FiniteModel | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds is True


def conservative_extension(
    t1: Theory, t2: Theory, bound: int = DEFAULT_BOUND
) -> ConservativityResult:
    """Does t2 prove exactly t1's theorems in t1's language (t1 within t2)?

    For each size k the check runs through (`check_sizes`: size 1 alone,
    exactly, when both languages are sentential) the t1-reducts of t2's
    models (the structures t1's canonical atoms induce in them) must
    equal t1's models, by `_reflect`.
    """
    if not t2.lang.includes(t1.lang):
        raise LanguageError(
            f"formulas of {t1.lang.name} are not all formulas of {t2.lang.name}"
        )
    top, shown = check_sizes(bound, t1, t2)
    canonical, free = {sym: atom(sym, tuple(range(rank))) for sym, rank in t1.lang.symbols}, {}
    reducts = (  # per size, the reducts' lanes and their count, built as _reflect reads them
        (_induced(t1.lang.symbols, canonical, _space(t2.lang.symbols, k), bits,
                  (1 << len(codes)) - 1, free), len(codes))
        for k in range(1, top + 1) for codes, bits in [model_lanes(t2, k)]
    )
    found = _reflect(t1, reducts, shown is None)
    if found is None:
        return ConservativityResult(True, shown is None, shown)
    k, model, witness, decisive = found
    detail = f"size-{k} reducts of {t2.name} differ from models of {t1.name}" if decisive else (
        f"size-{k} models of {t1.name} lack {t2.name}-expansions, "
        f"but {t1.lang.var_bound} variables cannot tell size-{k} structures apart")
    return ConservativityResult(
        False if decisive else None, shown is None, shown and k, witness, model, detail)


def _reflect(
    t1: Theory, sizes: Iterable[tuple[Sequence[int], int]], exact: bool
) -> tuple[int, FiniteModel, Formula | None, bool] | None:
    """Do the t1-structures that `sizes` yields, for k = 1, 2, ... the
    lanes of the size-k ones and their count, cover t1's models exactly,
    up to isomorphism? None if so; otherwise (k, model, witness formula,
    decisive) for the first size that decides, or failing that the first
    that differs, `model` the differing one of least code. `sizes` is read
    lazily, so nothing past a decisive size is built.

    The claim is about t1's formulas, with n = t1's variable bound. A
    size-k t1-model that is induced by none refutes only where k <= n - 1:
    telling a size-k structure apart takes k + 1 variables, and with fewer
    it may be L^n-equivalent to an induced one. From k = n on such a
    mismatch leaves the answer undecided (decisive False) unless a larger
    size refutes. An induced structure that is no t1-model refutes at
    every size: the model inducing it fails an axiom of t1.

    With `exact` (every language sentential: n = 0, size 1 alone) a
    mismatch either way refutes, a structure's L^0-type being its row; the
    witness not chi(row) (`characteristic_formula`) fails in the model.
    """
    n, undecided = t1.lang.var_bound, None
    for k, (lanes, count) in enumerate(sizes, 1):
        own = set(_entry(t1, k)[0])  # least codes, hence already canonical
        key = (t1.key, k, count, *lanes)  # conservativity and faithfulness share it
        if key not in _induced_memo:
            codes = _lane_codes(lanes, count)
            _induced_memo[key] = _least_codes_of(_space(t1.lang.symbols, k), codes, own)
        induced = _induced_memo[key]
        if own == induced:
            continue
        decisive = own ^ induced if k < n or exact else induced - own
        model = FiniteModel._of_code(t1.lang, k, min(decisive or own ^ induced))
        if exact:
            row = [model.rel(c) for c in t1.lang.constants]
            return k, model, not_(characteristic_formula(t1.lang, row)), True
        if decisive:
            # nothing is induced at size k, so "not exactly k elements"
            # (k + 1 <= n variables) holds on the other side, not in t1
            return k, model, None if induced else not_(make_psi_n(k, t1.lang)), True
        undecided = undecided or (k, model, None, False)
    return undecided
