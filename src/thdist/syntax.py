"""Languages and formulas of the finite-variable fragments.

A language is a finite set of ranked relation symbols together with a
variable bound n (usable variables v0..v_{n-1}). varBound 0 with all ranks 0
is the sentential fragment; otherwise every rank < rankBound <= varBound + 1.

Formula ASTs are fully desugared: the only node kinds are equality, atom,
conjunction, negation and existential quantification. Derived connectives
(or, implies, iff, forall, grouped and/or, true, false) are rewritten at
construction time. Nodes are interned by structure, so structural equality
coincides with identity and shared subformulas share representation.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FormulaSyntaxError, LanguageError, VariableBudgetError
from .sexpr import SAtom, SList, SString, read_one

KEYWORDS = frozenset(
    {"=", "and", "or", "not", "implies", "iff", "exists", "forall", "true", "false"}
)
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"v(\d+)\Z")


class Language(NamedTuple):
    """Relation symbols with ranks, plus the fragment's variable bound."""

    name: str
    symbols: tuple[tuple[str, int], ...]  # sorted by symbol name
    var_bound: int
    rank_bound: int

    @staticmethod
    def make(
        name: str,
        symbols: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        var_bound: int = 0,
        rank_bound: int | None = None,
    ) -> "Language":
        pairs = sorted(dict(symbols).items())
        if var_bound < 0:
            raise LanguageError("varBound must be >= 0")
        ranks = [r for _, r in pairs]
        if rank_bound is None:
            rank_bound = max(ranks, default=0) + 1
        for sym, rank in pairs:
            if not _NAME_RE.match(sym) or sym in KEYWORDS or _VAR_RE.match(sym):
                raise LanguageError(f"bad symbol name {sym!r}")
            if rank < 0 or rank >= rank_bound:
                raise LanguageError(f"rank of {sym} must satisfy 0 <= rank < rankBound")
        if rank_bound > var_bound + 1:
            raise LanguageError(
                f"rankBound {rank_bound} exceeds varBound+1 = {var_bound + 1}"
            )
        if var_bound == 0 and any(r != 0 for r in ranks):
            raise LanguageError("sentential languages admit only rank-0 symbols")
        return Language(name, tuple(pairs), var_bound, rank_bound)

    @property
    def is_sentential(self) -> bool:
        return self.var_bound == 0

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(s for s, r in self.symbols if r == 0)

    def rank(self, sym: str) -> int:
        for s, r in self.symbols:
            if s == sym:
                return r
        raise LanguageError(f"unknown symbol {sym!r} in language {self.name}")

    def has(self, sym: str) -> bool:
        return any(s == sym for s, _ in self.symbols)

    def with_symbol(self, sym: str, rank: int, name: str | None = None) -> "Language":
        if self.has(sym):
            raise LanguageError(f"symbol {sym!r} already present")
        return Language.make(
            name or f"{self.name}+{sym}",
            dict(self.symbols) | {sym: rank},
            self.var_bound,
            max(self.rank_bound, rank + 1),
        )

    def without_symbols(self, names: Iterable[str]) -> "Language":
        drop = set(names)
        kept = {s: r for s, r in self.symbols if s not in drop}
        return Language.make(self.name, kept, self.var_bound)

    def same_formulas(self, other: "Language") -> bool:
        """Same symbol map and variable bound, hence the same formula set."""
        return self.symbols == other.symbols and self.var_bound == other.var_bound

    def includes(self, other: "Language") -> bool:
        """Every formula of `other` is a formula of this language."""
        mine = dict(self.symbols)
        return other.var_bound <= self.var_bound and all(
            mine.get(s) == r for s, r in other.symbols
        )


# ---------------------------------------------------------------------------
# Formula nodes (interned; construct only through the factories below)

class Formula:
    __slots__ = ("uid",)

    def __repr__(self) -> str:
        return print_formula(self)


class Eq(Formula):
    __slots__ = ("i", "j")


class Atom(Formula):
    __slots__ = ("sym", "args")


class And(Formula):
    __slots__ = ("lhs", "rhs")


class Not(Formula):
    __slots__ = ("sub",)


class Exists(Formula):
    __slots__ = ("var", "sub")


_intern_table: dict[tuple, Formula] = {}
_uid_counter = itertools.count(1)


def _interned(key: tuple, cls, **attrs) -> Formula:
    node = _intern_table.get(key)
    if node is None:
        node = cls()
        for field, value in attrs.items():
            object.__setattr__(node, field, value)
        object.__setattr__(node, "uid", next(_uid_counter))
        _intern_table[key] = node
    return node


def eq(i: int, j: int) -> Formula:
    if i < 0 or j < 0:
        raise LanguageError("negative variable index")
    return _interned(("=", i, j), Eq, i=i, j=j)


def atom(sym: str, args: Sequence[int] = ()) -> Formula:
    args = tuple(args)
    if any(a < 0 for a in args):
        raise LanguageError("negative variable index")
    return _interned(("@", sym, args), Atom, sym=sym, args=args)


def and_(a: Formula, b: Formula) -> Formula:
    return _interned(("&", a.uid, b.uid), And, lhs=a, rhs=b)


def not_(a: Formula) -> Formula:
    return _interned(("~", a.uid), Not, sub=a)


def exists(var: int, a: Formula) -> Formula:
    if var < 0:
        raise LanguageError("negative variable index")
    return _interned(("E", var, a.uid), Exists, var=var, sub=a)


# Derived connectives, desugared exactly per the abbreviation table.

def or_(a: Formula, b: Formula) -> Formula:
    return not_(and_(not_(a), not_(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return not_(and_(a, not_(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return and_(implies(a, b), implies(b, a))


def forall(var: int, a: Formula) -> Formula:
    return not_(exists(var, not_(a)))


def first_basic_formula(lang: Language) -> Formula:
    """Lexicographically first basic formula (by printed form).

    `(= v0 v0)` when variables exist; otherwise the alphabetically first
    sentential constant. A sentential language without symbols has no
    formulas at all, so there is nothing to return.
    """
    if lang.var_bound >= 1:
        return eq(0, 0)
    if lang.symbols:
        return atom(lang.symbols[0][0])
    raise LanguageError(
        f"language {lang.name} has no basic formulas (no variables, no symbols)"
    )


def true_formula(lang: Language) -> Formula:
    """Empty conjunction: phi or not phi, phi the first basic formula."""
    phi = first_basic_formula(lang)
    return or_(phi, not_(phi))


def false_formula(lang: Language) -> Formula:
    """Empty disjunction: phi and not phi, phi the first basic formula."""
    phi = first_basic_formula(lang)
    return and_(phi, not_(phi))


def big_and(lang: Language, items: Sequence[Formula]) -> Formula:
    if not items:
        return true_formula(lang)
    acc = items[0]
    for f in items[1:]:
        acc = and_(acc, f)
    return acc


def big_or(lang: Language, items: Sequence[Formula]) -> Formula:
    if not items:
        return false_formula(lang)
    acc = items[0]
    for f in items[1:]:
        acc = or_(acc, f)
    return acc


# ---------------------------------------------------------------------------
# Traversal helpers

def subformulas(phi: Formula) -> list[Formula]:
    """All distinct subformulas, children before parents."""
    seen: dict[int, Formula] = {}
    _walk(phi, seen)
    return list(seen.values())


def _walk(f: Formula, seen: dict[int, Formula]) -> None:
    # a module-level walk: a nested recursive closure would leave a
    # reference cycle behind every call
    if f.uid in seen:
        return
    if isinstance(f, And):
        _walk(f.lhs, seen)
        _walk(f.rhs, seen)
    elif isinstance(f, (Not, Exists)):
        _walk(f.sub, seen)
    seen[f.uid] = f


def free_variables(phi: Formula) -> frozenset[int]:
    """The indices of the variables free in phi."""
    free: dict[int, frozenset[int]] = {}
    for f in subformulas(phi):  # children before parents
        if isinstance(f, Eq):
            vs = frozenset((f.i, f.j))
        elif isinstance(f, Atom):
            vs = frozenset(f.args)
        elif isinstance(f, And):
            vs = free[f.lhs.uid] | free[f.rhs.uid]
        elif isinstance(f, Not):
            vs = free[f.sub.uid]
        else:
            vs = free[f.sub.uid] - {f.var}
        free[f.uid] = vs
    return free[phi.uid]


def validate_formula(phi: Formula, lang: Language) -> None:
    """Check symbols, arities and variable indices against `lang`."""
    ranks = dict(lang.symbols)
    for f in subformulas(phi):
        if isinstance(f, Atom):
            if f.sym not in ranks:
                raise LanguageError(f"unknown symbol {f.sym!r} in language {lang.name}")
            if len(f.args) != ranks[f.sym]:
                raise LanguageError(
                    f"arity mismatch: {f.sym} has rank {ranks[f.sym]}, got {len(f.args)} arguments"
                )
            if any(a >= lang.var_bound for a in f.args):
                raise LanguageError(f"variable index >= varBound {lang.var_bound}")
        elif isinstance(f, Eq):
            if f.i >= lang.var_bound or f.j >= lang.var_bound:
                raise LanguageError(f"variable index >= varBound {lang.var_bound}")
        elif isinstance(f, Exists):
            if f.var >= lang.var_bound:
                raise LanguageError(f"variable index >= varBound {lang.var_bound}")


# ---------------------------------------------------------------------------
# Printing and parsing (s-expression concrete syntax)

def print_formula(phi: Formula, names: Mapping[str, str] | None = None) -> str:
    """The formula's concrete syntax; `names`, when given, renames symbols."""
    if isinstance(phi, Eq):
        return f"(= v{phi.i} v{phi.j})"
    if isinstance(phi, Atom):
        sym = phi.sym if names is None else names[phi.sym]
        return "(" + sym + "".join(f" v{a}" for a in phi.args) + ")" if phi.args else sym
    if isinstance(phi, And):
        return f"(and {print_formula(phi.lhs, names)} {print_formula(phi.rhs, names)})"
    if isinstance(phi, Not):
        return f"(not {print_formula(phi.sub, names)})"
    if isinstance(phi, Exists):
        return f"(exists v{phi.var} {print_formula(phi.sub, names)})"
    raise TypeError(f"not a formula node: {phi!r}")


def _var_index(node, lang: Language) -> int:
    if not isinstance(node, SAtom):
        raise FormulaSyntaxError("expected a variable", node.line, node.column)
    m = _VAR_RE.match(node.text)
    if not m:
        raise FormulaSyntaxError(f"expected a variable, got {node.text!r}", node.line, node.column)
    idx = int(m.group(1))
    if idx >= lang.var_bound:
        raise FormulaSyntaxError(
            f"variable v{idx} exceeds varBound {lang.var_bound}", node.line, node.column
        )
    return idx


def _build(node, lang: Language) -> Formula:
    if isinstance(node, SString):
        raise FormulaSyntaxError("strings are not formulas", node.line, node.column)
    if isinstance(node, SAtom):
        text = node.text
        if text == "true":
            return true_formula(lang)
        if text == "false":
            return false_formula(lang)
        if _VAR_RE.match(text):
            raise FormulaSyntaxError("bare variable is not a formula", node.line, node.column)
        if text in KEYWORDS:
            raise FormulaSyntaxError(f"misplaced keyword {text!r}", node.line, node.column)
        if not lang.has(text):
            raise FormulaSyntaxError(f"unknown symbol {text!r}", node.line, node.column)
        if lang.rank(text) != 0:
            raise FormulaSyntaxError(
                f"arity mismatch: {text} has rank {lang.rank(text)}", node.line, node.column
            )
        return atom(text)
    assert isinstance(node, SList)
    if len(node) == 0:
        raise FormulaSyntaxError("empty form", node.line, node.column)
    head = node[0]
    if not isinstance(head, SAtom):
        raise FormulaSyntaxError("expected an operator or symbol", node.line, node.column)
    op = head.text
    rest = node.items[1:]
    if op == "=":
        if len(rest) != 2:
            raise FormulaSyntaxError("= takes two variables", node.line, node.column)
        return eq(_var_index(rest[0], lang), _var_index(rest[1], lang))
    if op in ("and", "or"):
        return (big_and if op == "and" else big_or)(lang, [_build(n, lang) for n in rest])
    if op == "not":
        if len(rest) != 1:
            raise FormulaSyntaxError("not takes one formula", node.line, node.column)
        return not_(_build(rest[0], lang))
    if op in ("implies", "iff"):
        if len(rest) != 2:
            raise FormulaSyntaxError(f"{op} takes two formulas", node.line, node.column)
        a, b = _build(rest[0], lang), _build(rest[1], lang)
        return implies(a, b) if op == "implies" else iff(a, b)
    if op in ("exists", "forall"):
        if len(rest) != 2:
            raise FormulaSyntaxError(f"{op} takes a variable and a formula", node.line, node.column)
        v = _var_index(rest[0], lang)
        body = _build(rest[1], lang)
        return exists(v, body) if op == "exists" else forall(v, body)
    if op in ("true", "false"):
        raise FormulaSyntaxError(f"{op} is written bare", node.line, node.column)
    # an atom form (R v0 v1 ...)
    if not lang.has(op):
        raise FormulaSyntaxError(f"unknown symbol {op!r}", head.line, head.column)
    rank = lang.rank(op)
    if rank == 0:
        raise FormulaSyntaxError(f"rank-0 atom {op} is written bare", node.line, node.column)
    if len(rest) != rank:
        raise FormulaSyntaxError(
            f"arity mismatch: {op} has rank {rank}, got {len(rest)} arguments",
            node.line,
            node.column,
        )
    return atom(op, tuple(_var_index(n, lang) for n in rest))


def parse_formula(text: str, lang: Language) -> Formula:
    """Parse concrete syntax into a desugared, validated AST."""
    return _build(read_one(text), lang)


# ---------------------------------------------------------------------------
# Generators

def make_psi_n(n: int, lang: Language) -> Formula:
    """The sentence saying the universe has exactly n elements.

    Exists v0..v_{n-1} pairwise distinct, and every v_n equals one of them;
    uses variables v0..vn, so varBound must be at least n+1.
    """
    if n < 1:
        raise VariableBudgetError("psi requires n >= 1")
    if lang.var_bound < n + 1:
        raise VariableBudgetError(
            f"psi({n}) needs varBound >= {n + 1}, language has {lang.var_bound}"
        )
    distinct = big_and(
        lang,
        [not_(eq(i, j)) for i in range(n) for j in range(n) if i != j],
    )
    cover = big_or(lang, [eq(n, i) for i in range(n)])
    body = and_(distinct, forall(n, cover))
    for v in range(n - 1, -1, -1):
        body = exists(v, body)
    return body


def characteristic_formula(lang: Language, assignment: Sequence[bool]) -> Formula:
    """Conjunction of literals pinning a truth assignment (sentential)."""
    consts = lang.constants
    if len(consts) != len(assignment):
        raise LanguageError("assignment length does not match constant count")
    lits = [atom(c) if v else not_(atom(c)) for c, v in zip(consts, assignment)]
    return big_and(lang, lits)


def dnf_of_assignments(lang: Language, assignments: Iterable[Sequence[bool]]) -> Formula:
    """Canonical DNF: disjunction of characteristic conjunctions, lex order."""
    rows = sorted(tuple(bool(v) for v in a) for a in assignments)
    return big_or(lang, [characteristic_formula(lang, a) for a in rows])


def all_assignments(lang: Language) -> Iterator[tuple[bool, ...]]:
    """All truth assignments over the language's constants, lexicographic."""
    return itertools.product((False, True), repeat=len(lang.constants))
