"""Translations between languages and their homomorphic application.

A translation is determined by where it sends each relation symbol applied
to the canonical variable tuple (v0..v_{rank-1}). Equalities are fixed and
the map commutes with conjunction, negation and existential quantification;
the extension to non-canonical atoms goes through Tarski's substitution
chain and is recomputed on every application, never stored.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import LanguageError, VariableBudgetError
from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Formula,
    Language,
    Not,
    and_,
    atom,
    eq,
    exists,
    free_variables,
    not_,
    or_,
    validate_formula,
)


class Translation(NamedTuple):
    source: Language
    target: Language
    basic: tuple[tuple[str, Formula], ...]  # image of each canonical source atom

    @staticmethod
    def make(
        source: Language,
        target: Language,
        basic: Mapping[str, Formula] | None = None,
    ) -> "Translation":
        """Build a translation; unlisted symbols map to themselves.

        Identity images require the target to carry the same symbol at the
        same rank. The basic map must end up total on source symbols. An
        image may be free only in variables of the source, so that the
        source can say that one past its symbol's rank does not matter.
        """
        given = dict(basic or {})
        images: dict[str, Formula] = {}
        for sym, rank in source.symbols:
            if sym in given:
                images[sym] = given.pop(sym)
            elif target.has(sym) and target.rank(sym) == rank:
                images[sym] = atom(sym, tuple(range(rank)))
            else:
                raise LanguageError(
                    f"translation from {source.name} lacks an image for {sym}"
                )
        if given:
            raise LanguageError(f"images for symbols not in {source.name}: {sorted(given)}")
        for sym, image in images.items():
            validate_formula(image, target)
            past = [j for j in free_variables(image) if j >= source.var_bound]
            if past:
                raise LanguageError(
                    f"image of {sym} is free in v{min(past)}, past the varBound "
                    f"{source.var_bound} of {source.name}"
                )
        return Translation(source, target, tuple(sorted(images.items())))

    def image(self, sym: str) -> Formula:
        for s, f in self.basic:
            if s == sym:
                return f
        raise LanguageError(f"no image for symbol {sym!r}")


def identity_translation(source: Language, target: Language) -> Translation:
    if not target.includes(source):
        raise LanguageError(
            f"identity translation needs {target.name} to include {source.name}"
        )
    return Translation.make(source, target)


def _substitution_chain(tr: Translation, f: Atom) -> Formula:
    """Tarski's substitution chain for a non-canonical atom.

    Fresh variables y_t = v_{l+1+t} with l = max(0..m-1, i_1..i_m) first save
    the actual arguments, then the canonical variables are loaded from them
    around the stored image of the canonical atom.
    """
    m = len(f.args)
    l = max(max(f.args), m - 1)
    ys = [l + 1 + t for t in range(m)]
    if ys[-1] >= tr.target.var_bound:
        raise VariableBudgetError(
            f"substitution chain for {f!r} needs variable v{ys[-1]}, "
            f"target varBound is {tr.target.var_bound}"
        )
    body = tr.image(f.sym)
    for t in range(m - 1, -1, -1):
        body = exists(t, and_(eq(t, ys[t]), body))
    for t in range(m - 1, -1, -1):
        body = exists(ys[t], and_(eq(ys[t], f.args[t]), body))
    return body


def apply_translation(tr: Translation, phi: Formula) -> Formula:
    """Homomorphic image of `phi` under `tr`.

    Equalities are fixed; canonical atoms take their stored image; other
    atoms are rewritten through the substitution chain.
    """
    validate_formula(phi, tr.source)
    memo: dict[int, Formula] = {}

    def go(f: Formula) -> Formula:
        cached = memo.get(f.uid)
        if cached is not None:
            return cached
        if isinstance(f, Eq):
            out = f
        elif isinstance(f, Atom):
            if f.args == tuple(range(len(f.args))):
                out = tr.image(f.sym)
            else:
                out = _substitution_chain(tr, f)
        elif isinstance(f, And):
            out = and_(go(f.lhs), go(f.rhs))
        elif isinstance(f, Not):
            out = not_(go(f.sub))
        else:
            assert isinstance(f, Exists)
            if f.var >= tr.target.var_bound:
                raise VariableBudgetError(
                    f"quantified variable v{f.var} exceeds target varBound"
                )
            out = exists(f.var, go(f.sub))
        memo[f.uid] = out
        return out

    try:
        result = go(phi)
    finally:
        go = None  # go references itself: break the cycle
    validate_formula(result, tr.target)
    return result


class Pairing(NamedTuple):
    """One symbol coding two: the combined formula and both translations."""

    psi: Formula
    b_language: Language
    tr_from_b: Translation  # B-atom to its definition over the R,S language
    tr_to_b: Translation  # R and S recovered from B


def make_pairing(lang: Language, r: str, s: str, b: str) -> Pairing:
    """Pair relations `r` and `s` of `lang` into one fresh relation `b`.

    With n = rank(r), m = rank(s) and l = max(n, m) + 2, the combined
    relation holds of (v0..v_{l-1}) when either r holds and the last two
    coordinates agree, or s holds and they differ. Recovering r (resp. s)
    quantifies the last coordinate with the matching (dis)equality. The
    recovery of s is only sound on universes of size >= 2.
    """
    if r == s:
        raise LanguageError("pairing needs two distinct symbols")
    n, m = lang.rank(r), lang.rank(s)
    l = max(n, m) + 2
    if lang.var_bound < l:
        raise VariableBudgetError(
            f"pairing {r}/{n} with {s}/{m} needs varBound >= {l}"
        )
    if lang.has(b):
        raise LanguageError(f"symbol {b!r} is not fresh")
    b_lang = lang.without_symbols([r, s]).with_symbol(b, l, name=f"{lang.name}|{b}")
    psi = or_(
        and_(atom(r, tuple(range(n))), eq(l - 2, l - 1)),
        and_(atom(s, tuple(range(m))), not_(eq(l - 2, l - 1))),
    )
    b_args = tuple(range(l))
    tr_from_b = Translation.make(b_lang, lang, {b: psi})
    tr_to_b = Translation.make(
        lang,
        b_lang,
        {
            r: exists(l - 1, and_(atom(b, b_args), eq(l - 2, l - 1))),
            s: exists(l - 1, and_(atom(b, b_args), not_(eq(l - 2, l - 1)))),
        },
    )
    return Pairing(psi, b_lang, tr_from_b, tr_to_b)
