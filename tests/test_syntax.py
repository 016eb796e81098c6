from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from thdist.catalog import loads_catalog, shipped_catalog_text
from thdist.errors import CatalogError, FormulaSyntaxError, LanguageError, VariableBudgetError
from thdist.semantics import FiniteModel, is_true
from thdist.syntax import (
    Exists,
    Language,
    and_,
    atom,
    big_and,
    big_or,
    eq,
    exists,
    false_formula,
    first_basic_formula,
    forall,
    iff,
    implies,
    make_psi_n,
    not_,
    or_,
    parse_formula,
    print_formula,
    subformulas,
    true_formula,
    validate_formula,
)
from thdist.sexpr import SAtom, SList, SString, read_all, read_one


BIN = Language.make("Bin", {"R": 2}, 3)
PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)


def test_language_invariants():
    with pytest.raises(LanguageError):
        Language.make("bad", {"R": 2}, 1)  # rank 2 needs varBound >= 2
    with pytest.raises(LanguageError):
        Language.make("bad", {"R": 1}, 0)  # sentential admits only rank 0
    with pytest.raises(LanguageError):
        Language.make("bad", {"not": 0}, 0)  # keyword as symbol name
    with pytest.raises(LanguageError):
        Language.make("bad", {"v7": 0}, 0)  # variable-shaped symbol name
    lang = Language.make("ok", {"P": 0, "R": 2}, 2)
    assert lang.rank_bound == 3 and lang.constants == ("P",)


def test_parse_basic_atoms():
    f = parse_formula("(exists v0 (R v0 v1))", BIN)
    assert isinstance(f, Exists) and f.var == 0
    assert f.sub is atom("R", (0, 1))


def test_forall_desugars_per_abbreviation_table():
    f = parse_formula("(forall v0 (not (= v0 v1)))", BIN)
    assert f is not_(exists(0, not_(not_(eq(0, 1)))))


def test_arity_mismatch_and_unknown_symbol():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(R v0)", BIN)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(S v0 v1)", BIN)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(R v0 v5)", BIN)  # variable bound
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(and P", PQ)
    assert err.value.line == 1


# R binary, P a constant, variables v0..v2
MIXED = Language.make("Mixed", {"R": 2, "P": 0}, 3)


@pytest.mark.parametrize("text, message, column", [
    ('"R"', "strings are not formulas", 1),
    ("v0", "bare variable is not a formula", 1),
    ("exists", "misplaced keyword 'exists'", 1),
    ("S", "unknown symbol 'S'", 1),
    ("R", "arity mismatch: R has rank 2", 1),
    ("()", "empty form", 1),
    ("((R v0 v1))", "expected an operator or symbol", 1),
    ("(= v0)", "= takes two variables", 1),
    ("(not P P)", "not takes one formula", 1),
    ("(iff P)", "iff takes two formulas", 1),
    ("(exists v0)", "exists takes a variable and a formula", 1),
    ("(false)", "false is written bare", 1),
    ("(S v0)", "unknown symbol 'S'", 2),
    ("(P v0)", "rank-0 atom P is written bare", 1),
    ("(R v0 v1 v2)", "arity mismatch: R has rank 2, got 3 arguments", 1),
    ("(= (v0) v1)", "expected a variable", 4),
    ("(forall x P)", "expected a variable, got 'x'", 9),
    ("(R v0 v3)", "variable v3 exceeds varBound 3", 7),
])
def test_formula_syntax_errors_name_the_node(text, message, column):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text, MIXED)
    assert str(err.value) == f"{message} (at 1:{column})"


@pytest.mark.parametrize("phi, message", [
    (atom("S", (0,)), "unknown symbol 'S' in language Mixed"),
    (atom("R", (0,)), "arity mismatch: R has rank 2, got 1 arguments"),
    (atom("R", (0, 3)), "variable index >= varBound 3"),
    (not_(eq(3, 0)), "variable index >= varBound 3"),
    (exists(4, atom("P")), "variable index >= varBound 3"),
])
def test_validate_formula_refuses_what_the_language_lacks(phi, message):
    with pytest.raises(LanguageError) as err:
        validate_formula(phi, MIXED)
    assert str(err.value) == message


def test_bare_rank0_atoms():
    assert parse_formula("P", PQ) is atom("P")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(P)", PQ)


def test_sugar_definitions_match_the_abbreviations():
    a, b = atom("P"), atom("Q")
    assert or_(a, b) is not_(and_(not_(a), not_(b)))
    assert implies(a, b) is not_(and_(a, not_(b)))
    assert iff(a, b) is and_(implies(a, b), implies(b, a))
    assert parse_formula("(implies P Q)", PQ) is implies(a, b)
    assert parse_formula("(iff P Q)", PQ) is iff(a, b)


def test_empty_conjunction_and_disjunction_convention():
    # the written convention: empty disjunction = phi and not phi,
    # empty conjunction = phi or not phi, phi the first basic formula
    phi = first_basic_formula(PQ)
    assert phi is atom("P")  # alphabetically first constant
    assert false_formula(PQ) is and_(phi, not_(phi))
    assert true_formula(PQ) is or_(phi, not_(phi))
    assert parse_formula("true", PQ) is true_formula(PQ)
    assert parse_formula("false", PQ) is false_formula(PQ)
    assert parse_formula("(and)", PQ) is true_formula(PQ)
    assert parse_formula("(or)", PQ) is false_formula(PQ)
    assert first_basic_formula(BIN) is eq(0, 0)
    with pytest.raises(LanguageError):
        first_basic_formula(Language.make("empty", {}, 0))


def test_grouped_connectives_left_associate():
    f = parse_formula("(and P Q P)", PQ)
    assert f is and_(and_(atom("P"), atom("Q")), atom("P"))


def test_print_examples():
    assert print_formula(eq(0, 1)) == "(= v0 v1)"
    assert print_formula(atom("R", (0, 1))) == "(R v0 v1)"
    assert print_formula(atom("P")) == "P"


def _formulas(lang: Language):
    if lang.is_sentential:
        base = st.sampled_from([atom(c) for c in lang.constants])
    else:
        variables = st.integers(0, lang.var_bound - 1)
        eqs = st.builds(eq, variables, variables)
        atoms = st.builds(
            lambda *args: atom("R", args),
            *([variables] * lang.rank("R")),
        )
        base = st.one_of(eqs, atoms)

    def extend(children):
        grown = [
            st.builds(and_, children, children),
            st.builds(not_, children),
            st.builds(or_, children, children),
            st.builds(implies, children, children),
        ]
        if not lang.is_sentential:
            variables = st.integers(0, lang.var_bound - 1)
            grown.append(st.builds(exists, variables, children))
            grown.append(st.builds(forall, variables, children))
        return st.one_of(*grown)

    return st.recursive(base, extend, max_leaves=12)


@given(_formulas(BIN))
def test_parse_print_round_trip_first_order(f):
    validate_formula(f, BIN)
    assert parse_formula(print_formula(f), BIN) is f


@given(_formulas(PQ))
def test_parse_print_round_trip_sentential(f):
    assert parse_formula(print_formula(f), PQ) is f


def test_subformulas_children_before_parents():
    f = and_(atom("P"), not_(atom("Q")))
    subs = subformulas(f)
    assert subs.index(atom("P")) < subs.index(f)
    assert subs.index(atom("Q")) < subs.index(not_(atom("Q")))


PURE6 = Language.make("Pure6", {}, 6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_psi_true_exactly_at_size(n, k):
    psi = make_psi_n(n, PURE6)
    model = FiniteModel(PURE6, k, {})
    assert is_true(model, psi) == (k == n)


def test_psi_preconditions():
    with pytest.raises(VariableBudgetError):
        make_psi_n(0, PURE6)
    with pytest.raises(VariableBudgetError):
        make_psi_n(6, PURE6)  # needs v6


def test_big_and_or_empty_need_language_with_formulas():
    assert big_and(BIN, []) is true_formula(BIN)
    assert big_or(BIN, []) is false_formula(BIN)


# (reader, text, message, line, column): every position the reader reports
_BAD_SOURCES = [
    ("read_all", "(a (b c)", "missing ')'", 1, 1),
    ("read_all", "(a b))", "unexpected ')'", 1, 6),
    ("read_all", ")", "unexpected ')'", 1, 1),
    ("read_all", '(x\n "abc', "unterminated string", 2, 2),
    ("read_all", "(a\r\n (b", "missing ')'", 2, 2),
    ("read_all", "(a\r\n b))", "unexpected ')'", 2, 4),
    ("read_one", "", "unexpected end of input", 1, 1),
    ("read_one", "  ; only a comment", "unexpected end of input", 1, 19),
    ("read_one", "(a", "missing ')'", 1, 1),
    ("read_one", "a)", "unexpected trailing tokens", 1, 2),
    ("read_one", "(a) (b)", "unexpected trailing tokens", 1, 5),
    ("read_one", "a ; comment\n b", "unexpected trailing tokens", 2, 2),
    ("read_one", '"abc', "unterminated string", 1, 1),
    ("read_one", '"abc\\', "unterminated string", 1, 1),
    ("read_one", '"ab\\"', "unterminated string", 1, 1),
    ("read_one", '"a\\n\\t\\"\\\\b" x', "unexpected trailing tokens", 1, 14),
    ("read_one", '"line\nbreak" x', "unexpected trailing tokens", 2, 8),
    ("read_one", "a\r\n  b", "unexpected trailing tokens", 2, 3),
    ("read_one", 'a "unterminated', "unexpected trailing tokens", 1, 3),
    ("read_one", "a )", "unexpected trailing tokens", 1, 3),
    ("parse_formula", "(R v0 v1", "missing ')'", 1, 1),
    ("parse_formula", "(R v0 v1))", "unexpected trailing tokens", 1, 10),
    ("parse_formula", '(and\r\n  (R v0 v1) "s")', "strings are not formulas", 2, 13),
    ("parse_formula", "(R v0 v1) (R v1 v0)", "unexpected trailing tokens", 1, 11),
    ("parse_formula", '"P', "unterminated string", 1, 1),
    ("parse_formula", "", "unexpected end of input", 1, 1),
    ("loads_catalog", "(language L (P 0) :vars 0\n", "missing ')'", 1, 1),
    ("loads_catalog", "(language L (P 0) :vars 0))", "unexpected ')'", 1, 27),
    ("loads_catalog", '(language L (P 0) :vars 0)\r\n(theory T :over L :axioms "P\\',
     "unterminated string", 2, 27),
    ("loads_catalog", '(language L (P 0) :vars 0)\r\n(theory T :over L :axioms "(and P" )',
     "bad axiom: missing ')' (at 1:1)", 2, 27),
    ("loads_catalog", "x ; comment at end", "top-level declarations are lists", 1, 1),
]

_READERS = {
    "read_all": read_all,
    "read_one": read_one,
    "parse_formula": lambda text: parse_formula(text, BIN),
    "loads_catalog": loads_catalog,
}


@pytest.mark.parametrize("reader, text, message, line, column", _BAD_SOURCES)
def test_reader_error_positions(reader, text, message, line, column):
    with pytest.raises((FormulaSyntaxError, CatalogError)) as err:
        _READERS[reader](text)
    assert str(err.value) == f"{message} (at {line}:{column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_reader_strings_comments_and_blanks():
    node = read_one('"a\\n\\t\\"\\\\b\\q"')
    assert node == SString('a\n\t"\\bq', 1, 1)
    [form] = read_all("(a) ; comment at end")
    assert (form.items, form.line, form.column) == ((SAtom("a", 1, 2),), 1, 1)
    assert read_one("\r\n\xa0a") == SAtom("a", 2, 2)  # any Unicode blank separates
    assert read_one("a\x0cb") == SAtom("a\x0cb", 1, 1)  # only the listed delimiters end atoms
    assert read_all("") == [] and read_all(" ; nothing\n") == []
    assert list(loads_catalog("(language L (P 0) :vars 0) ; comment at end").languages) == ["L"]


def test_slist_length_and_indexing():
    form = read_one("(R v0 v1)")
    assert isinstance(form, SList) and len(form) == 3 and len(read_one("()")) == 0
    assert form[0] == SAtom("R", 1, 2) and form[-1] == SAtom("v1", 1, 7)
    assert [n.text for n in form[1:]] == ["v0", "v1"]
    assert form.items == (form[0], form[1], form[2])
    with pytest.raises(IndexError):
        form[3]


def _node_rows(node):
    text = getattr(node, "text", getattr(node, "value", None))
    yield (type(node).__name__, text, node.line, node.column)
    if isinstance(node, SList):
        for child in node.items:
            yield from _node_rows(child)


def test_shipped_catalog_nodes_pinned():
    rows = [row for form in read_all(shipped_catalog_text()) for row in _node_rows(form)]
    assert len(rows) == 742
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8a283339ee8612b59bf8082246527a07ab5afce0a1c7422103040971f622eb30"
    )


def test_languages_built_apart_are_equal_values():
    a = Language.make("L", {"R": 2, "P": 0}, 3)
    b = Language.make("L", [("P", 0), ("R", 2)], 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Language.make("L", {"R": 2, "P": 0}, 4)
    assert a != Language.make("M", {"R": 2, "P": 0}, 3)
