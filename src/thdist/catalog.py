"""Catalog files: languages, theories, certificates and network
declarations in one s-expression document, one declaration per form.

    (policy :size-cap 4 :rank-cap 3 :var-cap 6)
    (language BIN (R 2) :vars 3)
    (theory Posets :over BIN :axioms "(forall v0 (R v0 v0))" ...)
    (certificate :kind axiom-add :from Empty :to Posets
                 :axiom "(and ...)" :status declared)
    (network AX :equiv logical :step axiom :mode symmetric :nodes Empty Posets)

Certificate payloads by kind: axiom-add takes :axiom, collapse :phi/:psi,
concept-remove and theorem-remove :formula and optional :extra-model
(0/1 bits in alphabetical constant order), defeq :tr12/:tr21, faithful
:tr. Translation specs are ((SYM "formula over the target") ...); omitted
symbols translate to themselves. :bound pins a per-certificate size bound,
:status declared|asserted (default declared), :name labels the record.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import CatalogError, FormulaSyntaxError, LanguageError, ThdistError
from .network import (
    NETWORK_KINDS,
    ClusterNetwork,
    DistanceResult,
    _with_lower_bound,
    build_network,
    directed_step_distance,
    step_distance,
)
from .relations import (
    ASSERTED,
    CERT_KINDS,
    DECLARED,
    REFUTED,
    CertStatus,
    EdgeCertificate,
    verify_certificate,
)
from .semantics import Theory
from .sexpr import SAtom, SList, SString, read_all
from .syntax import Formula, Language, parse_formula
from .translation import Translation


class Policy(NamedTuple):
    """Catalog-wide caps: verification size bound K, maximal symbol rank,
    maximal variable bound. Model sizes have one cap, `semantics.MAX_SIZE`."""

    size_cap: int = 4
    rank_cap: int = 3
    var_cap: int = 6

    def caps(self) -> None:
        """Nothing: `perfbench/worker.py` still passes this to
        `verify_certificate`, which ignores it."""
        return None


class NetworkDecl(NamedTuple):
    name: str
    equiv: str  # logical | defeq
    step: str  # axiom | concept | faithful
    mode: str  # symmetric | directed
    nodes: tuple[str, ...]


class Catalog:
    __slots__ = ("source", "policy", "languages", "theories", "certificates", "networks")

    def __init__(
        self,
        source: str,
        policy: Policy = Policy(),
        languages: dict[str, Language] | None = None,
        theories: dict[str, Theory] | None = None,
        certificates: list[EdgeCertificate] | None = None,
        networks: dict[str, NetworkDecl] | None = None,
    ) -> None:
        self.source, self.policy = source, policy
        self.languages = {} if languages is None else languages
        self.theories = {} if theories is None else theories
        self.certificates = [] if certificates is None else certificates
        self.networks = {} if networks is None else networks

    def theory(self, name: str) -> Theory:
        if name not in self.theories:
            raise CatalogError(f"unknown theory {name!r} in {self.source}")
        return self.theories[name]

    def network_decl(self, name: str) -> NetworkDecl:
        if name not in self.networks:
            raise CatalogError(f"unknown network {name!r} in {self.source}")
        return self.networks[name]


def _err(node, message: str) -> CatalogError:
    return CatalogError(message, getattr(node, "line", 0), getattr(node, "column", 0))


def _name_of(node) -> str:
    if not isinstance(node, SAtom):
        raise _err(node, "expected a name")
    return node.text


def _keywords(items, allowed: tuple[str, ...]) -> dict[str, list]:
    """The values after each :keyword; a keyword outside `allowed` is an
    error at its own position, never silently dropped."""
    out: dict[str, list] = {}
    key = None
    for item in items:
        if isinstance(item, SAtom) and item.text.startswith(":"):
            key = item.text[1:]
            if key not in allowed:
                raise _err(item, f"unknown keyword {item.text}")
            out.setdefault(key, [])
        elif key is None:
            raise _err(item, "expected a :keyword")
        else:
            out[key].append(item)
    return out


def _one(kw: dict, key: str, node, required: bool = True):
    values = kw.get(key, [])
    if not values:
        if required:
            raise _err(node, f"missing :{key}")
        return None
    if len(values) > 1:
        raise _err(node, f"duplicate :{key}")
    return values[0]


def _string(node) -> str:
    if isinstance(node, SString):
        return node.value
    raise _err(node, "expected a quoted string")


def _int(node) -> int:
    if isinstance(node, SAtom):
        try:
            return int(node.text)
        except ValueError:
            pass
    raise _err(node, "expected an integer")


def _parse_language(form: SList, catalog: Catalog) -> None:
    if len(form) < 2:
        raise _err(form, "language needs a name")
    name = _name_of(form[1])
    symbols: dict[str, int] = {}
    rest = list(form.items[2:])
    var_bound = 0
    i = 0
    while i < len(rest):
        node = rest[i]
        if isinstance(node, SAtom) and node.text == ":vars":
            if i + 1 >= len(rest):
                raise _err(node, ":vars needs a number")
            var_bound = _int(rest[i + 1])
            i += 2
            continue
        if isinstance(node, SList) and len(node) == 2:
            sym = _name_of(node[0])
            rank = _int(node[1])
            if sym in symbols:
                raise _err(node, f"duplicate symbol {sym}")
            symbols[sym] = rank
            i += 1
            continue
        if isinstance(node, SAtom) and node.text.startswith(":"):
            raise _err(node, f"unknown keyword {node.text}")
        raise _err(node, "expected (SYMBOL RANK) or :vars N")
    policy = catalog.policy
    if var_bound > policy.var_cap:
        raise _err(form, f"varBound {var_bound} exceeds policy var-cap {policy.var_cap}")
    for sym, rank in symbols.items():
        if rank > policy.rank_cap:
            raise _err(form, f"rank of {sym} exceeds policy rank-cap {policy.rank_cap}")
    try:
        lang = Language.make(name, symbols, var_bound)
    except LanguageError as exc:
        raise _err(form, str(exc))
    if name in catalog.languages:
        raise _err(form, f"duplicate language {name}")
    catalog.languages[name] = lang


def _parse_theory(form: SList, catalog: Catalog) -> None:
    if len(form) < 2:
        raise _err(form, "theory needs a name")
    name = _name_of(form[1])
    kw = _keywords(form.items[2:], ("over", "axioms"))
    lang_node = _one(kw, "over", form)
    lang_name = _name_of(lang_node)
    if lang_name not in catalog.languages:
        raise _err(lang_node, f"unknown language {lang_name!r}")
    lang = catalog.languages[lang_name]
    axioms = []
    for node in kw.get("axioms", []):
        text = _string(node)
        try:
            axioms.append(parse_formula(text, lang))
        except (FormulaSyntaxError, LanguageError) as exc:
            raise _err(node, f"bad axiom: {exc}")
    if name in catalog.theories:
        raise _err(form, f"duplicate theory {name}")
    catalog.theories[name] = Theory(name, lang, axioms)


def _parse_translation_spec(node, source: Language, target: Language) -> Translation:
    if not isinstance(node, SList):
        raise _err(node, "translation spec is ((SYM \"formula\") ...)")
    images: dict[str, Formula] = {}
    for pair in node.items:
        if not (isinstance(pair, SList) and len(pair) == 2):
            raise _err(pair, "translation entry is (SYM \"formula\")")
        sym = _name_of(pair[0])
        try:
            images[sym] = parse_formula(_string(pair[1]), target)
        except (FormulaSyntaxError, LanguageError) as exc:
            raise _err(pair, f"bad image: {exc}")
    try:
        return Translation.make(source, target, images)
    except LanguageError as exc:
        raise _err(node, str(exc))


_CERTIFICATE_KEYWORDS = (
    "kind", "from", "to", "status", "name", "bound",
    "axiom", "phi", "psi", "formula", "symbol", "extra-model", "tr12", "tr21", "tr",
)


def _parse_certificate(form: SList, catalog: Catalog, index: int) -> None:
    kw = _keywords(form.items[1:], _CERTIFICATE_KEYWORDS)
    kind = _name_of(_one(kw, "kind", form))
    if kind not in CERT_KINDS:
        raise _err(form, f"unknown certificate kind {kind!r}")
    src_name = _name_of(_one(kw, "from", form))
    dst_name = _name_of(_one(kw, "to", form))
    for n in (src_name, dst_name):
        if n not in catalog.theories:
            raise _err(form, f"unknown theory {n!r}")
    source = catalog.theories[src_name]
    target = catalog.theories[dst_name]
    status_node = _one(kw, "status", form, required=False)
    status = _name_of(status_node) if status_node else DECLARED
    if status not in (DECLARED, ASSERTED):
        raise _err(status_node, "status is declared or asserted")
    name_node = _one(kw, "name", form, required=False)
    bound_node = _one(kw, "bound", form, required=False)
    bound = None if bound_node is None else _int(bound_node)
    if bound is not None and bound < 1:  # a bound of 0 would answer vacuously
        raise _err(bound_node, f"a certificate bound is at least 1, got {bound}")
    cert = EdgeCertificate(
        kind,
        src_name,
        dst_name,
        name=_name_of(name_node) if name_node else f"c{index}",
        bound_override=bound,
        status=CertStatus(status),
    )

    def formula_field(key: str, lang: Language) -> Formula | None:
        node = _one(kw, key, form, required=False)
        if node is None:
            return None
        try:
            return parse_formula(_string(node), lang)
        except (FormulaSyntaxError, LanguageError) as exc:
            raise _err(node, f"bad :{key}: {exc}")

    if kind in ("axiom-add", "collapse") and not source.lang.same_formulas(target.lang):
        raise _err(form, f"{kind} keeps the language fixed")
    cert.axiom = formula_field("axiom", source.lang)
    cert.phi = formula_field("phi", source.lang)
    cert.psi = formula_field("psi", source.lang)
    cert.formula = formula_field("formula", source.lang)
    symbol_node = _one(kw, "symbol", form, required=False)
    if symbol_node is not None:
        cert.symbol = _name_of(symbol_node)
    extra_node = _one(kw, "extra-model", form, required=False)
    if extra_node is not None:
        if not isinstance(extra_node, SList):
            raise _err(extra_node, ":extra-model is a list of 0/1 bits")
        bits = tuple(bool(_int(b)) for b in extra_node.items)
        if len(bits) != len(source.lang.constants):
            raise _err(
                extra_node,
                f"expected {len(source.lang.constants)} bits for "
                f"{source.lang.name}'s constants",
            )
        cert.extra_assignment = bits
    tr12_node = _one(kw, "tr12", form, required=False)
    if tr12_node is not None:
        cert.tr12 = _parse_translation_spec(tr12_node, source.lang, target.lang)
    tr21_node = _one(kw, "tr21", form, required=False)
    if tr21_node is not None:
        cert.tr21 = _parse_translation_spec(tr21_node, target.lang, source.lang)
    tr_node = _one(kw, "tr", form, required=False)
    if tr_node is not None:
        cert.tr = _parse_translation_spec(tr_node, source.lang, target.lang)
    catalog.certificates.append(cert)


def _parse_network(form: SList, catalog: Catalog) -> None:
    if len(form) < 2:
        raise _err(form, "network needs a name")
    name = _name_of(form[1])
    kw = _keywords(form.items[2:], ("equiv", "step", "mode", "nodes"))
    equiv = _name_of(_one(kw, "equiv", form))
    step = _name_of(_one(kw, "step", form))
    mode_node = _one(kw, "mode", form, required=False)
    mode = _name_of(mode_node) if mode_node else "symmetric"
    if equiv not in NETWORK_KINDS["equiv"]:
        raise _err(form, "equiv is logical or defeq")
    if step not in NETWORK_KINDS["step"]:
        raise _err(form, "step is axiom, concept or faithful")
    if mode not in NETWORK_KINDS["mode"]:
        raise _err(form, "mode is symmetric or directed")
    nodes = tuple(_name_of(n) for n in kw.get("nodes", []))
    for n in nodes:
        if n not in catalog.theories:
            raise _err(form, f"unknown theory {n!r} in network {name}")
    if name in catalog.networks:
        raise _err(form, f"duplicate network {name}")
    catalog.networks[name] = NetworkDecl(name, equiv, step, mode, nodes)


def _parse_policy(form: SList, catalog: Catalog) -> None:
    kw = _keywords(form.items[1:], ("size-cap", "rank-cap", "var-cap"))
    def get(key: str, default: int, low: int) -> int:
        node = _one(kw, key, form, required=False)
        if node is None:
            return default
        value = _int(node)
        if value < low:  # a size cap of 0 would verify nothing
            raise _err(node, f":{key} is at least {low}, got {value}")
        return value

    catalog.policy = Policy(
        size_cap=get("size-cap", 4, 1),
        rank_cap=get("rank-cap", 3, 0),
        var_cap=get("var-cap", 6, 0),
    )


def loads_catalog(text: str, source: str = "<string>") -> Catalog:
    catalog = Catalog(source)
    forms = read_all(text)
    # policy first so language validation sees it, wherever it is written
    for form in forms:
        if isinstance(form, SList) and form.items and isinstance(form[0], SAtom) \
                and form[0].text == "policy":
            _parse_policy(form, catalog)
    index = 0
    for form in forms:
        if not isinstance(form, SList) or not form.items:
            raise _err(form, "top-level declarations are lists")
        head = form[0]
        if not isinstance(head, SAtom):
            raise _err(form, "expected a declaration keyword")
        if head.text == "policy":
            continue
        if head.text == "language":
            _parse_language(form, catalog)
        elif head.text == "theory":
            _parse_theory(form, catalog)
        elif head.text == "certificate":
            _parse_certificate(form, catalog, index)
            index += 1
        elif head.text == "network":
            _parse_network(form, catalog)
        else:
            raise _err(form, f"unknown declaration {head.text!r}")
    return catalog


def load_catalog(path: str | Path) -> Catalog:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path} is not UTF-8 text: {exc}") from None
    return loads_catalog(text, str(path))


def shipped_catalog_text() -> str:
    """Text of the built-in worked-example catalog, installed beside this
    module as package data (`importlib.resources` would load `inspect`)."""
    return (Path(__file__).with_name("data") / "paper_examples.cat").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Verification and distance entry points

class VerificationReport:
    __slots__ = ("entries", "errors")

    def __init__(self) -> None:
        self.entries: list[tuple[EdgeCertificate, CertStatus]] = []
        self.errors: list[tuple[EdgeCertificate, str]] = []

    @property
    def refuted(self) -> list[EdgeCertificate]:
        return [c for c, s in self.entries if s.state == REFUTED]

    def grouped(self) -> dict[str, list[str]]:
        groups: dict[str, list[str]] = {}
        for cert, status in self.entries:
            groups.setdefault(status.state, []).append(cert.label())
        for cert, message in self.errors:
            groups.setdefault("error", []).append(f"{cert.label()}: {message}")
        return groups

    def to_json(self) -> dict:
        return {
            "certificates": [
                {
                    "name": cert.label(),
                    "kind": cert.kind,
                    "from": cert.source,
                    "to": cert.target,
                    "status": status.to_json(),
                }
                for cert, status in self.entries
            ],
            "errors": [
                {"name": cert.label(), "message": message}
                for cert, message in self.errors
            ],
            "summary": {k: len(v) for k, v in self.grouped().items()},
        }


def verify_all(catalog: Catalog, bound: int | None = None) -> VerificationReport:
    """Verify every certificate to its strongest achievable status."""
    report = VerificationReport()
    k = catalog.policy.size_cap if bound is None else bound
    for cert in catalog.certificates:
        try:
            status = verify_certificate(cert, catalog.theories, k)
            report.entries.append((cert, status))
        except ThdistError as exc:
            report.errors.append((cert, str(exc)))
    return report


def catalog_network(catalog: Catalog, name: str, directed: bool = False) -> ClusterNetwork:
    decl = catalog.network_decl(name)
    mode = "directed" if (directed or decl.mode == "directed") else "symmetric"
    theories = {n: catalog.theories[n] for n in decl.nodes}
    return build_network(
        decl.name,
        theories,
        catalog.certificates,
        decl.equiv,
        decl.step,
        mode,
        catalog.policy.size_cap,
    )


def catalog_distance(
    catalog: Catalog,
    net_name: str,
    a: str,
    b: str,
    directed: bool = False,
) -> DistanceResult:
    """Distance query on a declared network, under its declared
    equivalence; symmetric concept networks attach the spectrum lower
    bounds of conceptual distance."""
    net = catalog_network(catalog, net_name, directed=directed)
    if net.mode == "directed":
        return directed_step_distance(net, a, b)
    result = step_distance(net, a, b)
    if catalog.network_decl(net_name).step != "concept":
        return result
    policy = catalog.policy
    return _with_lower_bound(
        result, catalog.theories[a], catalog.theories[b], policy.size_cap, policy.rank_cap
    )
