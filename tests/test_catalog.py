from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random

import pytest

from thdist import cache, semantics
from thdist.cache import DiskProfileStore
from thdist.catalog import (
    catalog_distance,
    catalog_network,
    load_catalog,
    loads_catalog,
    shipped_catalog_text,
    verify_all,
)
from thdist.errors import CatalogError, FormulaSyntaxError, ThdistError
from thdist.relations import CERT_KINDS, verify_certificate
from thdist.network import (
    check_amalgamation,
    classify_ad,
    export_dot,
    export_json,
    sentential_cd_solve,
)
from thdist.semantics import (
    clear_memory_caches,
    enumerate_models,
    enumeration_feasible,
    model_to_json,
    set_profile_store,
    spectrum,
    Theory,
    theory_from_sat,
)
from thdist.syntax import Language


def test_shipped_catalog_contents(examples_catalog):
    cat = examples_catalog
    assert len(cat.theories) >= 12
    for name in ("TStar0", "TStar4", "Posets", "Eqrels", "SentBot", "FourT1"):
        assert name in cat.theories
    assert cat.policy.size_cap == 4


def test_shipped_catalog_statuses(examples_catalog):
    report = verify_all(examples_catalog)
    groups = report.grouped()
    assert set(groups) <= {"verified-exact", "verified-bounded", "asserted"}
    assert "kin-defeq" in groups["asserted"]
    assert "strict-defeq" in groups["verified-bounded"]


def test_empty_catalog_is_valid():
    cat = loads_catalog("")
    assert not cat.theories and not cat.networks


def test_parse_error_reports_location():
    with pytest.raises((CatalogError, FormulaSyntaxError)) as err:
        loads_catalog("(language L :vars 0\n")
    assert err.value.line >= 1


def test_dangling_reference_named():
    with pytest.raises(CatalogError) as err:
        loads_catalog('(theory T :over Missing)')
    assert "Missing" in str(err.value)
    with pytest.raises(CatalogError) as err:
        loads_catalog(
            '(language L (P 0) :vars 0)\n(theory T :over L)\n'
            '(network N :equiv logical :step axiom :nodes T Ghost)'
        )
    assert "Ghost" in str(err.value)


def test_policy_violations():
    with pytest.raises(CatalogError):
        loads_catalog("(policy :var-cap 2)\n(language L :vars 5)")
    with pytest.raises(CatalogError):
        loads_catalog("(policy :rank-cap 1)\n(language L (R 2) :vars 3)")


def test_policy_caps_at_their_least_value():
    cat = loads_catalog("(policy :size-cap 1 :rank-cap 0 :var-cap 0)\n" + PREFIX)
    assert tuple(cat.policy) == (1, 0, 0)


@pytest.mark.parametrize(
    "decl, message",
    [
        (":equiv Logical :step axiom", "equiv is logical or defeq"),
        (":equiv logical :step axioms", "step is axiom, concept or faithful"),
        (":equiv logical :step axiom :mode Directed", "mode is symmetric or directed"),
    ],
)
def test_network_declaration_checked_against_the_kind_table(decl, message):
    text = f'(language L (P 0) :vars 0)\n(theory T :over L)\n(network N {decl} :nodes T)\n'
    with pytest.raises(CatalogError, match=message):
        loads_catalog(text)


def test_bad_axiom_reports_position():
    with pytest.raises(CatalogError):
        loads_catalog('(language L (P 0) :vars 0)\n(theory T :over L :axioms "(and P")')


# the form under test sits on line 4, after two theories over two constants
PREFIX = '(language L (P 0) (Q 0) :vars 0)\n(theory A :over L)\n(theory B :over L :axioms "P")\n'


@pytest.mark.parametrize(
    "form, message, column",
    [
        # declarations, names and keywords
        ("(language)", "language needs a name", 1),
        ("(theory)", "theory needs a name", 1),
        ("(network)", "network needs a name", 1),
        ('("theory" C :over L)', "expected a declaration keyword", 1),
        ("(axiom P)", "unknown declaration 'axiom'", 1),
        ("(language (M))", "expected a name", 11),
        ("(theory C L)", "expected a :keyword", 11),
        ("(theory C)", "missing :over", 1),
        ("(theory C :over L :over L)", "duplicate :over", 1),
        ("(theory C :over L :axioms P)", "expected a quoted string", 27),
        # a misspelt keyword is refused where it stands, in every form
        ("(language M (P 0) :var 0)", "unknown keyword :var", 19),
        ('(theory C :over L :axiom "P")', "unknown keyword :axiom", 19),
        (
            "(certificate :kind equiv :from A :to B :stauts asserted)",
            "unknown keyword :stauts",
            40,
        ),
        ("(network N :equiv logical :step axiom :mdoe directed)", "unknown keyword :mdoe", 39),
        ("(policy :sizecap 9)", "unknown keyword :sizecap", 9),
        # a size cap of 0 would verify nothing, sentential certificates included
        ("(policy :size-cap 0)", ":size-cap is at least 1, got 0", 19),
        ("(policy :size-cap -3)", ":size-cap is at least 1, got -3", 19),
        ("(policy :rank-cap -1)", ":rank-cap is at least 0, got -1", 19),
        ("(policy :size-cap 2 :var-cap -1)", ":var-cap is at least 0, got -1", 30),
        # languages
        ("(language M :vars)", ":vars needs a number", 13),
        ("(language M :vars two)", "expected an integer", 19),
        ("(language M (R))", "expected (SYMBOL RANK) or :vars N", 13),
        ("(language M (R 1) (R 2) :vars 2)", "duplicate symbol R", 19),
        ("(language M (R 1))", "rankBound 2 exceeds varBound+1 = 1", 1),
        ("(language L :vars 1)", "duplicate language L", 1),
        # theories and networks
        ("(theory A :over L)", "duplicate theory A", 1),
        (
            "(network N :equiv logical :step axiom) (network N :equiv logical :step axiom)",
            "duplicate network N",
            40,
        ),
        # certificates
        ("(certificate :kind teleport :from A :to B)", "unknown certificate kind 'teleport'", 1),
        ("(certificate :kind axiom-add :from A :to Nope)", "unknown theory 'Nope'", 1),
        (
            "(certificate :kind axiom-add :from A :to B :status proven)",
            "status is declared or asserted",
            52,
        ),
        (
            '(certificate :kind axiom-add :from A :to B :axiom "(and P")',
            "bad :axiom: missing ')' (at 1:1)",
            51,
        ),
        (
            "(language M (P 0) :vars 0) (theory C :over M)"
            " (certificate :kind collapse :from A :to C)",
            "collapse keeps the language fixed",
            47,
        ),
        (
            '(certificate :kind concept-remove :from B :to A :formula "P" :extra-model 1)',
            ":extra-model is a list of 0/1 bits",
            75,
        ),
        (
            '(certificate :kind concept-remove :from B :to A :formula "P" :extra-model (1))',
            "expected 2 bits for L's constants",
            75,
        ),
        # a bound below 1 would answer vacuously or not at all
        ("(certificate :kind equiv :from A :to B :bound 0)", "a certificate bound is at least 1, got 0", 47),
        ("(certificate :kind equiv :from A :to B :bound -1)", "a certificate bound is at least 1, got -1", 47),
        # translation specs
        (
            "(certificate :kind defeq :from A :to B :tr12 P)",
            'translation spec is ((SYM "formula") ...)',
            46,
        ),
        (
            "(certificate :kind faithful :from A :to B :tr ((P)))",
            'translation entry is (SYM "formula")',
            48,
        ),
        (
            '(certificate :kind faithful :from A :to B :tr ((P "(and")))',
            "bad image: missing ')' (at 1:1)",
            48,
        ),
        (
            '(certificate :kind faithful :from A :to B :tr ((Z "P")))',
            "images for symbols not in L: ['Z']",
            47,
        ),
    ],
)
def test_malformed_catalog_names_the_offending_form(form, message, column):
    with pytest.raises(CatalogError) as err:
        loads_catalog(PREFIX + form)
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value) == f"{message} (at 4:{column})"


def test_unknown_network_named():
    with pytest.raises(CatalogError) as err:
        loads_catalog(PREFIX).network_decl("N")
    assert str(err.value) == "unknown network 'N' in <string>"


def test_deliberately_wrong_axiom_add_refuted():
    text = (
        '(language L (P 0) (Q 0) :vars 0)\n'
        '(theory A :over L :axioms "P")\n'
        '(theory B :over L :axioms "Q")\n'
        '(certificate :kind axiom-add :from A :to B :axiom "Q")\n'
    )
    cat = loads_catalog(text)
    report = verify_all(cat)
    assert len(report.refuted) == 1
    status = report.entries[0][1]
    assert status.state == "refuted" and status.witness is not None


def test_verify_all_at_bound_zero_verifies_nothing():
    # a library bound of 0 is not read as "the catalog's size cap"
    report = verify_all(loads_catalog(PREFIX + "(certificate :kind equiv :from A :to A)"), 0)
    assert report.entries == []
    assert [msg for _, msg in report.errors] == ["verification infeasible even at size 1"]


def test_verify_all_leaves_no_closure_cycles():
    # the evaluator and the translator build no reference cycles, so a
    # cold pass leaves nothing for the cyclic collector
    gc.collect()
    clear_memory_caches()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        verify_all(loads_catalog(shipped_catalog_text()))
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_deterministic_reports(examples_catalog):
    text = shipped_catalog_text()
    first = json.dumps(verify_all(loads_catalog(text)).to_json(), sort_keys=True)
    second = json.dumps(verify_all(loads_catalog(text)).to_json(), sort_keys=True)
    assert first == second


def test_cache_transparency(tmp_path):
    cat = loads_catalog(shipped_catalog_text())
    posets = cat.theory("Posets")
    clear_memory_caches()
    set_profile_store(None)
    cold = [spectrum(posets, k) for k in (1, 2, 3)]
    store = DiskProfileStore(tmp_path)
    clear_memory_caches()
    set_profile_store(store)
    try:
        warm_write = [spectrum(posets, k) for k in (1, 2, 3)]
        clear_memory_caches()
        warm_read = [spectrum(posets, k) for k in (1, 2, 3)]
    finally:
        set_profile_store(None)
        clear_memory_caches()
    assert cold == warm_write == warm_read == [1, 2, 5]
    assert list(tmp_path.rglob("*.json"))


def test_activate_cache_follows_the_environment(tmp_path, monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    assert cache.activate_cache() is None
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "cache"))
    posets = loads_catalog(shipped_catalog_text()).theory("Posets")
    clear_memory_caches()
    try:
        store = cache.activate_cache()
        assert isinstance(store, DiskProfileStore) and store.root == tmp_path / "cache"
        assert spectrum(posets, 3) == 5
        assert store.get(posets.key, 3)["count"] == 5
    finally:
        set_profile_store(None)
        clear_memory_caches()


def test_stale_cache_version_ignored(tmp_path, monkeypatch):
    store = DiskProfileStore(tmp_path)
    monkeypatch.setattr(cache, "__version__", "old")
    store.put("a" * 64, 2, {"count": 1, "models": []})
    monkeypatch.setattr(cache, "__version__", "new")
    assert store.get("a" * 64, 2) is None
    monkeypatch.setattr(cache, "__version__", "old")
    assert store.get("a" * 64, 2) is not None
    # a record of the current version in another model-list format (or in
    # none, as older releases wrote) is stale too
    path = store._path("a" * 64, 2)
    plain = {k: v for k, v in json.loads(path.read_text()).items() if k != "format"}
    for stale in (
        plain,
        dict(plain, format="tuple-form-order"),
        dict(plain, format="canonical-code-order"),  # lists of model JSON
    ):
        path.write_text(json.dumps(stale))
        assert store.get("a" * 64, 2) is None
    # a current record is served only if its codes are ints below 2**width
    # (9 bits for Posets at size 3) in strictly ascending order; any other
    # is recomputed, and the result equals a cacheless run
    posets = loads_catalog(shipped_catalog_text()).theory("Posets")
    clear_memory_caches()
    set_profile_store(None)
    cacheless = enumerate_models(posets, 3)
    codes = [m.code for m in cacheless]
    store = DiskProfileStore(tmp_path / "codes")
    try:
        for bad in (
            [0, 1 << 9], [-1, 0], [0, "1"], [0, 1.5], [True], [3, 1], [1, 1], "01",
        ):
            store.put(posets.key, 3, {"count": len(bad), "codes": bad})
            clear_memory_caches()
            set_profile_store(store)
            assert enumerate_models(posets, 3) == cacheless
            assert store.get(posets.key, 3)["codes"] == codes
            set_profile_store(None)
        # so is a record that is valid JSON but no object
        record = store._path(posets.key, 3)
        for text in ("[1, 2]", "null", "3", '"x"'):
            record.write_text(text)
            clear_memory_caches()
            set_profile_store(store)
            assert enumerate_models(posets, 3) == cacheless
            assert store.get(posets.key, 3)["codes"] == codes
            set_profile_store(None)
        # a valid record is served as it stands
        store.put(posets.key, 3, {"count": 1, "codes": codes[:1]})
        clear_memory_caches()
        set_profile_store(store)
        assert enumerate_models(posets, 3) == cacheless[:1]
    finally:
        set_profile_store(None)
        clear_memory_caches()


def test_cache_record_of_another_theory_is_a_miss(tmp_path):
    # records are named by a CRC-32 of the theory's text; on a collision the
    # text they carry tells them apart. Eqrels' record at Posets' path would
    # be served (same signature, valid codes) if the text were not checked.
    catalog = loads_catalog(shipped_catalog_text())
    posets, eqrels = catalog.theory("Posets"), catalog.theory("Eqrels")
    assert posets.lang.symbols == eqrels.lang.symbols
    clear_memory_caches()
    set_profile_store(None)
    cacheless = enumerate_models(posets, 3)
    store = DiskProfileStore(tmp_path)
    try:
        set_profile_store(store)
        assert enumerate_models(eqrels, 3) != cacheless
        target = store._path(posets.key, 3)
        target.parent.mkdir(parents=True, exist_ok=True)
        store._path(eqrels.key, 3).replace(target)
        assert store.get(posets.key, 3) is None
        clear_memory_caches()
        assert enumerate_models(posets, 3) == cacheless
        assert store.get(posets.key, 3)["codes"] == [m.code for m in cacheless]
    finally:
        set_profile_store(None)
        clear_memory_caches()


def test_cache_record_of_posets_is_served_to_posets_leq(tmp_path):
    # Posets over R and PosetsLeq over leq share one canonical text, so the
    # record written while enumerating one serves the other, relabelled
    catalog = loads_catalog(shipped_catalog_text())
    posets, leq = catalog.theory("Posets"), catalog.theory("PosetsLeq")
    assert posets.key == leq.key and posets.lang.symbols != leq.lang.symbols
    store, puts = DiskProfileStore(tmp_path), []
    real_put = store.put
    store.put = lambda *a: puts.append(a) or real_put(*a)
    clear_memory_caches()
    set_profile_store(store)
    try:
        enumerate_models(posets, 3)
        clear_memory_caches()
        models = enumerate_models(leq, 3)
    finally:
        set_profile_store(None)
        clear_memory_caches()
    assert [(key, k) for key, k, _ in puts] == [(posets.key, 3)]
    assert [model_to_json(m) for m in models] == [
        model_to_json(m) for m in enumerate_models(leq, 3)
    ]
    assert all(set(json.loads(model_to_json(m))["interp"]) == {"leq"} for m in models)


def test_kin_embed_reuses_the_reducts_of_kin_ether(monkeypatch):
    # the identity's induced structures are the reducts that kin-ether's
    # conservativity check has already canonicalised
    catalog = loads_catalog(shipped_catalog_text())
    cert = {c.name: c for c in catalog.certificates}
    clear_memory_caches()
    cold = verify_certificate(cert["kin-embed"], catalog.theories, 3)
    clear_memory_caches()
    verify_certificate(cert["kin-ether"], catalog.theories, 3)
    calls, real = [], semantics._least_codes_of
    monkeypatch.setattr(semantics, "_least_codes_of", lambda *a: calls.append(a) or real(*a))
    assert verify_certificate(cert["kin-embed"], catalog.theories, 3) == cold
    assert calls == []
    assert semantics._induced_memo
    clear_memory_caches()
    assert not semantics._induced_memo


def test_catalog_network_and_exports(examples_catalog):
    net = catalog_network(examples_catalog, "Ladder")
    assert len(net.edges) == 4
    dot = export_dot(net)
    assert "concept-add" in dot
    data = export_json(net)
    assert set(data["nodes"]) == {f"TStar{i}" for i in range(5)}


def test_catalog_distance_concept_network_attaches_bounds(examples_catalog):
    res = catalog_distance(examples_catalog, "Ladder", "TStar1", "TStar3")
    assert res.value.to_json() == 2
    assert res.lower_bound is not None and res.lower_bound.kind == "growth-certificate"


_PQ_CONCEPT = (
    '(language P1 (P 0) :vars 0)\n(language Q1 (Q 0) :vars 0)\n'
    '(theory TP :over P1 :axioms "P")\n(theory TQ :over Q1 :axioms "Q")\n'
    '(certificate :name pq :kind defeq :from TP :to TQ :tr12 ((P "Q")) :tr21 ((Q "P")))\n'
    '(network N :equiv {} :step concept :nodes TP TQ)\n'
)


@pytest.mark.parametrize("equiv, distance, kind", [
    ("logical", "infinity", "exhausted-search"), ("defeq", 0, "none"),
])
def test_concept_network_distance_keeps_its_declared_equivalence(equiv, distance, kind):
    # a defeq certificate is no edge of a network whose equivalence is logical
    cat = loads_catalog(_PQ_CONCEPT.format(equiv))
    edges = [e["certificate"] for e in export_json(catalog_network(cat, "N"))["edges"]]
    assert edges == (["pq"] if equiv == "defeq" else [])
    res = catalog_distance(cat, "N", "TP", "TQ")
    assert res.value.to_json() == distance and res.lower_bound.kind == kind
    directed = catalog_distance(cat, "N", "TP", "TQ", directed=True)
    assert directed.value.to_json() == distance
    if distance == "infinity":
        # the spectra bound it by 0 only: the exhausted search's infinity
        # stands, in both modes
        assert res.lower_bound == directed.lower_bound


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "tiny.cat"
    path.write_text('(language L (P 0) :vars 0)\n(theory T :over L :axioms "P")\n')
    cat = load_catalog(path)
    assert "T" in cat.theories and cat.source.endswith("tiny.cat")


# Model lists of every shipped theory at each size <= 4 that the caps
# allow: the spectrum, then the sha256 of json.dumps({k: [model_to_json]}).
_PINNED_MODEL_LISTS = {
    "TStar0": ((1, 1, 1, 1), "e08e1ba9208e19e76465dec5d289e60a6410fa975291d9154a25b1bc7bd9a7d7"),
    "TStar1": ((2, 2, 2, 2), "a6c239db6d9b9cfb186675b8cfc092cc9e6faf72c1576ac5d0f2bc28075ebc34"),
    "TStar2": ((4, 4, 4, 4), "ba788d5c0a0330e173d27a0a88f5b10db9e67c0ebe269c895f1019bbec2e394e"),
    "TStar3": ((8, 8, 8, 8), "b7c4bd57a664e8dc6b08296567aa1d2c838f3d43f086a7272472f9ade0496562"),
    "TStar4": ((16, 16, 16, 16), "47c28b5c6fcefc881e4c41927bddc74fc595958760dee10a744ff8ec3f899d54"),
    "SentFree": ((4, 4, 4, 4), "5ac51d23ae226a107706c66da56689eda641ff086c5b2d5051c062cfaede799b"),
    "SentP": ((2, 2, 2, 2), "a4f0a05d6ed677b48a05a5b65fc5e267636b42785cef4f42a83ee6d0e04b8b78"),
    "SentPQ": ((1, 1, 1, 1), "6cd40720197dbd59b96de770d8cda7aab3e6c49db7f9877b612fabb9b20ae4fa"),
    "SentPandQ": ((1, 1, 1, 1), "6cd40720197dbd59b96de770d8cda7aab3e6c49db7f9877b612fabb9b20ae4fa"),
    "SentBot": ((0, 0, 0, 0), "c032d39da4e14f52bec844a7fb9f4b67c97a62abb530e33af1f835c3cefb7902"),
    "SentPeqQ": ((2, 2, 2, 2), "888be0cbc4f92e4786342912e36733b9e11a7b9385ec41b7285bdc8c8fa1ff7e"),
    "SentCoin": ((2, 2, 2, 2), "888be0cbc4f92e4786342912e36733b9e11a7b9385ec41b7285bdc8c8fa1ff7e"),
    "BinEmpty": ((2, 10, 104, 3044), "9b230e614fe2699e4e396ca311e32d31e17fd62c805cb5a9186c136ad88f390c"),
    "Posets": ((1, 2, 5, 16), "8b2acd1c3bec0dd040fcfa58ecfe575f596b6a3dfd801d27989f24624dda1832"),
    "Eqrels": ((1, 2, 3, 5), "eb30dbe31a9f0c7ec563ff6aa26c098cf735f6dae45f5031112a8a3f6fd18627"),
    "BinBot": ((0, 0, 0, 0), "c032d39da4e14f52bec844a7fb9f4b67c97a62abb530e33af1f835c3cefb7902"),
    "PosetsLeq": ((1, 2, 5, 16), "a17460dc92fddb22a4d74910b3ea184db119e681cee5010fae11db7065ddc9c4"),
    "PosetsLt": ((1, 2, 5, 16), "ff939667152a06c478c03ef93c79dd649e0677ce2a593f90fde001ab261aed0f"),
    "FourT1": ((4, 4, 4, 4), "fa7689317127a6cc67529ef5cb8f9246b6c5d4d8f4dde106a15b2c0998b70961"),
    "FourMid": ((8, 8, 8, 8), "f9ccc297312e07f945547eb181637eec7abf091d0611aa5d029a0ca6001e0164"),
    "FourT2": ((16, 16, 16, 16), "04fd094d744495c80f0e50cc0cec775ecca66fc626eaabd6ed719b7782ccbcd2"),
    "FourMinus": ((4, 4, 4, 4), "35f81615f6c79c544e89b34eb78acea389e8ed645f966518ed36aa7c049eea60"),
    "PureTwo": ((0, 1, 0, 0), "7e99e48fc7c92f0365a685577b0dc2b7edce9cb15896d61023cd83fb53cf3096"),
    "PureThree": ((0, 0, 1, 0), "cf2444958baf3c52069b8e8bb225d22228d592fdb056c8ff0e3eeecacdc15b23"),
    "KinBase": ((2, 26, 648, 42916), "aec919aa95e794a93c7dbb71c06a75082a33a1cb81e58dc1f8642b9ad81f1f5a"),
    "KinExt": ((2, 31, 976), "f745448caf2d2a362ebd0ef542007c5f30402e9ea341b0709b0bad15dbffbda6"),
    "KinTarget": ((4, 100, 4976), "a462404802eb63a159eb6abc44049d90a75186922fe281693d04412d7b1901a1"),
}


def test_shipped_model_lists_pinned():
    cat = loads_catalog(shipped_catalog_text())
    got = {}
    for name, theory in cat.theories.items():
        lists = {
            k: [model_to_json(m) for m in enumerate_models(theory, k)]
            for k in range(1, 5)
            if enumeration_feasible(theory, k)
        }
        digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
        got[name] = (tuple(len(v) for v in lists.values()), digest)
    assert got == _PINNED_MODEL_LISTS


def _network_answers() -> dict:
    """The network layer's answers on the shipped catalog and on seeded
    sentential theories, as JSON-ready data keyed by query."""

    def answer(fn, *args, **kw):
        try:
            return fn(*args, **kw).to_json()
        except ThdistError as exc:
            return ["error", type(exc).__name__, str(exc)]

    cat = loads_catalog(shipped_catalog_text())
    out: dict = {}
    for name, decl in cat.networks.items():
        for directed in (False, True):
            for a in decl.nodes:
                for b in decl.nodes:
                    out[f"dist {name} {a} {b} {directed}"] = answer(
                        catalog_distance, cat, name, a, b, directed=directed
                    )
            net = catalog_network(cat, name, directed=directed)
            out[f"export {name} {directed}"] = [export_json(net), export_dot(net)]
    for name in ("BinAx", "SentAx", "SentAxDir"):
        theories = {n: cat.theory(n) for n in cat.network_decl(name).nodes}
        certs = [c for c in cat.certificates if c.source in theories and c.target in theories]
        out[f"amalgamation {name}"] = check_amalgamation(theories, certs).to_json()
        for a in theories:
            for b in theories:
                out[f"classify {name} {a} {b}"] = answer(
                    classify_ad, theories, a, b, certs, cat.policy.size_cap,
                    amalgamation="verified",
                )

    langs = [Language.make(f"K{m}", {f"C{i}": 0 for i in range(m)}, 0) for m in range(4)]
    rows = [list(itertools.product((False, True), repeat=m)) for m in range(4)]

    def theory(name: str, m: int, mask: int):
        if m == 0:  # the empty language writes no formula: only its free theory
            return Theory.make(name, langs[0], [])
        return theory_from_sat(name, langs[m], [r for i, r in enumerate(rows[m]) if mask >> i & 1])

    rng = random.Random(1807)
    for i in range(120):
        m = 2 + i % 2
        masks: list[int] = []
        for _ in range(rng.randint(2, 6)):
            mask = rng.randrange(1 << (1 << m))
            if masks and rng.random() < 0.5:  # a sub- or superset of an earlier node
                other = rng.choice(masks)
                mask = mask & other if rng.random() < 0.5 else mask | other
            masks.append(mask)
        nodes = {f"n{j}": theory(f"n{j}", m, mask) for j, mask in enumerate(masks)}
        out[f"random amalgamation {i}"] = check_amalgamation(nodes).to_json()

    def solve(t1, t2):
        res = sentential_cd_solve(t1, t2)
        return [res.to_json(), [[c.label(), c.status.state] for c in res.certificates]]

    for m in range(4):
        for mask in range(m == 0, 1 << (1 << m)):
            t = theory("t", m, mask)
            out[f"solve {m} {mask}"] = solve(t, t)
    pairs = 0
    while pairs < 400:
        m1, m2 = rng.randrange(4), rng.randrange(4)
        mask1, mask2 = rng.randrange(1 << (1 << m1)), rng.randrange(1 << (1 << m2))
        if m2 == 0 < m1 and mask1.bit_count() == 1:
            # the pinned code raised on a one-model theory against the empty
            # language in this order; test_network pins the answer it has now
            continue
        out[f"random solve {pairs}"] = solve(theory("a", m1, mask1), theory("b", m2, mask2))
        pairs += 1
    return out


# sha256 of json.dumps(_network_answers(), sort_keys=True). First computed
# at commit aac54c9, where check_amalgamation ran its decider on two mirrored
# lambda pairs, sentential_cd_solve searched step counts with a while loop
# and lower_bound_certificates scanned two spectrum tables twice. Recomputed
# when the arrow matrix began to read axiom_add_exists: the only answer that
# moved is "amalgamation BinAx", whose undecided_pairs went from seven
# first-order pairs to [], each refuted by a countermodel of size 1 or 2
_PINNED_NETWORK_ANSWERS = "5ab6fee6b71a3a781aad9f4640f53333dbe1624b9f1774a30d8ab070786e6137"


def test_shipped_network_answers_pinned():
    text = json.dumps(_network_answers(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_NETWORK_ANSWERS



def _certificate_statuses() -> dict:
    """verify_all's JSON on the shipped catalog and on seeded catalogs that
    draw every certificate kind, declared or asserted, with its payload
    present or missing, keyed by catalog."""
    rng = random.Random(1807_01501)
    langs = {
        "L2": ("A", "B"), "L3": ("A", "B", "C"), "M2": ("X", "Y"), "M3": ("X", "Y", "Z"),
    }

    def formula(consts, depth=2) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(consts)
        op = rng.choice(("not", "and", "or", "implies", "iff"))
        if op == "not":
            return f"(not {formula(consts, depth - 1)})"
        return f"({op} {formula(consts, depth - 1)} {formula(consts, depth - 1)})"

    def translation(src, dst) -> str:
        return "(" + " ".join(f'({c} "{formula(langs[dst], 1)}")' for c in langs[src]) + ")"

    def catalog(i: int) -> str:
        lines = [f"(policy :size-cap {rng.randint(1, 4)} :rank-cap 3 :var-cap 6)"]
        lines += [f"(language {n} {' '.join(f'({c} 0)' for c in cs)} :vars 0)"
                  for n, cs in langs.items()]
        theories: dict[str, tuple[str, str]] = {}  # name -> (language, one axiom)

        def theory(name: str, lang: str, axiom: str) -> str:
            theories[name] = (lang, axiom)
            lines.append(f'(theory {name} :over {lang} :axioms "{axiom}")')
            return name

        for j in range(rng.randint(3, 6)):
            lang = rng.choice(("L2", "L3", "M2", "M3") if i % 2 else ("L2", "L3"))
            c = langs[lang][0]
            axiom = formula(langs[lang]) if rng.random() < 0.8 else f"(or {c} (not {c}))"
            theory(f"t{j}", lang, f"(and {c} (not {c}))" if rng.random() < 0.1 else axiom)
        names = list(theories)
        for j in range(rng.randint(4, 9)):
            kind = rng.choice(CERT_KINDS)
            src, dst = rng.choice(names), rng.choice(names)
            lang, axiom = theories[src]
            consts = langs[lang]
            row = [rng.randint(0, 1) for _ in consts]
            char = "(and " + " ".join(c if b else f"(not {c})" for c, b in zip(consts, row)) + ")"
            phi = axiom if rng.random() < 0.4 else formula(consts)
            if kind in ("axiom-add", "collapse", "concept-remove", "theorem-remove"):
                dst = rng.choice([n for n in names if theories[n][0] == lang])
            if kind.endswith("remove") and rng.random() < 0.5:
                # a target shaped like one of the removals: Sat(T) plus a
                # row, the row alone, or Sat(T) minus phi
                shape = rng.choice((f"(or {axiom} {char})", char, f"(and {axiom} (not {phi}))"))
                dst = theory(f"r{j}", lang, shape)
            if kind == "concept-add" and lang[1] == "2" and rng.random() < 0.7:
                grown = lang[0] + "3"  # the same axiom over one more constant
                extra = rng.choice(("", langs[grown][2], f"(iff {langs[grown][2]} {consts[0]})"))
                dst = theory(f"g{j}", grown, f"(and {axiom} {extra})" if extra else axiom)
            parts = [f"(certificate :name k{j} :kind {kind} :from {src} :to {dst}"]
            if rng.random() < 0.4:
                parts.append(":status asserted")
            if rng.random() < 0.3:
                parts.append(f":bound {rng.randint(1, 4)}")
            if rng.random() < 0.75:  # the payload each kind reads
                if kind == "axiom-add":
                    parts.append(f':axiom "{formula(consts)}"')
                elif kind == "collapse":
                    parts.append(f':phi "{formula(consts)}" :psi "{formula(consts)}"')
                elif kind in ("concept-remove", "theorem-remove"):
                    parts.append(f':formula "{phi}"')
                    if rng.random() < 0.5:
                        parts.append(f":extra-model ({' '.join(map(str, row))})")
                elif kind == "defeq":
                    parts.append(f":tr12 {translation(lang, theories[dst][0])}")
                    parts.append(f":tr21 {translation(theories[dst][0], lang)}")
                elif kind == "faithful":
                    parts.append(f":tr {translation(lang, theories[dst][0])}")
                elif kind == "concept-add":
                    parts.append(f":symbol {rng.choice(('C', 'Z', 'A'))}")
            lines.append(" ".join(parts) + ")")
        return "\n".join(lines)

    # a ternary symbol caps out at size 3, so bounded checks stop at 2;
    # one variable tells no size apart, so conservativity stays undecided
    tern = """
(language Tern (T 3) :vars 3)
(theory Diag :over Tern :axioms "(forall v0 (T v0 v0 v0))")
(theory Diag2 :over Tern :axioms "(not (exists v0 (not (T v0 v0 v0))))")
(theory TernFree :over Tern)
(certificate :name tern-equiv :kind equiv :from Diag :to Diag2)
(certificate :name tern-add :kind axiom-add :from TernFree :to Diag
             :axiom "(forall v0 (T v0 v0 v0))")
(certificate :name tern-defeq :kind defeq :from Diag :to Diag2 :tr12 () :tr21 ())
(certificate :name tern-faithful :kind faithful :from Diag2 :to Diag :tr () :bound 3)
(language Tern2 (T 3) (U 1) :vars 3)
(theory DiagU :over Tern2 :axioms "(forall v0 (T v0 v0 v0))")
(certificate :name tern-concept :kind concept-add :from Diag :to DiagU)
(language U1 (U 1) :vars 1)
(language UV1 (U 1) (V 1) :vars 1)
(theory Ufree :over U1)
(theory UVmeet :over UV1 :axioms "(exists v0 (and (U v0) (V v0)))")
(certificate :name one-var-concept :kind concept-add :from Ufree :to UVmeet)
"""
    first_order = "\n".join([
        shipped_catalog_text(),
        tern,
        *(
            f"(certificate :name fo-{kind}-{a}-{b}-{status} :kind {kind} :from {a} :to {b}"
            f" :status {status})"
            for kind in CERT_KINDS
            for a, b in (("Posets", "Eqrels"), ("BinEmpty", "Posets"), ("PosetsLeq", "PosetsLt"))
            for status in ("declared", "asserted")
            if kind not in ("axiom-add", "collapse") or a != "PosetsLeq"
        ),
    ])
    # 22 constants: 2^22 truth-table rows exceed the default candidate cap
    wide = " ".join(f"(C{i} 0)" for i in range(22))
    payload = {"axiom-add": ':axiom "C1"', "collapse": ':phi "C1" :psi "C0"',
               "concept-remove": ':formula "C1"', "theorem-remove": ':formula "C0"'}
    capped = "\n".join([
        f"(language Wide {wide} :vars 0)",
        '(theory w1 :over Wide :axioms "C0")',
        '(theory w2 :over Wide :axioms "(and C0 C1)")',
        "(language Two (A 0) (B 0) :vars 0)",
        '(theory s1 :over Two :axioms "A")',
        # the defeq witness reaches the wide side's rows only once it runs
        "(certificate :name wide-witness :kind defeq :from s1 :to w1)",
        *(
            f"(certificate :name wide-{kind} :kind {kind} :from w1 :to w2 "
            f"{payload.get(kind, '')})"
            for kind in CERT_KINDS
        ),
    ])
    out = {
        "shipped": verify_all(loads_catalog(shipped_catalog_text())).to_json(),
        "first-order": verify_all(loads_catalog(first_order)).to_json(),
        "capped": verify_all(loads_catalog(capped)).to_json(),
    }
    for i in range(160):
        cat = loads_catalog(catalog(i))
        out[f"seeded {i}"] = verify_all(cat, rng.choice((None, 1, 2))).to_json()
    return out


# sha256 of json.dumps(_certificate_statuses(), sort_keys=True). Every check
# runs once at the largest bound whose enumerations fit the caps, so
# tern-faithful reads verified-bounded 2 "(cap stopped at 2)": size 3 is past
# the cap for Tern. A check that backed off only when an enumeration raised
# reported bound 3 there, though no size-3 model was ever enumerated; every
# other entry is as it was at commit 0eda628
_PINNED_CERTIFICATE_STATUSES = "5a0cca28ee575bcaba8d5f2d855757b681dedc6651f771e421e094e7e89a869d"


def test_certificate_statuses_pinned():
    text = json.dumps(_certificate_statuses(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CERTIFICATE_STATUSES
