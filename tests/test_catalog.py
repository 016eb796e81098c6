from __future__ import annotations

import json

import pytest

from thdist.cache import DiskProfileStore
from thdist.catalog import (
    catalog_distance,
    catalog_network,
    load_catalog,
    loads_catalog,
    verify_all,
)
from thdist.errors import CatalogError, FormulaSyntaxError
from thdist.network import export_dot, export_json
from thdist.semantics import clear_memory_caches, set_profile_store, spectrum


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


def test_bad_axiom_reports_position():
    with pytest.raises(CatalogError):
        loads_catalog('(language L (P 0) :vars 0)\n(theory T :over L :axioms "(and P")')


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


def test_deterministic_reports(examples_catalog):
    from thdist.paper_suite import shipped_catalog_text

    text = shipped_catalog_text()
    first = json.dumps(verify_all(loads_catalog(text)).to_json(), sort_keys=True)
    second = json.dumps(verify_all(loads_catalog(text)).to_json(), sort_keys=True)
    assert first == second


def test_cache_transparency(tmp_path):
    from thdist.paper_suite import shipped_catalog_text

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


def test_stale_cache_version_ignored(tmp_path):
    store = DiskProfileStore(tmp_path, version="old")
    store.put("a" * 64, 2, {"count": 1, "models": []})
    fresh = DiskProfileStore(tmp_path, version="new")
    assert fresh.get("a" * 64, 2) is None
    assert store.get("a" * 64, 2) is not None
    # a record of the current version in another model-list format (or in
    # none, as older releases wrote) is stale too
    (path,) = tmp_path.rglob("a*.2.json")
    plain = {k: v for k, v in json.loads(path.read_text()).items() if k != "format"}
    for stale in (plain, dict(plain, format="tuple-form-order")):
        path.write_text(json.dumps(stale))
        assert store.get("a" * 64, 2) is None


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


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "tiny.cat"
    path.write_text('(language L (P 0) :vars 0)\n(theory T :over L :axioms "P")\n')
    cat = load_catalog(path)
    assert "T" in cat.theories and cat.source.endswith("tiny.cat")
