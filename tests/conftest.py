from __future__ import annotations

import pytest

from thdist.catalog import loads_catalog, shipped_catalog_text, verify_all
from thdist.syntax import Language


@pytest.fixture(scope="session")
def examples_catalog():
    cat = loads_catalog(shipped_catalog_text(), "paper_examples.cat")
    report = verify_all(cat)
    assert not report.errors, report.grouped()
    assert not report.refuted, report.grouped()
    return cat


@pytest.fixture
def bin_lang():
    return Language.make("Bin", {"R": 2}, 3)


@pytest.fixture
def sent2_lang():
    return Language.make("PQ", {"P": 0, "Q": 0}, 0)
