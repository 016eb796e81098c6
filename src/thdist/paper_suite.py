"""Built-in regression suite: the worked examples the framework is
calibrated against, each criterion returning a machine-readable result.

The suite leans on independent oracles where the criterion calls for one:
Floyd-Warshall on the 0-contracted graph for the metric laws, brute-force
formula enumeration for conceptual sizes, direct model evaluation for the
pairing construction.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from functools import lru_cache

from .catalog import Catalog, catalog_distance, loads_catalog, shipped_catalog_text, verify_all
from .concepts import check_defeq, check_interpretation, cz_sentential, sentential_defeq_witness
from .errors import ThdistError
from .network import (
    ClusterNetwork,
    NetEdge,
    axiomatic_distance,
    build_network,
    check_amalgamation,
    classify_ad,
    distance_matrix,
    sentential_cd_solve,
)
from .relations import axiom_add_exists
from .semantics import (
    FiniteModel,
    Theory,
    assignment_set,
    enumerate_models,
    logically_equivalent,
    sat_assignments,
    sat_of_formula,
    sat_rows,
    spectrum,
    theory_from_sat,
)
from .syntax import Language, and_, atom, not_, or_
from .translation import apply_translation, identity_translation, make_pairing


class CriterionResult:
    __slots__ = ("cid", "title", "passed", "seconds", "details")

    def __init__(self, cid: str, title: str, passed: bool, seconds: float, details: dict) -> None:
        self.cid, self.title, self.passed, self.seconds = cid, title, passed, seconds
        self.details = details

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.cid}: {self.title} ({self.seconds:.1f}s)"

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "title": self.title,
            "passed": self.passed,
            "seconds": round(self.seconds, 2),
            "details": self.details,
        }


@lru_cache(maxsize=1)
def _catalog() -> Catalog:
    cat = loads_catalog(shipped_catalog_text(), "paper_examples.cat")
    report = verify_all(cat)
    if report.errors or report.refuted:
        raise ThdistError(f"shipped catalog does not verify: {report.grouped()}")
    return cat


def _criterion(cid: str, title: str):
    def wrap(fn):
        def run() -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, details = fn()
            except ThdistError as exc:
                passed, details = False, {"error": str(exc)}
            return CriterionResult(cid, title, passed, time.perf_counter() - start, details)

        run.cid = cid
        return run

    return wrap


# ---------------------------------------------------------------------------
# A1: metric laws on random networks against a Floyd-Warshall oracle

def _random_network(rng: random.Random, index: int) -> ClusterNetwork:
    n = rng.randint(2, 40)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.append(NetEdge(nodes[a], nodes[b], 0, "equiv"))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edges.append(NetEdge(nodes[a], nodes[b], 1, "step"))
    return ClusterNetwork(f"rand{index}", "symmetric", nodes, tuple(edges))


def _oracle_matrix(net: ClusterNetwork) -> tuple[dict[str, int], list[list[float]]]:
    """Independent oracle: contract 0-edges with union-find, then run
    Floyd-Warshall on the unweighted component graph."""
    parent = {n: n for n in net.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in net.edges:
        if e.weight == 0:
            parent[find(e.a)] = find(e.b)
    comps = sorted({find(n) for n in net.nodes})
    cindex = {c: i for i, c in enumerate(comps)}
    comp_of = {n: cindex[find(n)] for n in net.nodes}
    m = len(comps)
    dist = [[math.inf] * m for _ in range(m)]
    for i in range(m):
        dist[i][i] = 0.0
    for e in net.edges:
        if e.weight == 1:
            i, j = comp_of[e.a], comp_of[e.b]
            dist[i][j] = min(dist[i][j], 1.0)
            dist[j][i] = min(dist[j][i], 1.0)
    for h in range(m):
        dh = dist[h]
        for i in range(m):
            dih = dist[i][h]
            if dih == math.inf:
                continue
            di = dist[i]
            for j in range(m):
                alt = dih + dh[j]
                if alt < di[j]:
                    di[j] = alt
    return comp_of, dist


@_criterion("A1", "step distance is a pseudo-metric and matches the FW oracle")
def a1():
    rng = random.Random(20260809)
    checked = 0
    for index in range(200):
        net = _random_network(rng, index)
        comp_of, oracle = _oracle_matrix(net)
        names = net.nodes
        results = distance_matrix(net)
        mat: dict[str, dict[str, float]] = {}
        for a in names:
            row = {}
            for b in names:
                res = results[a][b]
                value = res.value.value if res.value.is_finite else math.inf
                row[b] = value
                expected = oracle[comp_of[a]][comp_of[b]]
                if value != expected:
                    return False, {"network": index, "pair": [a, b],
                                   "got": value, "oracle": expected}
                if value < 0:
                    return False, {"network": index, "negative": [a, b]}
                if (value == 0) != (comp_of[a] == comp_of[b]):
                    return False, {"network": index, "zero-law": [a, b]}
                if res.value.is_finite and res.witness.length != value:
                    return False, {"network": index, "witness-length": [a, b]}
            mat[a] = row
        for a in names:
            for b in names:
                if mat[a][b] != mat[b][a]:
                    return False, {"network": index, "symmetry": [a, b]}
        vals = [[mat[a][b] for b in names] for a in names]
        n = len(names)
        for i in range(n):
            for j in range(n):
                vij = vals[i][j]
                for h in range(n):
                    if vals[i][h] + vals[h][j] < vij:
                        return False, {"network": index, "triangle": [i, h, j]}
        checked += 1
    return True, {"networks": checked}


# ---------------------------------------------------------------------------
# A2: the full 2-constant sentential universe matches the classification

@lru_cache(maxsize=1)
def _two_constant_universe() -> dict[str, Theory]:
    lang = Language.make("Univ2", {"P": 0, "Q": 0}, 0)
    out = {}
    for bits in range(16):
        name = f"U{bits:02d}"
        out[name] = theory_from_sat(name, lang, sat_rows(lang, bits))
    return out


@_criterion("A2", "axiomatic distance over the 2-constant universe matches {0,1,2}")
def a2():
    universe = _two_constant_universe()
    sats = {n: sat_assignments(t) for n, t in universe.items()}
    bot = [n for n, s in sats.items() if not s][0]
    amalg = check_amalgamation(universe)
    if amalg.amalgamation != "holds":
        return False, {"amalgamation": amalg.to_json()}
    mism = []
    # one language throughout, so every pair reads off one axiomatic network
    matrix = distance_matrix(build_network("axiomatic", universe))
    for a in universe:
        for b in universe:
            d = matrix[a][b]
            sa, sb = sats[a], sats[b]
            expected = 0 if sa == sb else (1 if not sa & ~sb or not sb & ~sa else 2)
            if d.value.to_json() != expected:
                mism.append((a, b, d.value.to_json(), expected))
            if sa and sb:
                c = classify_ad(universe, a, b, amalgamation="verified")
                if c.value.to_json() != expected:
                    mism.append((a, b, "classify", c.value.to_json(), expected))
    if mism:
        return False, {"mismatches": mism[:5]}
    consistent = [n for n, s in sats.items() if s]
    bot_d = [
        axiomatic_distance(universe, n, bot).value.to_json()
        for n in consistent
    ]
    if any(v != 1 for v in bot_d):
        return False, {"bottom-distances": bot_d}
    # cross-language pair reports infinity
    other = Theory.make("Alien", Language.make("Univ1", {"R": 0}, 0), [])
    cross = axiomatic_distance({**universe, "Alien": other}, "U01", "Alien")
    if cross.value.is_finite:
        return False, {"cross-language": cross.value.to_json()}
    return True, {"pairs": 256, "bottom": bot}


# ---------------------------------------------------------------------------
# A3: the conceptual ladder

@_criterion("A3", "Cd(T0*, Tn*) = n for n = 1..4 with matching growth bound")
def a3():
    cat = _catalog()
    values = {}
    for n in range(1, 5):
        res = catalog_distance(cat, "Ladder", "TStar0", f"TStar{n}")
        lb = res.lower_bound
        values[n] = {
            "distance": res.value.to_json(),
            "lower_bound": lb.bound.to_json() if lb else None,
            "status": res.status,
        }
        if res.value.to_json() != n or res.status != "exact":
            return False, values
        if lb is None or lb.kind != "growth-certificate" or lb.bound.to_json() != n:
            return False, values
        solved = sentential_cd_solve(cat.theory("TStar0"), cat.theory(f"TStar{n}"))
        if solved.distance.to_json() != n:
            return False, {"solver": solved.to_json()}
    return True, values


# ---------------------------------------------------------------------------
# A4: spectrum obstruction between pure-set theories of sizes 2 and 3

@_criterion("A4", "theories of pure sets of sizes 2 and 3 are infinitely far apart")
def a4():
    cat = _catalog()
    res = catalog_distance(cat, "PureCd", "PureTwo", "PureThree")
    ok = (
        not res.value.is_finite
        and res.lower_bound is not None
        and res.lower_bound.kind == "spectrum-obstruction"
    )
    t2, t3 = cat.theory("PureTwo"), cat.theory("PureThree")
    table = {k: (spectrum(t2, k), spectrum(t3, k)) for k in (1, 2, 3, 4)}
    ok = ok and table[2] == (1, 0) and table[3] == (0, 1)
    return ok, {"distance": res.value.to_json(),
                "evidence": res.lower_bound.to_json() if res.lower_bound else None,
                "spectra": {str(k): list(v) for k, v in table.items()}}


# ---------------------------------------------------------------------------
# A5: the one-step spectrum growth bound on every shipped concept edge

@_criterion("A5", "I(T',k) <= 2^(k^m) I(T,k) on every verified concept-add edge")
def a5():
    cat = _catalog()
    checked = []
    for cert in cat.certificates:
        if cert.kind != "concept-add" or not cert.status.verified:
            continue
        t1, t2 = cat.theory(cert.source), cat.theory(cert.target)
        rank = t2.lang.rank(cert.symbol)
        for k in (1, 2, 3):
            left = spectrum(t2, k)
            right = (1 << (k**rank)) * spectrum(t1, k)
            checked.append([cert.label(), k, left, right])
            if left > right:
                return False, {"violated": [cert.label(), k, left, right]}
    return bool(checked), {"edges": sorted({c[0] for c in checked}), "rows": len(checked)}


# ---------------------------------------------------------------------------
# A6: conceptual-size laws over the 2-constant universe

def _cz_oracle(theory: Theory, depth: int = 4) -> int:
    """Depth-bounded formula enumeration: close the constants under
    not/and/or, quotient semantically by agreement on Sat(T), count."""
    lang = theory.lang
    sat = sat_assignments(theory)

    def meaning(phi) -> int:
        return sat_of_formula(lang, phi) & sat

    layers = [[atom(c) for c in lang.constants]]
    seen = {meaning(f) for f in layers[0]}
    for _ in range(depth):
        previous = [f for layer in layers for f in layer]
        fresh = []
        for f in layers[-1]:
            cand = not_(f)
            m = meaning(cand)
            if m not in seen:
                seen.add(m)
                fresh.append(cand)
        for f in layers[-1]:
            for g in previous:
                for cand in (and_(f, g), or_(f, g)):
                    m = meaning(cand)
                    if m not in seen:
                        seen.add(m)
                        fresh.append(cand)
        layers.append(fresh)
    return len(seen)


@_criterion("A6", "Cz = 2^|Sat| against the enumeration oracle; defeq/faithful laws")
def a6():
    universe = _two_constant_universe()
    for name, theory in universe.items():
        expected = 1 << sat_assignments(theory).bit_count()
        value = cz_sentential(theory).value
        if value != expected:
            return False, {"theory": name, "cz": value, "expected": expected}
        if sat_assignments(theory):
            oracle = _cz_oracle(theory)
            if oracle != value:
                return False, {"theory": name, "cz": value, "oracle": oracle}
    # defeq-verified pairs have equal Cz
    pairs = 0
    names = sorted(universe)
    for a in names:
        for b in names:
            ta, tb = universe[a], universe[b]
            sa, sb = sat_assignments(ta), sat_assignments(tb)
            if a < b and sa and sb and sa.bit_count() == sb.bit_count():
                witness = sentential_defeq_witness(ta, tb)
                if witness is None:
                    return False, {"missing-witness": [a, b]}
                if cz_sentential(ta).value != cz_sentential(tb).value:
                    return False, {"cz-mismatch": [a, b]}
                pairs += 1
    # faithful-verified pairs satisfy monotonicity
    small_lang = Language.make("Univ1p", {"P": 0}, 0)
    small = Theory.make("SmallFree", small_lang, [])
    monotone = []
    for name in ("U15", "U09", "U05", "U03"):
        big = universe[name]
        tr = identity_translation(small_lang, big.lang)
        report = check_interpretation(tr, small, big)
        if report.verdict == "faithful":
            ok = cz_sentential(small).value <= cz_sentential(big).value
            monotone.append([name, report.verdict, ok])
            if not ok:
                return False, {"monotonicity": name}
    if not monotone:
        return False, {"monotonicity": "no faithful pair found"}
    return True, {"defeq_pairs": pairs, "faithful_pairs": monotone}


# ---------------------------------------------------------------------------
# A7: the pairing construction at ranks 1, 1

@_criterion("A7", "pairing round trips hold on sizes 2-3 and fail on size 1")
def a7():
    lang = Language.make("RS", {"R": 1, "S": 1}, 3)
    pairing = make_pairing(lang, "R", "S", "B")
    tr, trp = pairing.tr_from_b, pairing.tr_to_b
    blang = pairing.b_language
    empty_rs = Theory.make("rs-free", lang, [])

    def extend(model: FiniteModel) -> FiniteModel:
        k = model.size
        mask = assignment_set(model, pairing.psi)
        tuples = {
            t
            for i, t in enumerate(itertools.product(range(k), repeat=3))
            if mask >> i & 1
        }
        return FiniteModel(blang, k, {"B": tuples})

    r_atom, s_atom, b_atom = atom("R", (0,)), atom("S", (0,)), atom("B", (0, 1, 2))
    rt_r = apply_translation(tr, apply_translation(trp, r_atom))
    rt_s = apply_translation(tr, apply_translation(trp, s_atom))
    rt_b = apply_translation(trp, apply_translation(tr, b_atom))
    for k in (2, 3):
        for model in enumerate_models(empty_rs, k):
            if assignment_set(model, rt_r) != assignment_set(model, r_atom):
                return False, {"size": k, "trip": "R"}
            if assignment_set(model, rt_s) != assignment_set(model, s_atom):
                return False, {"size": k, "trip": "S"}
            ext = extend(model)
            if assignment_set(ext, rt_b) != assignment_set(ext, b_atom):
                return False, {"size": k, "trip": "B"}
    bad = FiniteModel(lang, 1, {"R": set(), "S": {(0,)}})
    fails = assignment_set(bad, rt_s) != assignment_set(bad, s_atom)
    if not fails:
        return False, {"size-1": "S trip unexpectedly holds"}
    return True, {"checked_sizes": [2, 3], "size_1_failure_reported": True}


# ---------------------------------------------------------------------------
# A8: partial orders vs equivalence relations

@_criterion("A8", "Ad(T_P, T_E) = 2 with size-2 countermodels on both arrows")
def a8():
    cat = _catalog()
    d = catalog_distance(cat, "BinAx", "Posets", "Eqrels")
    if d.value.to_json() != 2:
        return False, {"distance": d.value.to_json()}
    posets, eqrels = cat.theory("Posets"), cat.theory("Eqrels")
    fwd = axiom_add_exists(posets, eqrels, 4)
    bwd = axiom_add_exists(eqrels, posets, 4)
    if fwd.answer != "no" or bwd.answer != "no":
        return False, {"fwd": fwd.answer, "bwd": bwd.answer}
    if fwd.countermodel.size != 2 or bwd.countermodel.size != 2:
        return False, {"sizes": [fwd.countermodel.size, bwd.countermodel.size]}
    eq = logically_equivalent(posets, eqrels, 4)
    if eq.equivalent:
        return False, {"equivalent": True}
    path = [s.to_json() for s in d.witness.steps]
    return True, {"path": path, "countermodel_sizes": [2, 2]}


# ---------------------------------------------------------------------------
# A9: the kinematics-shaped conditional distance

@_criterion("A9", "conditional Cd = 1 through an asserted defeq edge")
def a9():
    cat = _catalog()
    res = catalog_distance(cat, "KinCd", "KinBase", "KinTarget")
    ether = next(c for c in cat.certificates if c.name == "kin-ether")
    ok = (
        res.value.to_json() == 1
        and res.status == "conditional"
        and "kin-defeq" in res.asserted_used
        and ether.status.state == "verified-bounded"
    )
    return ok, {
        "distance": res.value.to_json(),
        "status": res.status,
        "asserted": list(res.asserted_used),
        "concept_add_status": ether.status.to_json(),
    }


# ---------------------------------------------------------------------------
# A10: the four-constant asymmetry

@_criterion("A10", "bi-directed distance: forward 2, backward 1")
def a10():
    cat = _catalog()
    fwd = catalog_distance(cat, "FourDir", "FourT1", "FourT2")
    bwd = catalog_distance(cat, "FourDir", "FourT2", "FourT1")
    ok = fwd.value.to_json() == 2 and bwd.value.to_json() == 1
    return ok, {
        "forward": fwd.value.to_json(),
        "backward": bwd.value.to_json(),
        "backward_path": [s.to_json() for s in bwd.witness.steps] if bwd.witness else None,
    }


# ---------------------------------------------------------------------------
# A11: strict vs non-strict partial orders

@_criterion("A11", "strict/non-strict order defeq at bound 4, faithful each way")
def a11():
    cat = _catalog()
    cert = next(c for c in cat.certificates if c.name == "strict-defeq")
    if cert.status.state != "verified-bounded" or cert.status.bound != 4:
        return False, {"status": cert.status.to_json()}
    t1, t2 = cat.theory("PosetsLeq"), cat.theory("PosetsLt")
    rep = check_defeq(cert.tr12, cert.tr21, t1, t2, 4)
    if rep.verdict != "defeq" or rep.exact:
        return False, {"defeq": rep.verdict, "exact": rep.exact}
    f12 = check_interpretation(cert.tr12, t1, t2, 4)
    f21 = check_interpretation(cert.tr21, t2, t1, 4)
    ok = f12.verdict == "faithful" and f21.verdict == "faithful"
    return ok, {
        "defeq": rep.verdict,
        "bounded": rep.bound,
        "tr12": f12.verdict,
        "tr21": f21.verdict,
        "exactness": "bounded(4), acknowledged",
    }


ALL_CRITERIA = [a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11]


class SuiteResult:
    __slots__ = ("results",)

    def __init__(self, results: list[CriterionResult]) -> None:
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "criteria": [r.to_json() for r in self.results],
        }


def run_paper_suite(echo=None) -> SuiteResult:
    """Run every acceptance criterion; one pass/fail line per criterion."""
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return SuiteResult(results)
