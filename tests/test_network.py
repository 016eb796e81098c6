from __future__ import annotations

import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from thdist.catalog import loads_catalog, shipped_catalog_text, verify_all
from thdist.errors import LanguageError
from thdist.network import (
    INFINITY,
    _arrow_matrix,
    ClusterNetwork,
    NetEdge,
    PathStep,
    axiomatic_distance,
    bidirected_conceptual_distance,
    build_network,
    check_amalgamation,
    classify_ad,
    conceptual_distance,
    directed_step_distance,
    distance_matrix,
    distances_from,
    export_dot,
    export_json,
    faithful_interpretation_distance,
    fin,
    lower_bound_certificates,
    sentential_cd_solve,
    step_distance,
)
from thdist.relations import CertStatus, EdgeCertificate, axiom_add_exists, verify_certificate
from thdist.semantics import FiniteModel, Theory, eval_formula, theory_from_sat
from thdist.syntax import Language, big_and, parse_formula

PQ = Language.make("PQ", {"P": 0, "Q": 0}, 0)
PURE = Language.make("Pure", {}, 4)


def test_extnat_laws():
    assert fin(2) + fin(3) == fin(5)
    assert fin(2) + INFINITY == INFINITY
    assert fin(2) < INFINITY and not INFINITY < fin(2)
    assert fin(1) < fin(2) <= fin(2)
    assert INFINITY + INFINITY == INFINITY
    assert str(INFINITY) == "infinity" and INFINITY.to_json() == "infinity"


def test_extnat_total_order_and_hash():
    assert fin(3) < INFINITY and fin(3) <= INFINITY and INFINITY <= INFINITY
    assert INFINITY > fin(3) and INFINITY >= fin(3) and INFINITY >= INFINITY
    assert not INFINITY < INFINITY and not INFINITY > INFINITY and not fin(0) > fin(0)
    assert fin(0) <= fin(0) and fin(0) >= fin(0) and fin(4) > fin(3) and fin(3) <= fin(4)
    assert not fin(4) <= fin(3) and not fin(3) >= fin(4)
    assert fin(None) == INFINITY and hash(fin(None)) == hash(INFINITY)
    assert fin(2) == fin(2) and hash(fin(2)) == hash(fin(2)) and fin(2) != INFINITY
    assert fin(0) != INFINITY and len({fin(1), fin(1), INFINITY, fin(None)}) == 2
    mix = [INFINITY, fin(3), fin(0), INFINITY, fin(7), fin(3)]
    assert [v.to_json() for v in sorted(mix)] == [0, 3, 3, 7, "infinity", "infinity"]
    assert min(mix) == fin(0) and max(mix) == INFINITY


def test_net_edges_built_apart_are_equal_values():
    status = CertStatus("verified-exact", 2, note="n")
    a = NetEdge("A", "B", 1, "axiom-add", status, directed=True)
    b = NetEdge("A", "B", 1, "axiom-add", CertStatus("verified-exact", 2, None, "n"), None, True)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != NetEdge("A", "B", 1, "axiom-add", status)
    assert NetEdge("A", "B", 0, "equiv") == NetEdge("A", "B", 0, "equiv")


def _net(nodes, equiv, steps, mode="symmetric"):
    edges = [NetEdge(a, b, 0, "equiv") for a, b in equiv]
    edges += [
        NetEdge(a, b, 1, "step", directed=(mode == "directed")) for a, b in steps
    ]
    return ClusterNetwork("t", mode, tuple(nodes), tuple(edges))


def test_step_distance_tiny_example():
    net = _net("ABC", [("A", "B")], [("B", "C")])
    res = step_distance(net, "A", "C")
    assert res.value == fin(1)
    assert res.witness.bits == (0, 1)
    assert res.witness.nodes == ("A", "B", "C")


def test_discrete_distance_example():
    nodes = "WXYZ"
    steps = [(a, b) for a in nodes for b in nodes if a < b]
    net = _net(nodes, [], steps)
    for a in nodes:
        for b in nodes:
            expected = 0 if a == b else 1
            assert step_distance(net, a, b).value == fin(expected)


def test_unknown_node_errors():
    net = _net("AB", [], [])
    with pytest.raises(LanguageError):
        step_distance(net, "A", "Z")
    with pytest.raises(LanguageError):
        distances_from(net, "Z")


def _certified(a, b, weight, state, name):
    kind = "equiv" if weight == 0 else "axiom-add"
    cert = EdgeCertificate(kind, a, b, name=name, status=CertStatus(state))
    return NetEdge(a, b, weight, kind, cert.status, cert)


def test_witness_tie_break_and_per_network_memo():
    # every pair below has two equally short routes, and the asserted edge
    # is always listed first: only the adjacency order picks the witness
    edges = (
        _certified("A", "B", 1, "asserted", "ab-asserted"),
        _certified("A", "B", 1, "verified-exact", "ab-exact"),
        _certified("B", "C", 0, "verified-exact", "bc-equiv"),
        _certified("C", "D", 1, "asserted", "cd-asserted"),
        _certified("B", "D", 1, "verified-exact", "bd-exact"),
    )
    net = ClusterNetwork("ties", "symmetric", tuple("ABCD"), edges)
    first = step_distance(net, "A", "D")
    assert [s.edge_label for s in first.witness.steps] == ["ab-exact", "bd-exact"]
    assert first.value == fin(2)
    assert first.status == "exact" and first.asserted_used == ()
    via_zero = step_distance(net, "B", "D")
    assert [s.edge_label for s in via_zero.witness.steps] == ["bd-exact"]
    assert via_zero.status == "exact" and via_zero.asserted_used == ()
    assert step_distance(net, "A", "D") == first

    # same nodes, the verified edges gone: the answers of the first
    # network must not leak into this one, nor the other way round
    other = ClusterNetwork("ties", "symmetric", tuple("ABCD"), edges[:1] + edges[2:4])
    res = step_distance(other, "A", "D")
    assert [s.edge_label for s in res.witness.steps] == [
        "ab-asserted", "bc-equiv", "cd-asserted"
    ]
    assert res.status == "conditional"
    assert res.asserted_used == ("ab-asserted", "cd-asserted")
    assert step_distance(net, "A", "D") == first


def test_undecided_certificates_cap_every_answer_at_bounded():
    edges = (
        _certified("A", "B", 1, "verified-exact", "ab-exact"),
        _certified("B", "C", 1, "asserted", "bc-asserted"),
    )
    plain = ClusterNetwork("u", "symmetric", tuple("ABCD"), edges)
    assert step_distance(plain, "A", "B").status == "exact"
    assert step_distance(plain, "A", "D").status == "exact"
    net = ClusterNetwork("u", "symmetric", tuple("ABCD"), edges, ("ad-open", "cd-open"))
    note = ("undecided certificates left out: ad-open, cd-open",)
    for target, value, status in (
        ("A", fin(0), "bounded"),
        ("B", fin(1), "bounded"),
        ("C", fin(2), "conditional"),
        ("D", INFINITY, "bounded"),
    ):
        res = step_distance(net, "A", target)
        assert (res.value, res.status, res.notes) == (value, status, note)
    assert step_distance(net, "A", "C").asserted_used == ("bc-asserted",)


def test_refuted_certificates_never_enter_networks():
    from thdist.relations import CertStatus

    cert = EdgeCertificate("equiv", "A", "B", status=CertStatus("refuted"))
    with pytest.raises(LanguageError):
        ClusterNetwork(
            "bad", "symmetric", ("A", "B"),
            (NetEdge("A", "B", 0, "equiv", cert.status, cert),),
        )


@st.composite
def _random_networks(draw):
    n = draw(st.integers(2, 12))
    nodes = tuple(f"n{i}" for i in range(n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    equiv = draw(st.lists(pair, max_size=n))
    steps = draw(st.lists(pair, max_size=2 * n))
    edges = [NetEdge(nodes[a], nodes[b], 0, "equiv") for a, b in equiv]
    edges += [NetEdge(nodes[a], nodes[b], 1, "step") for a, b in steps]
    return ClusterNetwork("rand", "symmetric", nodes, tuple(edges))


@settings(max_examples=50, deadline=None)
@given(_random_networks())
def test_pseudo_metric_properties(net):
    nodes = net.nodes
    dist = {
        (a, b): step_distance(net, a, b).value for a in nodes for b in nodes
    }
    for a in nodes:
        assert dist[a, a] == fin(0)
        for b in nodes:
            assert dist[a, b] == dist[b, a]
            for c in nodes:
                assert dist[a, b] <= dist[a, c] + dist[c, b]


@settings(max_examples=50, deadline=None)
@given(_random_networks())
def test_witness_soundness(net):
    adjacency = {
        (e.a, e.b, e.weight) for e in net.edges
    } | {(e.b, e.a, e.weight) for e in net.edges}
    for a in net.nodes:
        for b in net.nodes:
            res = step_distance(net, a, b)
            if not res.value.is_finite:
                continue
            assert res.witness.length == res.value.value
            for s in res.witness.steps:
                assert (s.source, s.target, s.bit) in adjacency


@st.composite
def _directed_networks(draw):
    n = draw(st.integers(2, 10))
    nodes = tuple(f"n{i}" for i in range(n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    equiv = draw(st.lists(pair, max_size=n))
    steps = draw(st.lists(pair, max_size=2 * n))
    edges = [NetEdge(nodes[a], nodes[b], 0, "equiv") for a, b in equiv]
    edges += [NetEdge(nodes[a], nodes[b], 1, "step", directed=True) for a, b in steps]
    return ClusterNetwork("rand", "directed", nodes, tuple(edges))


@settings(max_examples=50, deadline=None)
@given(_directed_networks())
def test_directed_distance_properties(net):
    # (a) nonnegative, zero exactly on the equivalence closure;
    # (b) the triangle inequality
    nodes = net.nodes
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in net.edges:
        if e.weight == 0:
            parent[find(e.a)] = find(e.b)
    dist = {
        (a, b): directed_step_distance(net, a, b).value
        for a in nodes
        for b in nodes
    }
    for a in nodes:
        for b in nodes:
            assert (dist[a, b] == fin(0)) == (find(a) == find(b))
            for c in nodes:
                assert dist[a, b] <= dist[a, c] + dist[c, b]


def _directed_oracle(net):
    # contract the 0-edges, then Floyd-Warshall over the one-way step edges
    comp = {x: x for x in net.nodes}

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for e in net.edges:
        if e.weight == 0:
            comp[find(e.a)] = find(e.b)
    roots = sorted({find(x) for x in net.nodes})
    dist = {(i, j): 0 if i == j else math.inf for i in roots for j in roots}
    for e in net.edges:
        if e.weight == 1:
            dist[find(e.a), find(e.b)] = min(dist[find(e.a), find(e.b)], 1)
    for h in roots:
        for i in roots:
            for j in roots:
                dist[i, j] = min(dist[i, j], dist[i, h] + dist[h, j])
    return lambda a, b: dist[find(a), find(b)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_random_networks(), _directed_networks()))
def test_distances_from_and_matrix_match_floyd_warshall(net):
    from thdist.paper_suite import _oracle_matrix

    if net.mode == "symmetric":
        comp_of, table = _oracle_matrix(net)
        oracle = lambda a, b: table[comp_of[a]][comp_of[b]]  # noqa: E731
        query = step_distance
    else:
        oracle = _directed_oracle(net)
        query = directed_step_distance
    moves = {(e.a, e.b, e.weight) for e in net.edges}
    moves |= {(e.b, e.a, e.weight) for e in net.edges if not e.directed}
    matrix = distance_matrix(net)
    assert list(matrix) == list(net.nodes)
    for a in net.nodes:
        row = distances_from(net, a)
        assert list(row) == list(net.nodes)
        for b in net.nodes:
            res = row[b]
            assert res == matrix[a][b] == query(net, a, b)
            got = res.value.value if res.value.is_finite else math.inf
            assert got == oracle(a, b)
            if not res.value.is_finite:
                assert res.witness is None and res.lower_bound.kind == "exhausted-search"
                continue
            witness = res.witness
            assert witness.length == got
            assert witness.nodes[0] == a and witness.nodes[-1] == b
            for here, s in zip(witness.nodes, witness.steps):
                assert s.source == here and (s.source, s.target, s.bit) in moves


_STATES = ("verified-exact", "verified-bounded", "asserted", None)  # None: auto edge


@st.composite
def _certified_multigraphs(draw):
    # parallel edges between one pair differ in weight, state or both
    directed = draw(st.booleans())
    n = draw(st.integers(1, 9))
    nodes = tuple(f"n{i}" for i in range(n))
    node = st.integers(0, n - 1)
    copy = st.tuples(st.integers(0, 1), st.sampled_from(_STATES))
    bundles = draw(st.lists(st.tuples(node, node, st.lists(copy, min_size=1, max_size=3)),
                            max_size=2 * n))
    edges = []
    for a, b, copies in bundles:
        for weight, state in copies:
            kind = "equiv" if weight == 0 else "axiom-add"
            cert = None
            if state is not None:
                name = f"e{len(edges)}"
                cert = EdgeCertificate(kind, nodes[a], nodes[b], name=name,
                                       status=CertStatus(state))
            edges.append(NetEdge(nodes[a], nodes[b], weight, kind,
                                 cert.status if cert else None, cert, directed and weight == 1))
    return ClusterNetwork("multi", "directed" if directed else "symmetric", nodes,
                          tuple(edges))


def _tuple_deque_answers(net, source):
    """The (d, u)-tuple deque BFS with (u, step) parents and the per-path
    status that the distance engine used before its one-pass walk:
    target -> (value, status, asserted, nodes, step labels)."""
    rank = {"verified-exact": 0, "verified-bounded": 1, "asserted": 2}
    names = tuple(dict.fromkeys(net.nodes))
    index = {x: i for i, x in enumerate(names)}
    moves = [[] for _ in names]
    for e in net.edges:
        a, b = index[e.a], index[e.b]
        label, state = e.label(), e.state()
        moves[a].append((b, PathStep(e.a, e.b, e.weight, e.kind, label, state)))
        if not e.directed:
            moves[b].append((a, PathStep(e.b, e.a, e.weight, e.kind, label, state)))
    for entries in moves:
        entries.sort(key=lambda t: (t[1].bit, rank.get(t[1].state, 3)))
    dist, parent = [math.inf] * len(names), [None] * len(names)
    dist[index[source]] = 0
    dq = deque([(0, index[source])])
    while dq:
        d, u = dq.popleft()
        if d > dist[u]:
            continue
        for v, step in moves[u]:
            if d + step.bit < dist[v]:
                dist[v], parent[v] = d + step.bit, (u, step)
                (dq.appendleft if step.bit == 0 else dq.append)((d + step.bit, v))
    answers = {}
    for target in names:
        node = index[target]
        if dist[node] == math.inf:
            answers[target] = (None, "exact", (), None, None)
            continue
        steps = []
        while node != index[source]:
            node, step = parent[node]
            steps.append(step)
        steps.reverse()
        asserted = tuple(s.edge_label for s in steps if s.state == "asserted")
        bounded = any(s.state == "verified-bounded" for s in steps)
        status = "conditional" if asserted else "bounded" if bounded else "exact"
        nodes = (source, *(s.target for s in steps))
        answers[target] = (dist[index[target]], status, asserted, nodes,
                           [s.edge_label for s in steps])
    return answers


@settings(max_examples=150, deadline=None)
@given(_certified_multigraphs())
def test_witnesses_match_the_tuple_deque_bfs(net):
    for a in net.nodes:
        want = _tuple_deque_answers(net, a)
        row = distances_from(net, a)
        for b in net.nodes:
            res = row[b]
            got = (
                res.value.value, res.status, res.asserted_used,
                res.witness and res.witness.nodes,
                res.witness and [s.edge_label for s in res.witness.steps],
            )
            assert got == want[b]


@settings(max_examples=30, deadline=None)
@given(_random_networks(), st.randoms(use_true_random=False))
def test_monotone_under_network_growth(net, rng):
    # dropping nodes/edges can only grow distances (sub-network remark)
    keep_nodes = [n for n in net.nodes if rng.random() < 0.8]
    if len(keep_nodes) < 2:
        keep_nodes = list(net.nodes[:2])
    kept = set(keep_nodes)
    edges = tuple(
        e for e in net.edges if e.a in kept and e.b in kept and rng.random() < 0.8
    )
    sub = ClusterNetwork("sub", "symmetric", tuple(keep_nodes), edges)
    for a in keep_nodes:
        for b in keep_nodes:
            assert step_distance(net, a, b).value <= step_distance(sub, a, b).value


def test_axiomatic_distance_cross_language_infinite():
    t1 = Theory.make("p", PQ, ["P"])
    t2 = Theory.make("x", Language.make("X", {"R": 0}, 0), [])
    res = axiomatic_distance({"p": t1, "x": t2}, "p", "x")
    assert res.value == INFINITY
    assert res.lower_bound.kind == "exhausted-search"


def test_classify_requires_amalgamation_flag():
    t1 = Theory.make("p", PQ, ["P"])
    with pytest.raises(LanguageError):
        classify_ad({"p": t1}, "p", "p", amalgamation=None)


def test_classify_unconnected_pair_is_infinite():
    # neither Sat-set holds the other, and no third node links them
    theories = {
        "b": Theory.make("b", PQ, ["(and P (not Q))"]),
        "c": Theory.make("c", PQ, ["Q"]),
    }
    res = classify_ad(theories, "b", "c", amalgamation="asserted")
    assert (res.value, res.status, res.witness) == (INFINITY, "exact", None)
    assert res.lower_bound.kind == "exhausted-search"
    assert res.notes == ("amalgamation property: asserted",)


def test_amalgamation_single_node_and_complete_catalog():
    t = theory_from_sat("one", PQ, [(True, True)])
    report = check_amalgamation({"one": t})
    assert report.amalgamation == "holds" and report.co_amalgamation == "holds"
    complete = {
        f"c{i}": theory_from_sat(f"c{i}", PQ, [row])
        for i, row in enumerate(itertools.product((False, True), repeat=2))
    }
    report = check_amalgamation(complete)
    # adding an axiom to a complete theory stays put or goes inconsistent,
    # so only vacuous premise instances exist
    assert report.vacuous
    assert report.amalgamation == "holds"


def _amalgamation_by_definition(nodes):
    """check_amalgamation's report fields from the definitions, on nodes
    given as (language, Sat-set): v is u plus one axiom iff the two share
    a language and Sat(v) lies within Sat(u)."""
    names = list(nodes)
    lang = {n: m for n, (m, _) in nodes.items()}
    sat = {n: s for n, (_, s) in nodes.items()}

    def instances(premise):
        return [
            (t, t1, t2)
            for t in names for t1 in names for t2 in names
            if t1 != t2 and lang[t] == lang[t1] == lang[t2]
            and premise(sat[t], sat[t1], sat[t2])
        ]

    # amalgamation: t1 and t2 each add an axiom to t; some t' adds one to both
    am = instances(lambda s, s1, s2: s1 | s2 <= s)
    am_fails = [
        (t, t1, t2) for t, t1, t2 in am
        if not any(lang[p] == lang[t] and sat[p] <= sat[t1] & sat[t2] for p in names)
    ]
    # co-amalgamation: t adds an axiom to t1 and to t2; both add one to some t'
    co = instances(lambda s, s1, s2: s <= s1 & s2)
    co_fails = [
        (t, t1, t2) for t, t1, t2 in co
        if not any(lang[p] == lang[t] and sat[t1] | sat[t2] <= sat[p] for p in names)
    ]
    return (
        "fails" if am_fails else "holds", am_fails[0] if am_fails else None,
        "fails" if co_fails else "holds", co_fails[0] if co_fails else None,
        not am and not co,
    )


def test_amalgamation_matches_the_definition_on_random_sentential_catalogs():
    langs = {m: Language.make(f"C{m}", {f"K{i}": 0 for i in range(m)}, 0) for m in (2, 3)}
    rows = {m: list(itertools.product((False, True), repeat=m)) for m in (2, 3)}
    rng = random.Random(1807)
    seen = set()
    for i in range(150):
        nodes = {}
        for j in range(rng.randint(1, 6)):
            m = (2, 3)[i % 2] if i % 3 else rng.choice((2, 3))  # every third mixes
            sat = frozenset(r for r in rows[m] if rng.random() < 0.5)
            same = [s for mm, s in nodes.values() if mm == m]
            if same and rng.random() < 0.5:  # a sub- or superset of an earlier node
                other = rng.choice(same)
                sat = sat & other if rng.random() < 0.5 else sat | other
            nodes[f"n{j}"] = (m, sat)
        theories = {n: theory_from_sat(n, langs[m], sat) for n, (m, sat) in nodes.items()}
        report = check_amalgamation(theories)
        got = (
            report.amalgamation, report.amalgamation_witness,
            report.co_amalgamation, report.co_amalgamation_witness, report.vacuous,
        )
        assert got == _amalgamation_by_definition(nodes), nodes
        assert report.undecided_pairs == ()
        seen.add((got[0], got[2], got[4]))
    # the draws reach every verdict of both properties, and vacuous ones
    assert {a for a, _, _ in seen} == {c for _, c, _ in seen} == {"holds", "fails"}
    assert {v for _, _, v in seen} == {False, True}


def _verdicts_on_the_matrix(names, arrow):
    """The (co-)amalgamation verdicts, counterexample triples and vacuity
    that the definitions give on a three-valued arrow matrix (True, False,
    None = unknown), in Kleene's logic: a triple whose instance is false
    fails, else one whose instance is unknown leaves the verdict open."""

    def conj(a, b):
        return False if False in (a, b) else a and b

    def decide(m):
        fails, open_, nontrivial = [], [], False
        for t, t1, t2 in itertools.product(names, repeat=3):
            premise = conj(m[t, t1], m[t, t2])
            if t1 == t2 or premise is False:
                continue
            nontrivial |= premise is True
            amalgam = [conj(m[t1, p], m[t2, p]) for p in names]
            if True not in amalgam:
                (fails if premise and None not in amalgam else open_).append((t, t1, t2))
        if fails or open_:
            return ("fails", fails[0]) if fails else ("undecidable", open_[0]), False
        return ("holds", None), nontrivial

    (am, am_w), am_used = decide(arrow)
    (co, co_w), co_used = decide({(v, u): x for (u, v), x in arrow.items()})
    vacuous = am == co == "holds" and not am_used and not co_used
    return am, am_w, co, co_w, vacuous


def test_amalgamation_matches_the_definition_on_random_first_order_catalogs():
    # one unary symbol, sizes up to 3: every structure is enumerated here
    # and every axiom checked with eval_formula, apart from the library;
    # axiom-add, collapse and equiv certificates feed the closure
    lang = Language.make("U1", {"P": 1}, 2)
    pool = [parse_formula(f, lang) for f in (
        "(forall v0 (P v0))",
        "(exists v0 (P v0))",
        "(exists v0 (not (P v0)))",
        "(forall v0 (not (P v0)))",
        "(exists v0 (exists v1 (not (= v0 v1))))",
        "(forall v0 (forall v1 (= v0 v1)))",
        "(exists v0 (exists v1 (and (P v0) (and (P v1) (not (= v0 v1))))))",
        "(forall v0 (forall v1 (implies (and (P v0) (P v1)) (= v0 v1))))",
    )]
    structures = {
        k: [FiniteModel(lang, k, {"P": [(a,) for a in range(k) if bits >> a & 1]})
            for bits in range(1 << k)]
        for k in (1, 2, 3)
    }

    def holds(m, phi):
        return all(eval_formula(m, a, phi) for a in itertools.product(range(m.size), repeat=2))

    rng = random.Random(1807)
    seen = set()
    for i in range(100):
        bound = 1 + i % 3
        theories = {
            f"n{j}": Theory(f"n{j}", lang, tuple(rng.sample(pool, rng.randint(i % 2, 3))))
            for j in range(rng.randint(2, 5))
        }
        names = list(theories)
        certs = []
        for _ in range(rng.randint(0, 3)):
            u, v = rng.choice(names), rng.choice(names)
            kind = rng.choice(("axiom-add", "collapse", "equiv"))
            phi, psi = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5:  # v's own axioms: verified wherever u <- v is open
                phi = big_and(lang, list(theories[v].axioms))
            cert = EdgeCertificate(kind, u, v, axiom=phi, phi=phi, psi=psi)
            verify_certificate(cert, theories, bound)
            certs.append(cert)
        arrow = _arrow_matrix(theories, certs, bound)
        models = {
            n: {m for k in range(1, bound + 1) for m in structures[k]
                if all(holds(m, a) for a in t.axioms)}
            for n, t in theories.items()
        }
        # True arrows: u's axioms within v's, verified certificates (an
        # equivalence both ways), closed under composition
        closure = {
            (u, v) for u in names for v in names
            if set(theories[u].axioms) <= set(theories[v].axioms)
        }
        for c in certs:
            if c.status.verified:
                closure |= {(c.source, c.target)}
                if c.kind == "equiv":
                    closure |= {(c.target, c.source)}
        while True:
            grown = closure | {(u, w) for u, v in closure for x, w in closure if v == x}
            if grown == closure:
                break
            closure = grown
        for (u, v), x in arrow.items():
            # False: a structure of size <= bound models v and fails u
            expected = True if (u, v) in closure else (None if models[v] <= models[u] else False)
            assert x is expected, (u, v, theories, certs)
        report = check_amalgamation(theories, certs, bound)
        got = (
            report.amalgamation, report.amalgamation_witness,
            report.co_amalgamation, report.co_amalgamation_witness, report.vacuous,
        )
        assert got == _verdicts_on_the_matrix(names, arrow), (theories, certs)
        assert report.undecided_pairs == tuple(p for p, x in arrow.items() if x is None)
        seen.add((got[0], got[2]))
    # the draws reach every verdict of both properties
    verdicts = {"holds", "fails", "undecidable"}
    assert {a for a, _ in seen} == {c for _, c in seen} == verdicts


def test_shipped_first_order_amalgamation_leaves_no_pair_undecided():
    # certificates alone leave seven BinAx pairs open; axiom_add_exists
    # refutes each with a structure of size 1 or 2 that models v and fails
    # an axiom of u
    cat = loads_catalog(shipped_catalog_text())
    theories = {n: cat.theory(n) for n in cat.network_decl("BinAx").nodes}
    certs = [c for c in cat.certificates if c.source in theories and c.target in theories]
    verify_all(cat)
    report = check_amalgamation(theories, certs, cat.policy.size_cap)
    assert report.undecided_pairs == ()
    assert (report.amalgamation, report.co_amalgamation, report.vacuous) == ("holds", "holds", False)
    arrow = _arrow_matrix(theories, certs, cat.policy.size_cap)
    opened = [("Posets", "BinEmpty"), ("Posets", "Eqrels"), ("Eqrels", "BinEmpty"),
              ("Eqrels", "Posets"), ("BinBot", "BinEmpty"), ("BinBot", "Posets"),
              ("BinBot", "Eqrels")]
    for u, v in opened:
        m = axiom_add_exists(theories[u], theories[v]).countermodel
        assert arrow[u, v] is False and m.size <= 2

        def holds(phi):
            return all(eval_formula(m, a, phi) for a in itertools.product(range(m.size), repeat=3))

        assert all(holds(a) for a in theories[v].axioms)
        assert not all(holds(a) for a in theories[u].axioms)


def test_check_amalgamation_verifies_the_declared_certificates_it_reads():
    # unverified, the bot-from-* certificates would leave Posets <- BinBot
    # and Eqrels <- BinBot unknown and the verdict undecidable
    cat = loads_catalog(shipped_catalog_text())
    theories = {n: cat.theory(n) for n in cat.network_decl("BinAx").nodes}
    report = check_amalgamation(theories, cat.certificates, cat.policy.size_cap)
    assert (report.amalgamation, report.co_amalgamation, report.undecided_pairs) == (
        "holds", "holds", ())
    inside = [c for c in cat.certificates if c.source in theories and c.target in theories]
    assert len(inside) == 5 and all(c.status.verified for c in inside)
    assert all(c.status.state in ("declared", "asserted")
               for c in cat.certificates if c not in inside)


@pytest.mark.parametrize("mode", ["symmetric", "directed"])
def test_auto_sentential_edges_follow_sat_inclusion(mode):
    # frozenset reference: v is u plus one axiom iff Sat(v) is within Sat(u)
    rows = list(itertools.product((False, True), repeat=2))
    sats = {
        f"S{bits:02d}": frozenset(rows[i] for i in range(4) if bits >> i & 1)
        for bits in range(16)
    }
    theories = {n: theory_from_sat(n, PQ, s) for n, s in sats.items()}
    theories["Same"] = theory_from_sat("Same", PQ, sats["S06"])
    sats["Same"] = sats["S06"]
    expected = set()
    names = list(theories)
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            su, sv = sats[u], sats[v]
            if su == sv:
                expected.add((u, v, 0, False))
            elif mode == "symmetric":
                if sv <= su or su <= sv:
                    expected.add((u, v, 1, False))
            else:
                if sv <= su:
                    expected.add((u, v, 1, True))
                if su <= sv:
                    expected.add((v, u, 1, True))
    net = build_network("auto", theories, mode=mode)
    assert {(e.a, e.b, e.weight, e.directed) for e in net.edges} == expected


def test_lower_bound_certificates_examples():
    th2 = Theory.make("two", PURE, [
        "(exists v0 (exists v1 (and (not (= v0 v1)) (forall v2 (or (= v2 v0) (= v2 v1))))))",
    ])
    th3 = Theory.make("three", PURE, [
        "(exists v0 (exists v1 (exists v2 (and (and (not (= v0 v1)) (and (not (= v0 v2)) (not (= v1 v2)))) (forall v3 (or (or (= v3 v0) (= v3 v1)) (= v3 v2)))))))",
    ])
    evidence = lower_bound_certificates(th2, th3, 3, rank_cap=3)
    assert evidence.kind == "spectrum-obstruction" and evidence.size == 2
    assert evidence.bound == INFINITY

    l0 = Language.make("L0", {}, 0)
    l3 = Language.make("L3", {"C1": 0, "C2": 0, "C3": 0}, 0)
    t0 = Theory.make("t0", l0, [])
    t3 = Theory.make("t3", l3, [])
    evidence = lower_bound_certificates(t0, t3, 1, rank_cap=0)
    assert evidence.kind == "growth-certificate"
    assert evidence.bound == fin(3) and evidence.ratio == (8, 1)

    same = lower_bound_certificates(t3, t3, 2, rank_cap=0)
    assert same.kind == "none" and same.bound == fin(0)

    nocap = lower_bound_certificates(t0, t3, 1, rank_cap=None)
    assert nocap.kind == "none"


def test_sentential_cd_solver_agreement():
    # lower bound equals the solver value on nonempty-language pairs
    lang3 = Language.make("L3", {"A": 0, "B": 0, "C": 0}, 0)
    rows = list(itertools.product((False, True), repeat=3))
    rng = random.Random(7)
    for _ in range(25):
        s1 = rng.randint(1, 8)
        s2 = rng.randint(1, 8)
        t1 = theory_from_sat("t1", lang3, rng.sample(rows, s1))
        t2 = theory_from_sat("t2", lang3, rng.sample(rows, s2))
        res = sentential_cd_solve(t1, t2)
        expected = math.ceil(math.log2(max(s1, s2) / min(s1, s2)))
        assert res.distance == fin(expected)
        assert res.lower_bound.bound == res.distance
        assert res.witness.length == expected
        for cert in res.certificates:
            assert cert.status.state == "verified-exact"


def test_sentential_cd_solver_defeq_case():
    t1 = theory_from_sat("t1", PQ, [(True, True)])
    t2 = theory_from_sat("t2", Language.make("L1", {"X": 0}, 0), [(True,)])
    res = sentential_cd_solve(t1, t2)
    assert res.distance == fin(0)
    assert res.witness.bits == (0,)


def test_sentential_cd_solver_inconsistent_cases():
    bot = Theory.make("bot", PQ, ["(and P (not P))"])
    t = theory_from_sat("t", PQ, [(True, True)])
    res = sentential_cd_solve(bot, t)
    assert res.distance == INFINITY
    assert res.lower_bound.kind == "spectrum-obstruction"
    bot2 = Theory.make("bot2", Language.make("L1", {"X": 0}, 0), ["(and X (not X))"])
    res = sentential_cd_solve(bot, bot2)
    assert res.distance == fin(0)


def test_sentential_cd_solver_empty_language_endpoint():
    l0 = Language.make("L0", {}, 0)
    t0 = Theory.make("t0", l0, [])
    single = theory_from_sat("single", Language.make("L1", {"X": 0}, 0), [(False,)])
    res = sentential_cd_solve(t0, single)
    assert res.distance == fin(1)  # no translation into the empty language
    assert res.notes


@pytest.mark.parametrize("consts", [1, 2, 3])
def test_sentential_cd_solver_empty_language_endpoint_in_either_order(consts):
    # a one-model theory is as large as the empty-language theory; the
    # chain leaves the empty language whichever end it is
    t0 = Theory.make("t0", Language.make("L0", {}, 0), [])
    lang = Language.make("Lk", {f"X{i}": 0 for i in range(consts)}, 0)
    single = theory_from_sat("single", lang, [(False,) * consts])
    fwd, bwd = sentential_cd_solve(t0, single), sentential_cd_solve(single, t0)
    assert fwd.distance == bwd.distance == fin(1)
    assert fwd.notes == bwd.notes and fwd.notes
    assert bwd.witness.nodes == fwd.witness.nodes[::-1]
    assert [t.name for t in bwd.chain] == [t.name for t in fwd.chain][::-1]
    assert {c.status.state for c in fwd.certificates + bwd.certificates} == {"verified-exact"}


def test_sentential_cd_solver_ignores_theory_names():
    # each rung is verified on its own two theories, so two theories that
    # share a name solve like two that do not
    lang3 = Language.make("L3", {"A": 0, "B": 0, "C": 0}, 0)
    rows = list(itertools.product((False, True), repeat=3))

    def shape(res, rename):
        steps = [
            (rename.get(s.source, s.source), rename.get(s.target, s.target),
             s.bit, s.kind, s.state)
            for s in res.witness.steps
        ]
        chain = [rename.get(t.name, t.name) for t in res.chain]
        states = [c.status.state for c in res.certificates]
        return res.distance, steps, chain, states, res.lower_bound, res.notes

    rng = random.Random(5)
    pairs = [(rows[:1], rows[:4])] + [
        (rng.sample(rows, rng.randint(1, 8)), rng.sample(rows, rng.randint(1, 8)))
        for _ in range(20)
    ]
    for x, y in pairs + [(y, x) for x, y in pairs]:
        same = sentential_cd_solve(theory_from_sat("t", lang3, x), theory_from_sat("t", lang3, y))
        apart = sentential_cd_solve(theory_from_sat("a", lang3, x), theory_from_sat("b", lang3, y))
        assert shape(same, {}) == shape(apart, {"a": "t", "b": "t"})
    one, four = theory_from_sat("t", lang3, rows[:1]), theory_from_sat("t", lang3, rows[:4])
    assert sentential_cd_solve(one, four).distance == fin(2)
    assert sentential_cd_solve(four, one).distance == fin(2)


def test_sentential_cd_solver_rungs_translate_between_their_own_theories():
    # a theory named like the first ladder theory, and a direct defeq rung
    # between two theories named alike: each certificate's translations run
    # between the two theories of its own rung
    lang3 = Language.make("L3", {"A": 0, "B": 0, "C": 0}, 0)
    lang2 = Language.make("L2", {"P": 0, "Q": 0}, 0)
    rows3 = list(itertools.product((False, True), repeat=3))
    rows2 = list(itertools.product((False, True), repeat=2))
    first = theory_from_sat("cdsolve.0", lang3, rows3[:1])
    res = sentential_cd_solve(first, theory_from_sat("four", lang2, rows2))
    assert res.distance == fin(2)
    tr12, tr21 = res.certificates[0].tr12, res.certificates[0].tr21
    assert (tr12.source.name, tr12.target.name) == ("L3", "cdsolve.L1")
    assert (tr21.source.name, tr21.target.name) == ("cdsolve.L1", "L3")
    t1, t2 = theory_from_sat("t", lang3, rows3[:2]), theory_from_sat("t", lang2, rows2[:2])
    res = sentential_cd_solve(t1, t2)
    (cert,) = res.certificates
    assert res.distance == fin(0) and cert.status.state == "verified-exact"
    assert (cert.tr12.source, cert.tr12.target) == (lang3, lang2)
    assert (cert.tr21.source, cert.tr21.target) == (lang2, lang3)


def test_build_network_rejects_unknown_declarations():
    theories = {"p": Theory.make("p", PQ, ["P"])}
    for equiv, step, mode in [
        ("Logical", "axiom", "symmetric"),
        ("logical", "axioms", "symmetric"),
        ("logical", "axiom", "Directed"),
    ]:
        with pytest.raises(LanguageError, match="unknown network declaration"):
            build_network("n", theories, (), equiv, step, mode)


def test_conceptual_distance_with_certificates():
    l0 = Language.make("L0", {}, 0)
    l1 = Language.make("L1", {"C1": 0}, 0)
    t0 = Theory.make("t0", l0, [])
    t1 = Theory.make("t1", l1, [])
    theories = {"t0": t0, "t1": t1}
    cert = EdgeCertificate("concept-add", "t0", "t1")
    res = conceptual_distance(theories, "t0", "t1", [cert], rank_cap=0)
    assert res.value == fin(1) and res.status == "exact"
    assert res.lower_bound.bound == fin(1)


def test_spectrum_obstruction_against_a_catalog_path_is_noted():
    # One has no size-2 model and Set has one; three variables tell size 2
    # apart, so the asserted defeq joining them must be wrong
    eq3 = Language.make("Eq3", {}, 3)
    theories = {
        "Set": Theory.make("Set", eq3, []),
        "One": Theory.make("One", eq3, ["(forall v0 (forall v1 (= v0 v1)))"]),
    }
    cert = EdgeCertificate("defeq", "Set", "One", name="trusted", status=CertStatus("asserted"))
    res = conceptual_distance(theories, "Set", "One", [cert])
    assert (res.value, res.status, res.asserted_used) == (fin(0), "conditional", ("trusted",))
    evidence = res.lower_bound
    assert (evidence.kind, evidence.size, evidence.ratio) == ("spectrum-obstruction", 2, (1, 0))
    assert res.notes == (
        "spectrum obstruction contradicts the catalog path; "
        "an asserted or bounded certificate must be wrong",
    )


def test_faithful_distance_empty_relation_infinite():
    t1 = Theory.make("p", PQ, ["P"])
    t2 = Theory.make("q", PQ, ["Q"])
    res = faithful_interpretation_distance({"p": t1, "q": t2}, "p", "q")
    assert res.value == INFINITY


def test_two_faithful_edges_no_shortcut():
    a = Theory.make("a", PQ, ["P"])
    b = Theory.make("b", PQ, ["Q"])
    c = Theory.make("c", PQ, ["(and P Q)"])
    theories = {"a": a, "b": b, "c": c}
    from thdist.relations import CertStatus

    e1 = EdgeCertificate("faithful", "a", "b", status=CertStatus("asserted"))
    e2 = EdgeCertificate("faithful", "b", "c", status=CertStatus("asserted"))
    res = faithful_interpretation_distance(theories, "a", "c", [e1, e2])
    assert res.value == fin(2) and res.status == "conditional"
    assert set(res.asserted_used) == {e1.label(), e2.label()}


def test_distance_json_schema():
    net = _net("AB", [], [("A", "B")])
    res = step_distance(net, "A", "B")
    data = res.to_json()
    assert data["distance"] == 1 and data["status"] == "exact"
    assert data["witness"][0]["bit"] == 1
    res = step_distance(_net("AB", [], []), "A", "B")
    assert res.to_json()["distance"] == "infinity"


def test_exports():
    net = _net("AB", [("A", "B")], [("A", "B")])
    dot = export_dot(net)
    assert 'digraph "t"' in dot and "style=dashed" in dot and 'label="step"' in dot
    data = export_json(net)
    assert data["nodes"] == ["A", "B"] and len(data["edges"]) == 2


def test_bidirected_agrees_with_symmetric_when_removals_mirror_adds():
    lx = Language.make("LX", {"X": 0}, 0)
    lxy = Language.make("LXY", {"X": 0, "Y": 0}, 0)
    a = Theory.make("A", lx, [])
    b = Theory.make("B", lxy, [])
    b_minus = Theory.make("Bminus", lxy, ["(iff X Y)"])
    theories = {"A": a, "B": b, "Bminus": b_minus}
    certs = [
        EdgeCertificate("concept-add", "A", "B"),
        EdgeCertificate(
            "concept-remove", "B", "Bminus",
            formula=parse_formula("(not (iff X Y))", lxy),
        ),
        EdgeCertificate("defeq", "Bminus", "A"),
    ]
    fwd = bidirected_conceptual_distance(theories, "A", "B", certs)
    bwd = bidirected_conceptual_distance(theories, "B", "A", certs)
    sym = conceptual_distance(theories, "A", "B", certs, rank_cap=0)
    assert fwd.value == bwd.value == sym.value == fin(1)


def test_fifty_node_network_matches_all_pairs_oracle():
    from thdist.paper_suite import _oracle_matrix

    rng = random.Random(50)
    nodes = tuple(f"n{i}" for i in range(50))
    edges = []
    for _ in range(40):
        a, b = rng.sample(range(50), 2)
        edges.append(NetEdge(nodes[a], nodes[b], 0, "equiv"))
    for _ in range(90):
        a, b = rng.sample(range(50), 2)
        edges.append(NetEdge(nodes[a], nodes[b], 1, "step"))
    net = ClusterNetwork("fifty", "symmetric", nodes, tuple(edges))
    comp_of, oracle = _oracle_matrix(net)
    for a in nodes:
        for b in nodes:
            got = step_distance(net, a, b).value
            expected = oracle[comp_of[a]][comp_of[b]]
            assert (got.value if got.is_finite else math.inf) == expected


def test_solver_matches_bfs_over_materialized_theory_space():
    # independent oracle: materialize every sentential theory on the
    # nested languages with 0..3 constants, connect exact defeq pairs
    # (equal consistent Sat sizes, matching language emptiness) with
    # 0-edges and projection-conservative one-constant extensions with
    # 1-edges, then run a plain deque BFS
    from collections import deque

    langs = [
        Language.make(f"O{i}", {f"K{j + 1}": 0 for j in range(i)}, 0)
        for i in range(4)
    ]
    nodes = []
    for level, lang in enumerate(langs):
        rows = list(itertools.product((False, True), repeat=level))
        for bits in range(1 << len(rows)):
            sat = frozenset(rows[i] for i in range(len(rows)) if bits >> i & 1)
            if sat:
                nodes.append((level, sat))

    def neighbors(node):
        level, sat = node
        for other_level, other_sat in nodes:
            if (other_level, other_sat) == node:
                continue
            # defeq crosses languages: equal consistent Sat sizes, and the
            # empty language only pairs with itself (nothing translates in)
            if len(other_sat) == len(sat) and (level == 0) == (other_level == 0):
                yield (other_level, other_sat), 0
            if other_level == level + 1:
                projected = frozenset(row[:-1] for row in other_sat)
                if projected == sat:
                    yield (other_level, other_sat), 1
            if other_level == level - 1:
                projected = frozenset(row[:-1] for row in sat)
                if projected == other_sat:
                    yield (other_level, other_sat), 1

    def bfs(start, goal):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt, w in neighbors(cur):
                nd = dist[cur] + w
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    if w == 0:
                        queue.appendleft(nxt)
                    else:
                        queue.append(nxt)
        return dist.get(goal, math.inf)

    rng = random.Random(11)
    samples = rng.sample(nodes, 12)
    for a in samples[:6]:
        for b in samples[6:]:
            ta = theory_from_sat("a", langs[a[0]], a[1])
            tb = theory_from_sat("b", langs[b[0]], b[1])
            solved = sentential_cd_solve(ta, tb)
            oracle = bfs(a, b)
            got = solved.distance.value if solved.distance.is_finite else math.inf
            assert got == oracle, (a, b, got, oracle)
