"""Cluster networks and distance computations.

A cluster network is a node set with 0-weight equivalence edges and
1-weight step edges; distances are 0/1-weighted shortest paths computed by
deque BFS so that every finite answer carries a path witness mirroring the
b-sequence form (0 = equivalence move, 1 = step move). Values live in
N ∪ {infinity} with saturating arithmetic.

Edges are built from usable certificates (verified or asserted, never
refuted); on sentential same-language node pairs the logical-equivalence
and axiom-adding relations are additionally computed exactly from Sat-sets.
Asserted certificates taint results to status "conditional".
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, total_ordering
from typing import Container, Iterable, Mapping, NamedTuple

from .errors import LanguageError
from .relations import (
    ASSERTED,
    DECLARED,
    REFUTED,
    UNDECIDED,
    VERIFIED_BOUNDED,
    VERIFIED_EXACT,
    CertStatus,
    EdgeCertificate,
    _verify_between,
    axiom_add_exists,
    verify_certificate,
)
from .semantics import (
    DEFAULT_BOUND,
    Theory,
    _set_bits,
    feasible_bound,
    logically_equivalent,
    sat_assignments,
    sat_rows,
    spectrum,
    theory_from_sat,
)
from .syntax import Language


# ---------------------------------------------------------------------------
# Extended naturals

@total_ordering
class ExtNat:
    """Natural number or infinity, totally ordered, saturating addition."""

    __slots__ = ("value",)

    def __init__(self, value: int | None = None) -> None:
        self.value = value  # None encodes infinity

    def __eq__(self, other):
        return self.value == other.value if type(other) is ExtNat else NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"ExtNat(value={self.value!r})"

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return INFINITY
        return ExtNat(self.value + other.value)

    def __lt__(self, other: "ExtNat") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def to_json(self):
        return "infinity" if self.value is None else self.value

    def __str__(self) -> str:
        return "infinity" if self.value is None else str(self.value)


INFINITY = ExtNat(None)


def fin(n: int) -> ExtNat:
    return ExtNat(n)


# ---------------------------------------------------------------------------
# Networks

class NetEdge(NamedTuple):
    a: str
    b: str
    weight: int  # 0 = equivalence, 1 = step
    kind: str
    status: CertStatus | None = None  # None: derived exactly from Sat-sets
    cert: EdgeCertificate | None = None
    directed: bool = False

    def label(self) -> str:
        if self.cert is not None:
            return self.cert.label()
        return f"{self.kind}(auto)"

    def state(self) -> str:
        return self.status.state if self.status is not None else VERIFIED_EXACT


class ClusterNetwork:
    # __dict__ holds the distance engine, built on the first query
    __slots__ = ("name", "mode", "nodes", "edges", "undecided", "__dict__")

    def __init__(
        self, name: str, mode: str, nodes: tuple[str, ...], edges: tuple[NetEdge, ...],
        undecided: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.mode = mode  # symmetric | directed
        self.nodes = nodes
        self.edges = edges
        self.undecided = undecided  # labels of undecided certificates left out
        known = set(nodes)
        for e in edges:
            if e.a not in known or e.b not in known:
                raise LanguageError(f"edge {e.label()} references unknown node")
            if e.status is not None and e.status.state == REFUTED:
                raise LanguageError(f"refuted certificate {e.label()} in network")

    @cached_property
    def _engine(self) -> "_DistanceEngine":
        # built on the first distance query and dropped with the network;
        # the network is immutable, so what it memoises never goes stale
        return _DistanceEngine(self)


class PathStep(NamedTuple):
    source: str
    target: str
    bit: int
    kind: str
    edge_label: str
    state: str

    def to_json(self) -> dict:
        return {
            "from": self.source,
            "to": self.target,
            "bit": self.bit,
            "kind": self.kind,
            "certificate": self.edge_label,
            "state": self.state,
        }


class PathWitness(NamedTuple):
    nodes: tuple[str, ...]
    steps: tuple[PathStep, ...]

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(s.bit for s in self.steps)

    @property
    def length(self) -> int:
        return sum(self.bits)

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


class LowerBoundEvidence(NamedTuple):
    kind: str  # spectrum-obstruction | growth-certificate | exhausted-search | none
    bound: ExtNat = fin(0)
    size: int | None = None
    factor: int | None = None
    ratio: tuple[int, int] | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "bound": self.bound.to_json()}
        if self.size is not None:
            out["size"] = self.size
        if self.factor is not None:
            out["factor"] = self.factor
        if self.ratio is not None:
            out["ratio"] = list(self.ratio)
        if self.detail:
            out["detail"] = self.detail
        return out


EXHAUSTED = LowerBoundEvidence("exhausted-search", INFINITY, detail="no path in the network")


class DistanceResult(NamedTuple):
    value: ExtNat
    witness: PathWitness | None = None
    status: str = "exact"  # exact | bounded | conditional
    asserted_used: tuple[str, ...] = ()
    lower_bound: LowerBoundEvidence | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {
            "distance": self.value.to_json(),
            "status": self.status,
            "witness": self.witness.to_json() if self.witness else None,
            "lower_bound": self.lower_bound.to_json() if self.lower_bound else None,
        }
        if self.asserted_used:
            out["asserted_certificates"] = list(self.asserted_used)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


_STATE_RANK = {VERIFIED_EXACT: 0, VERIFIED_BOUNDED: 1, ASSERTED: 2}


class _DistanceEngine:
    """The distance state of one network: its adjacency, built once over
    integer node indices, and the 0/1-BFS of every source queried so far.

    Each node's moves are sorted 0-edges first, then verified-exact,
    verified-bounded and asserted, so that among equally short paths the
    BFS settles on the best-certified witness.
    """

    def __init__(self, net: ClusterNetwork) -> None:
        self.names = tuple(dict.fromkeys(net.nodes))
        self.index = {n: i for i, n in enumerate(self.names)}
        undecided = ", ".join(net.undecided)
        self.notes = (f"undecided certificates left out: {undecided}",) if undecided else ()
        self.moves: list[list[tuple[int, int, PathStep]]] = [[] for _ in self.names]
        for e in net.edges:
            a, b = self.index[e.a], self.index[e.b]
            label, state, w = e.label(), e.state(), e.weight
            self.moves[a].append((b, w, PathStep(e.a, e.b, w, e.kind, label, state)))
            if not e.directed:
                self.moves[b].append((a, w, PathStep(e.b, e.a, w, e.kind, label, state)))
        for entries in self.moves:
            entries.sort(key=lambda t: (t[1], _STATE_RANK.get(t[2].state, 3)))
        self.runs: dict[str, SourceDistances] = {}

    def from_source(self, source: str) -> "SourceDistances":
        run = self.runs.get(source)
        if run is None:
            run = self.runs[source] = self._zero_one_bfs(self.index[source])
        return run

    def _zero_one_bfs(self, source: int) -> "SourceDistances":
        # the deque stays sorted by push distance: expand a node on its first pop;
        # n, past every distance, marks the nodes not reached
        n = len(self.names)
        dist, parent, expanded = [n] * n, [None] * n, bytearray(n)
        dist[source] = 0
        moves = self.moves
        dq = deque((source,))
        pop, push_front, push_back = dq.popleft, dq.appendleft, dq.append
        while dq:
            u = pop()
            if expanded[u]:
                continue
            expanded[u] = 1
            d = dist[u]
            for v, bit, step in moves[u]:
                nd = d + bit
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = step
                    if bit:
                        push_back(v)
                    else:
                        push_front(v)
        return SourceDistances(self.names, self.index, source, dist, parent, self.notes)


class SourceDistances(Mapping[str, DistanceResult]):
    """Distances from one source to every node of its network, read off a
    single 0/1-BFS. A target's witness is walked back through the parent
    steps when the target is looked up. On a network that left undecided
    certificates out, no answer is better than bounded, and no path is no
    lower bound."""

    def __init__(
        self, names: tuple[str, ...], index: dict[str, int], source: int,
        dist: list[int], parent: list[PathStep | None], notes: tuple[str, ...],
    ) -> None:
        # no reference back to the engine, so that dropping a network
        # frees its memo at once rather than at the next cycle collection
        self._names, self._index, self._source = names, index, source
        self._dist, self._parent, self._notes = dist, parent, notes

    def __getitem__(self, target: str) -> DistanceResult:
        index, parent, source, notes = self._index, self._parent, self._source, self._notes
        node = index[target]
        value = self._dist[node]
        if value == len(self._names):
            # an undecided certificate left out may be an edge, so only a
            # search of the whole relation proves the pair unreachable
            if notes:
                return DistanceResult(INFINITY, None, "bounded", (), None, notes)
            return DistanceResult(INFINITY, None, "exact", (), EXHAUSTED, notes)
        steps, asserted, bounded = [], [], bool(notes)
        while node != source:
            step = parent[node]
            steps.append(step)
            if step.state == ASSERTED:
                asserted.append(step.edge_label)
            elif step.state == VERIFIED_BOUNDED:
                bounded = True
            node = index[step.source]
        steps.reverse()
        status = "conditional" if asserted else "bounded" if bounded else "exact"
        witness = PathWitness((self._names[source], *[s.target for s in steps]), tuple(steps))
        return DistanceResult(ExtNat(value), witness, status, tuple(asserted[::-1]), None, notes)

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def distances_from(net: ClusterNetwork, source: str) -> SourceDistances:
    """Every distance from `source`: equivalence edges are free and step
    edges count one each, in their direction on directed networks. The
    BFS runs once per source; the network keeps it for later queries."""
    if source not in net._engine.index:
        raise LanguageError(f"unknown node in distance query: {source!r}")
    return net._engine.from_source(source)


def distance_matrix(net: ClusterNetwork) -> dict[str, SourceDistances]:
    """All pairs: `distance_matrix(net)[a][b]` is the distance from a to b."""
    return {a: distances_from(net, a) for a in net._engine.names}


def _distance(net: ClusterNetwork, a: str, b: str) -> DistanceResult:
    engine = net._engine
    if a not in engine.index or b not in engine.index:
        raise LanguageError(f"unknown node in distance query: {a!r} or {b!r}")
    return engine.from_source(a)[b]


def step_distance(net: ClusterNetwork, a: str, b: str) -> DistanceResult:
    """Minimum number of step edges on any path, equivalence edges free."""
    if net.mode != "symmetric":
        raise LanguageError("step_distance runs on symmetric networks")
    return _distance(net, a, b)


def directed_step_distance(net: ClusterNetwork, a: str, b: str) -> DistanceResult:
    """Directed variant: step edges are one-way, equivalence stays symmetric."""
    if net.mode != "directed":
        raise LanguageError("directed_step_distance runs on directed networks")
    return _distance(net, a, b)


# ---------------------------------------------------------------------------
# Building networks from theories and certificates

# What a network declaration admits: the certificate kinds of its 0-edges
# per :equiv and of its 1-edges per :step, the removal kind a directed
# network adds to its steps, and the :mode values
NETWORK_KINDS = {
    "equiv": {"logical": ("equiv",), "defeq": ("defeq", "equiv")},
    "step": {
        "axiom": ("axiom-add", "collapse"), "concept": ("concept-add",), "faithful": ("faithful",)
    },
    "removal": {"axiom": ("theorem-remove",), "concept": ("concept-remove",)},
    "mode": ("symmetric", "directed"),
}


def _node_certificates(
    theories: Mapping[str, Theory], certificates: Iterable[EdgeCertificate],
    kinds: Container[str], bound: int
) -> list[EdgeCertificate]:
    """The certificates of the given kinds between nodes, each verified
    first if still declared, so no answer depends on the caller verifying."""
    out = [c for c in certificates
           if c.kind in kinds and c.source in theories and c.target in theories]
    for cert in out:
        if cert.status.state == DECLARED:
            verify_certificate(cert, theories, bound)
    return out


def build_network(
    name: str,
    theories: Mapping[str, Theory],
    certificates: Iterable[EdgeCertificate] = (),
    equiv: str = "logical",
    step: str = "axiom",
    mode: str = "symmetric",
    bound: int = DEFAULT_BOUND,
) -> ClusterNetwork:
    """Assemble a cluster network.

    Equivalence edges come from certificates of the chosen notion; step
    edges from the chosen step relation. Declared certificates are
    verified here; refuted ones never enter. On sentential same-language
    pairs the logical-equivalence and (for axiom networks) axiom-adding
    relations are added exactly from Sat-sets. Logical equivalence also
    yields defeq edges: the identity translations witness them. The
    labels of undecided certificates are kept, and no distance on the
    network is then better than bounded.
    """
    kinds = NETWORK_KINDS
    if equiv not in kinds["equiv"] or step not in kinds["step"] or mode not in kinds["mode"]:
        raise LanguageError(f"unknown network declaration {equiv}/{step}/{mode}")
    steps = kinds["step"][step] + (kinds["removal"].get(step, ()) if mode == "directed" else ())
    weights = {**dict.fromkeys(kinds["equiv"][equiv], 0), **dict.fromkeys(steps, 1)}
    nodes = tuple(theories)
    edges: list[NetEdge] = []
    undecided: list[str] = []
    for cert in _node_certificates(theories, certificates, weights, bound):
        if not cert.status.usable:
            if cert.status.state == UNDECIDED:
                undecided.append(cert.label())
            continue
        weight = weights[cert.kind]
        edges.append(
            NetEdge(
                cert.source,
                cert.target,
                weight,
                cert.kind,
                cert.status,
                cert,
                directed=(mode == "directed" and weight == 1),
            )
        )
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            tu, tv = theories[u], theories[v]
            # the same formulas and no variables: both sentential
            if not (tu.lang.is_sentential and tu.lang.same_formulas(tv.lang)):
                continue
            su, sv = sat_assignments(tu), sat_assignments(tv)
            if su == sv:
                edges.append(NetEdge(u, v, 0, "logical-equivalence"))
            elif step == "axiom":
                # Sat(v) within Sat(u): v is u plus one axiom; and back
                down, up = not sv & ~su, not su & ~sv
                if mode == "symmetric":
                    if down or up:
                        edges.append(NetEdge(u, v, 1, "axiom-add"))
                else:
                    if down:
                        edges.append(NetEdge(u, v, 1, "axiom-add", directed=True))
                    if up:
                        edges.append(NetEdge(v, u, 1, "axiom-add", directed=True))
    return ClusterNetwork(name, mode, nodes, tuple(edges), tuple(undecided))


# ---------------------------------------------------------------------------
# Axiomatic distance and the classification theorem

def _endpoints(theories: Mapping[str, Theory], a: str, b: str) -> tuple[Theory, Theory]:
    if a not in theories or b not in theories:
        raise LanguageError(f"unknown node in distance query: {a!r} or {b!r}")
    return theories[a], theories[b]


def axiomatic_distance(
    theories: Mapping[str, Theory],
    a: str,
    b: str,
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
) -> DistanceResult:
    """Step distance on (X, ≡, −). Theories on different languages are
    infinitely far apart: equivalence presupposes a common language."""
    ta, tb = _endpoints(theories, a, b)
    if not ta.lang.same_formulas(tb.lang):
        return DistanceResult(
            INFINITY, None, "exact", (), EXHAUSTED,
            notes=("different languages admit no equivalence path",),
        )
    net = build_network(
        "axiomatic", theories, certificates, "logical", "axiom", "symmetric", bound
    )
    return step_distance(net, a, b)


def classify_ad(
    theories: Mapping[str, Theory],
    a: str,
    b: str,
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
    amalgamation: str | None = None,
) -> DistanceResult:
    """The four-way classification {0, 1, 2, infinity} of axiomatic
    distance, valid on classes with the (co-)amalgamation property."""
    if amalgamation not in ("verified", "asserted"):
        raise LanguageError(
            "classification needs the amalgamation or co-amalgamation property "
            "established for the catalog (pass amalgamation='verified'|'asserted')"
        )
    ta, tb = _endpoints(theories, a, b)
    note = f"amalgamation property: {amalgamation}"
    if ta.lang.same_formulas(tb.lang):
        # clamped as the certificate checks are; size 1 past the caps
        # still reaches enumerate_models, which refuses it
        eq_res = logically_equivalent(ta, tb, max(1, feasible_bound(bound, (ta, tb))))
        if eq_res.equivalent:
            status = "exact" if eq_res.exact else "bounded"
            return DistanceResult(fin(0), None, status, notes=(note,))
        fwd = axiom_add_exists(ta, tb, bound)
        bwd = axiom_add_exists(tb, ta, bound)
        if fwd.answer == "yes" or bwd.answer == "yes":
            return DistanceResult(fin(1), None, "exact", notes=(note,))
        if fwd.answer == "unknown" or bwd.answer == "unknown":
            raise LanguageError(
                f"axiom-adding between {a} and {b} is undecided at bound {bound}"
            )
    connected = axiomatic_distance(theories, a, b, certificates, bound)
    if not connected.value.is_finite:
        return DistanceResult(INFINITY, None, "exact", (), EXHAUSTED, notes=(note,))
    if amalgamation == "asserted":  # a distance of 2 rests on the property
        return DistanceResult(fin(2), connected.witness, "conditional",
                              connected.asserted_used, notes=(note,))
    return DistanceResult(fin(2), connected.witness, connected.status, notes=(note,))


class AmalgamationReport(NamedTuple):
    amalgamation: str  # holds | fails | undecidable
    amalgamation_witness: tuple[str, str, str] | None
    co_amalgamation: str
    co_amalgamation_witness: tuple[str, str, str] | None
    vacuous: bool
    undecided_pairs: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "amalgamation": self.amalgamation,
            "amalgamation_counterexample": self.amalgamation_witness,
            "co_amalgamation": self.co_amalgamation,
            "co_amalgamation_counterexample": self.co_amalgamation_witness,
            "vacuous": self.vacuous,
            "undecided_pairs": [list(p) for p in self.undecided_pairs],
        }


def _arrow_matrix(
    theories: Mapping[str, Theory], certificates: Iterable[EdgeCertificate], bound: int
) -> dict[tuple[str, str], bool | None]:
    """arrow[u, v] decides u <- v (v is u plus one axiom, up to logical
    equivalence) by axiom_add_exists: yes, no or unknown (None). Verified
    certificates add positives, closed under facts (1)-(3)."""
    names = list(theories)
    certificates = _node_certificates(
        theories, certificates, ("axiom-add", "collapse", "equiv"), bound)
    decided = {"yes": True, "no": False}  # unknown: None
    arrow = {
        (u, v): decided.get(axiom_add_exists(theories[u], theories[v], bound).answer)
        for u in names
        for v in names
    }
    for cert in certificates:
        if cert.kind != "equiv" and cert.status.verified:
            arrow[cert.source, cert.target] = True
    equiv_pairs = [
        (c.source, c.target) for c in certificates if c.kind == "equiv" and c.status.verified
    ]
    changed = True
    while changed:
        changed = False
        for u in names:
            for v in names:
                if arrow[u, v]:
                    for w in names:
                        if arrow[v, w] and not arrow[u, w]:
                            arrow[u, w] = True  # fact (1): transitivity
                            changed = True
        for x, y in equiv_pairs:
            for w in names:
                for p, q in ((x, y), (y, x)):
                    if arrow[q, w] and not arrow[p, w]:  # fact (2)
                        arrow[p, w] = True
                        changed = True
                    if arrow[w, q] and not arrow[w, p]:  # fact (3)
                        arrow[w, p] = True
                        changed = True
    return arrow


def check_amalgamation(
    theories: Mapping[str, Theory],
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
) -> AmalgamationReport:
    """Exhaustively check the theory (co-)amalgamation property over the
    catalog nodes. Reports the first counterexample triple, the pairs whose
    axiom-adding status stays unknown at the bound, and "undecidable" where
    such a pair leaves the verdict open."""
    names = list(theories)
    arrow = _arrow_matrix(theories, certificates, bound)
    undecided = tuple(p for p, v in arrow.items() if v is None)

    def decide(m) -> tuple[str, tuple | None]:
        # amalgamation on the matrix m, read in Kleene's three-valued logic:
        # t <- t1 and t <- t2 need a t' with t1 <- t' and t2 <- t'. The
        # first triple whose instance is false fails; failing none, the
        # first whose instance is unknown leaves the verdict undecidable
        nontrivial, first_open = False, None
        for t in names:
            for t1 in names:
                for t2 in names:
                    if t1 == t2 or m[t, t1] is False or m[t, t2] is False:
                        continue
                    decided = m[t, t1] is True and m[t, t2] is True
                    nontrivial |= decided
                    amalgams = [(m[t1, tp], m[t2, tp]) for tp in names]
                    if (True, True) in amalgams:
                        continue
                    if decided and all(False in pair for pair in amalgams):
                        return "fails", (t, t1, t2)
                    first_open = first_open or (t, t1, t2)
        if first_open:
            return "undecidable", first_open
        return ("holds", None) if nontrivial else ("holds-vacuously", None)

    # co-amalgamation is amalgamation with every arrow reversed
    am, am_w = decide(arrow)
    co, co_w = decide({(v, u): x for (u, v), x in arrow.items()})
    vacuous = am == "holds-vacuously" and co == "holds-vacuously"
    return AmalgamationReport(
        "holds" if am.startswith("holds") else am,
        am_w,
        "holds" if co.startswith("holds") else co,
        co_w,
        vacuous,
        undecided,
    )


# ---------------------------------------------------------------------------
# Lower-bound certificates for conceptual distance

def lower_bound_certificates(
    t1: Theory,
    t2: Theory,
    bound: int = DEFAULT_BOUND,
    rank_cap: int | None = None,
) -> LowerBoundEvidence:
    """Spectrum-based lower bounds on conceptual distance.

    A zero/nonzero spectrum mismatch at any computed size forces infinite
    distance. Otherwise, one concept step multiplies the size-k model
    count by at most 2^(k^m), m the maximal admitted rank, so the spectra
    ratio forces at least log_f(ratio) steps.

    Both arguments need the size-k structures told apart by the fragment,
    which takes k + 1 variables: with n the smaller variable bound, only
    sizes k <= n - 1 count, unless both theories are sentential (whose
    models are the same rows at every size).
    """
    if not (t1.lang.is_sentential and t2.lang.is_sentential):
        bound = min(bound, t1.lang.var_bound - 1, t2.lang.var_bound - 1)
    best = LowerBoundEvidence("none", fin(0))
    for k in range(1, feasible_bound(bound, (t1, t2)) + 1):
        c1, c2 = spectrum(t1, k), spectrum(t2, k)
        if (c1 == 0) != (c2 == 0):
            return LowerBoundEvidence(
                "spectrum-obstruction", INFINITY, size=k,
                ratio=(c1, c2),
                detail=f"I(T,{k})={c1} but I(T',{k})={c2}: finite distance "
                "preserves which sizes have models",
            )
        if rank_cap is None or c1 == 0:
            continue
        lo, hi = min(c1, c2), max(c1, c2)
        # the least s with lo * factor^s >= hi: lo is `doublings` doublings
        # short of hi, and one step, a factor of 2^(k^rank_cap), makes k^rank_cap
        doublings = ((hi - 1) // lo).bit_length()
        steps = -(-doublings // k**rank_cap)
        if steps > best.bound.value:
            factor = 1 << (k**rank_cap)
            best = LowerBoundEvidence(
                "growth-certificate", fin(steps), size=k, factor=factor,
                ratio=(hi, lo),
                detail=f"one step multiplies I(.,{k}) by at most {factor}",
            )
    if rank_cap is None:
        return LowerBoundEvidence("none", fin(0), detail="no rank cap, no growth bound")
    return best


def conceptual_distance(
    theories: Mapping[str, Theory],
    a: str,
    b: str,
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
    rank_cap: int | None = None,
) -> DistanceResult:
    """Step distance on (X, defeq, ~), with the strongest available lower
    bound attached. Distances are relative to the declared catalog; larger
    catalogs can only shrink them."""
    net = build_network(
        "conceptual", theories, certificates, "defeq", "concept", "symmetric", bound
    )
    result = step_distance(net, a, b)
    return _with_lower_bound(result, theories[a], theories[b], bound, rank_cap)


def _with_lower_bound(
    result: DistanceResult, t1: Theory, t2: Theory, bound: int, rank_cap: int | None
) -> DistanceResult:
    """A concept-step result with the strongest lower bound on the
    conceptual distance of t1 and t2 attached, and a note where the bound
    and the path disagree. With no path in a network that left nothing
    undecided out, the exhausted search's infinite bound stands unless the
    spectra give one as large."""
    evidence = lower_bound_certificates(t1, t2, bound, rank_cap)
    if result.lower_bound is not None and result.lower_bound.bound > evidence.bound:
        evidence = result.lower_bound
    notes = result.notes
    if result.value.is_finite:
        if evidence.kind == "spectrum-obstruction":
            notes = notes + (
                "spectrum obstruction contradicts the catalog path; "
                "an asserted or bounded certificate must be wrong",
            )
        elif evidence.bound > result.value:
            notes = notes + ("growth lower bound exceeds the path length",)
    return result._replace(lower_bound=evidence, notes=notes)


def faithful_interpretation_distance(
    theories: Mapping[str, Theory],
    a: str,
    b: str,
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
) -> DistanceResult:
    """Step distance on (X, ≡, I), I the symmetric faithful-interpretation
    relation supplied through certificates."""
    net = build_network(
        "faithful", theories, certificates, "logical", "faithful", "symmetric", bound
    )
    return step_distance(net, a, b)


def bidirected_conceptual_distance(
    theories: Mapping[str, Theory],
    a: str,
    b: str,
    certificates: Iterable[EdgeCertificate] = (),
    bound: int = DEFAULT_BOUND,
) -> DistanceResult:
    """Directed step distance on (X, defeq, ~> ∪ concept-removal); not
    symmetric, so query both orders to see the asymmetry."""
    net = build_network(
        "bidirected", theories, certificates, "defeq", "concept", "directed", bound
    )
    return directed_step_distance(net, a, b)


# ---------------------------------------------------------------------------
# Exact sentential conceptual-distance solver

class SolveResult(NamedTuple):
    distance: ExtNat
    witness: PathWitness | None
    chain: tuple[Theory, ...]
    certificates: tuple[EdgeCertificate, ...]
    lower_bound: LowerBoundEvidence | None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "distance": self.distance.to_json(),
            "witness": self.witness.to_json() if self.witness else None,
            "chain": [t.name for t in self.chain],
            "lower_bound": self.lower_bound.to_json() if self.lower_bound else None,
            "notes": list(self.notes),
        }


def _ladder_theory(index: int, consts: int, sat: int) -> Theory:
    # zero-padded names keep the fresh constant last in alphabetical order,
    # the lowest bit of a row index
    lang = Language.make(f"cdsolve.L{consts}", {f"K{i + 1:03d}": 0 for i in range(consts)}, 0)
    return theory_from_sat(f"cdsolve.{index}", lang, sat_rows(lang, sat))


def sentential_cd_solve(t1: Theory, t2: Theory) -> SolveResult:
    """Exact conceptual distance between sentential theories, searched over
    the space quotiented by definitional-equivalence class.

    The class of a consistent theory is its Sat-set cardinality (the
    empty-language theory sits apart: nothing translates into it), one
    concept step scales the cardinality by a factor in [1,2] up or down,
    so the distance is the least s with lo * 2^s >= hi, which meets the
    growth lower bound. The returned chain materializes concrete ladder
    theories with certificates, each sentential and so verified exactly.
    """
    for t in (t1, t2):
        if not t.lang.is_sentential:
            raise LanguageError("sentential_cd_solve needs sentential theories")
    s1, s2 = sat_assignments(t1).bit_count(), sat_assignments(t2).bit_count()
    if (s1 == 0) != (s2 == 0):
        evidence = LowerBoundEvidence(
            "spectrum-obstruction", INFINITY, size=1, ratio=(s1, s2),
            detail="an inconsistent theory is infinitely far from any consistent one",
        )
        return SolveResult(INFINITY, None, (), (), evidence)
    empty1, empty2 = not t1.lang.constants, not t2.lang.constants
    if empty1 and empty2:
        # both are the empty theory on the empty language
        return SolveResult(fin(0), PathWitness((t1.name,), ()), (t1,), (), None)

    # the chain is a list of (kind, theory) rungs up from its lower end
    notes: tuple[str, ...] = ()
    if s1 == s2 and not (empty1 or empty2):
        lo_th, steps, rungs = t1, 0, [("defeq", t2)]
    else:
        # on equal sizes the empty-language end is the lower one: nothing
        # translates into the empty language
        lo_th, hi_th = (t1, t2) if (s1, not empty1) <= (s2, not empty2) else (t2, t1)
        lo_n, hi_n = min(s1, s2), max(s1, s2)
        # one concept step at most doubles |Sat|
        steps = ((hi_n - 1) // lo_n).bit_length()
        if steps == 0:
            steps = 1  # leaving the empty language costs one concept step
            notes = ("empty-language endpoint: one step despite equal Sat size",)
        rungs, current, base_consts = [], lo_th, 0
        if lo_th.lang.constants:
            base_consts = max(1, (lo_n - 1).bit_length())
            current = _ladder_theory(0, base_consts, (1 << lo_n) - 1)
            rungs.append(("defeq", current))
        size_now = lo_n
        for i in range(steps):
            target = min(size_now * 2, hi_n)
            # each row r gains the fresh constant false (row 2r); the first
            # target - size_now rows also gain it true (row 2r + 1)
            sat = 0
            for idx, r in enumerate(_set_bits(sat_assignments(current))):
                sat |= (3 if idx < target - size_now else 1) << 2 * r
            current = _ladder_theory(i + 1, base_consts + i + 1, sat)
            rungs.append(("concept-add", current))
            size_now = target
        rungs.append(("defeq", hi_th))

    chain: list[Theory] = [lo_th]
    certs: list[EdgeCertificate] = []
    path_steps: list[PathStep] = []
    for kind, nxt in rungs:
        cur = chain[-1]
        cert = EdgeCertificate(kind, cur.name, nxt.name)
        _verify_between(cert, cur, nxt, DEFAULT_BOUND)
        if not cert.status.verified:
            raise AssertionError(f"solver certificate failed: {cert.status}")
        bit = int(kind == "concept-add")
        path_steps.append(PathStep(cur.name, nxt.name, bit, kind, cert.label(), cert.status.state))
        certs.append(cert)
        chain.append(nxt)
    if lo_th is not t1:
        path_steps = [
            PathStep(s.target, s.source, s.bit, s.kind, s.edge_label, s.state)
            for s in reversed(path_steps)
        ]
        chain.reverse()
    witness = PathWitness(tuple(t.name for t in chain), tuple(path_steps))
    evidence = lower_bound_certificates(t1, t2, bound=1, rank_cap=0) if s1 else None
    return SolveResult(fin(steps), witness, tuple(chain), tuple(certs), evidence, notes)


# ---------------------------------------------------------------------------
# Exports

def export_dot(net: ClusterNetwork) -> str:
    """Equivalence edges dashed and undirected; step edges solid, labeled
    by certificate kind, directed when the network is."""
    lines = [f'digraph "{net.name}" {{']
    for n in net.nodes:
        lines.append(f'  "{n}";')
    for e in net.edges:
        attrs = []
        if e.weight == 0:
            attrs.append("style=dashed")
            attrs.append("dir=none")
        else:
            attrs.append(f'label="{e.kind}"')
            if not e.directed:
                attrs.append("dir=none")
        if e.state() == ASSERTED:
            attrs.append('color=red')
        lines.append(f'  "{e.a}" -> "{e.b}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines)


def export_json(net: ClusterNetwork) -> dict:
    return {
        "name": net.name,
        "mode": net.mode,
        "nodes": list(net.nodes),
        "edges": [
            {
                "from": e.a,
                "to": e.b,
                "weight": e.weight,
                "kind": e.kind,
                "directed": e.directed,
                "state": e.state(),
                "certificate": e.label(),
            }
            for e in net.edges
        ],
    }
