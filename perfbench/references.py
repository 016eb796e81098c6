"""Answers the benchmark checks thdist against, none of them produced by thdist.

The certificate table and the session answers are written by hand from
the worked examples; distances on random networks come from a
Floyd-Warshall oracle; posets on four points come from a brute-force
search over all relations.
"""

from __future__ import annotations

import itertools
import math

# Certificate label -> (state, bound) that `verify_certificate` must give at
# the catalog policy (size-cap 4).  Sentential certificates are decided
# exactly; first-order ones hold on every model up to their bound.
CERT_STATUS = {
    **{label: ("verified-exact", None) for label in (
        "ladder01", "ladder12", "ladder23", "ladder34",
        "add-p", "add-contradiction", "conj-split", "collapse-pq", "unprove-p",
        "four-add3", "four-add4", "four-remove", "four-defeq",
    )},
    **{label: ("verified-bounded", 4) for label in (
        "poset-axioms", "eqrel-axioms",
        "bot-from-empty", "bot-from-posets", "bot-from-eqrels", "strict-defeq",
    )},
    "kin-ether": ("verified-bounded", 3),
    "kin-embed": ("verified-bounded", 3),
    "kin-defeq": ("asserted", None),
}

# I(T, k) for k = 1..4: posets, strict orders (the same count) and
# equivalence relations (the partition numbers).
SPECTRA = {
    "Posets": {"1": 1, "2": 2, "3": 5, "4": 16},
    "PosetsLt": {"1": 1, "2": 2, "3": 5, "4": 16},
    "Eqrels": {"1": 1, "2": 2, "3": 3, "4": 5},
}


def check_cert_status(label: str, state: str, bound) -> str | None:
    """None when the status matches the table, else what went wrong."""
    expected = CERT_STATUS.get(label)
    if expected is None:
        return f"{label}: not in the reference table"
    if (state, bound) != expected:
        return f"{label}: got {state} at bound {bound}, expected {expected[0]} at {expected[1]}"
    return None


# ---------------------------------------------------------------------------
# Distances on cluster networks

def oracle_matrix(nodes, edges, directed: bool) -> tuple[dict[str, int], list[list[float]]]:
    """Contract the 0-edges with union-find, then Floyd-Warshall over the
    components; `edges` are (a, b, weight) and step edges run a -> b only
    when `directed`."""
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, w in edges:
        if w == 0:
            parent[find(a)] = find(b)
    comps = sorted({find(n) for n in nodes})
    index = {c: i for i, c in enumerate(comps)}
    comp_of = {n: index[find(n)] for n in nodes}
    m = len(comps)
    dist = [[math.inf] * m for _ in range(m)]
    for i in range(m):
        dist[i][i] = 0
    for a, b, w in edges:
        if w == 1:
            i, j = comp_of[a], comp_of[b]
            dist[i][j] = min(dist[i][j], 1)
            if not directed:
                dist[j][i] = min(dist[j][i], 1)
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


def check_distance(answer, a: str, b: str, expected: float, moves: set) -> str | None:
    """Compare a DistanceResult with the oracle and walk its witness.

    `moves` holds the (from, to, bit) steps the network allows.
    """
    value = answer.value.value
    got = math.inf if value is None else value
    if got != expected:
        return f"d({a},{b}) = {got}, oracle {expected}"
    if value is None:
        return None if answer.witness is None else f"d({a},{b}) infinite with a witness"
    witness = answer.witness
    if witness is None or witness.length != value:
        return f"d({a},{b}) witness length differs from {value}"
    if witness.nodes[0] != a or witness.nodes[-1] != b:
        return f"d({a},{b}) witness runs {witness.nodes[0]}..{witness.nodes[-1]}"
    here = a
    for step in witness.steps:
        if step.source != here or (step.source, step.target, step.bit) not in moves:
            return f"d({a},{b}) witness uses a missing edge {step.source}->{step.target}"
        here = step.target
    return None


# ---------------------------------------------------------------------------
# Posets on four points

def _is_poset(rel: frozenset, k: int) -> bool:
    if any((i, i) not in rel for i in range(k)):
        return False
    if any((b, a) in rel for a, b in rel if a != b):
        return False
    return all((a, d) in rel for a, b in rel for c, d in rel if b == c)


def _relabel(rel, perm) -> frozenset:
    return frozenset((perm[a], perm[b]) for a, b in rel)


def posets(k: int = 4) -> list[frozenset]:
    """One labelled poset per isomorphism class on k points."""
    off = [(a, b) for a in range(k) for b in range(k) if a != b]
    diag = {(i, i) for i in range(k)}
    perms = list(itertools.permutations(range(k)))
    seen: set[frozenset] = set()
    reps = []
    for bits in range(1 << len(off)):
        rel = frozenset(diag | {p for i, p in enumerate(off) if bits >> i & 1})
        if rel in seen or not _is_poset(rel, k):
            continue
        reps.append(rel)
        seen.update(_relabel(rel, p) for p in perms)
    return reps


def pair_orbits(rel: frozenset, k: int) -> int:
    """Number of orbits of the automorphism group on ordered pairs."""
    autos = [p for p in itertools.permutations(range(k)) if _relabel(rel, p) == rel]
    orbits = {
        frozenset((p[a], p[b]) for p in autos)
        for a in range(k)
        for b in range(k)
    }
    return len(orbits)


def same_up_to_iso(a: frozenset, b: frozenset, k: int) -> bool:
    return any(_relabel(a, p) == b for p in itertools.permutations(range(k)))


# A poset whose pairs fall into at most this many automorphism orbits has a
# two-variable closure of at most 2**10 relations, which keeps `closure`
# under a tenth of a second; rigid posets would need 2**16.
MAX_CLOSURE_ORBITS = 10


def closure_candidates() -> list[frozenset]:
    return [rel for rel in posets(4) if pair_orbits(rel, 4) <= MAX_CLOSURE_ORBITS]


# ---------------------------------------------------------------------------
# The workbench session

def _dist(value, status=None):
    def check(out):
        if out.get("distance") != value:
            return f"distance {out.get('distance')}, expected {value}"
        if status is not None and out.get("status") != status:
            return f"status {out.get('status')}, expected {status}"
        return None
    return check


def _spectrum(name):
    def check(out):
        if out.get("spectrum") != SPECTRA[name]:
            return f"spectrum {out.get('spectrum')}, expected {SPECTRA[name]}"
        return None
    return check


def _models(out):
    if out.get("count") != 16 or len(out.get("models", ())) != 16:
        return f"{out.get('count')} posets of size 4, expected 16"
    rels = []
    for m in out["models"]:
        rel = frozenset(tuple(t) for t in m["interp"]["R"])
        if m["size"] != 4 or not _is_poset(rel, 4):
            return f"not a poset on 4 points: {m}"
        rels.append(rel)
    for i, a in enumerate(rels):
        if any(same_up_to_iso(a, b, 4) for b in rels[i + 1:]):
            return "two isomorphic posets listed"
    return None


def _cz_sentpq(out):
    # one satisfying row, so the Lindenbaum algebra has 2**1 elements
    if out.get("value") != 2 or out.get("lower_bound") is not False:
        return f"Cz(SentPQ) = {out.get('value')}, expected exactly 2"
    return None


def _cz_posets(out):
    if out.get("lower_bound") is not True or not out.get("value", 0) >= 1:
        return f"Cz(Posets) should be a positive lower bound, got {out}"
    return None


def _export(out):
    nodes = [f"TStar{i}" for i in range(5)]
    steps = {(e["from"], e["to"], e["weight"]) for e in out.get("edges", ())}
    expected = {(nodes[i], nodes[i + 1], 1) for i in range(4)}
    if out.get("nodes") != nodes or steps != expected:
        return f"Ladder export differs: {out.get('nodes')} {sorted(steps)}"
    return None


def _check(out):
    if out.get("errors"):
        return f"check reported errors {out['errors']}"
    problems = [
        check_cert_status(c["name"], c["status"]["state"], c["status"].get("bound"))
        for c in out.get("certificates", ())
    ]
    problems = [p for p in problems if p]
    if len(out.get("certificates", ())) != len(CERT_STATUS) or problems:
        return "; ".join(problems) or "check listed the wrong certificates"
    return None


def _classify(out):
    if out.get("distance") != 2:
        return f"Ad(Posets, Eqrels) = {out.get('distance')}, expected 2"
    return None


def session_commands(closure_file: str, orbits: int) -> dict[str, tuple[list[str], object]]:
    """Operation id -> (CLI arguments, answer check on the JSON output).

    `closure_file` holds a poset whose pairs fall into `orbits`
    automorphism orbits."""
    return {
        "classify-ad": (["classify-ad", "BinAx", "Posets", "Eqrels"], _classify),
        "dist-Ladder": (["dist", "Ladder", "TStar0", "TStar4"], _dist(4, "exact")),
        "dist-FourDir-fwd": (["dist", "FourDir", "FourT1", "FourT2", "--directed"], _dist(2)),
        "dist-FourDir-back": (["dist", "FourDir", "FourT2", "FourT1", "--directed"], _dist(1)),
        "dist-KinCd": (["dist", "KinCd", "KinBase", "KinTarget"], _dist(1, "conditional")),
        "dist-PureCd": (["dist", "PureCd", "PureTwo", "PureThree"], _dist("infinity")),
        "spectrum-Posets": (["spectrum", "Posets", "--max-size", "4"], _spectrum("Posets")),
        "spectrum-Eqrels": (["spectrum", "Eqrels", "--max-size", "4"], _spectrum("Eqrels")),
        "spectrum-PosetsLt": (["spectrum", "PosetsLt", "--max-size", "4"], _spectrum("PosetsLt")),
        "models-Posets": (["models", "Posets", "--size", "4"], _models),
        "closure": (["closure", closure_file, "--vars", "2"], lambda out: _closure(out, orbits)),
        "cz-SentPQ": (["cz", "SentPQ"], _cz_sentpq),
        "cz-Posets": (["cz", "Posets", "--max-size", "4", "--depth", "3"], _cz_posets),
        "export": (["export", "Ladder"], _export),
        "check": (["check", "src/thdist/data/paper_examples.cat"], _check),
    }


def _closure(out, orbits: int) -> str | None:
    # every automorphism orbit of pairs is two-variable definable for these
    # posets, so the closure is the full Boolean algebra over the orbits
    if out.get("count") != 2 ** orbits:
        return f"closure has {out.get('count')} relations, expected 2**{orbits}"
    return None
