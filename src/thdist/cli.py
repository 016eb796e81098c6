"""Command-line front end.

Theories and networks are addressed as ``CATALOG.cat:Name``; a bare name
resolves against the built-in worked-example catalog. Output is JSON
unless --human is given. Exit codes: 0 success, 1 refuted certificates,
2 input errors, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cache import activate_cache
from .catalog import (
    Catalog,
    catalog_distance,
    catalog_network,
    load_catalog,
    loads_catalog,
    shipped_catalog_text,
    verify_all,
)
from .concepts import closure_to_json, concept_closure, cz_lower_bound, cz_sentential
from .errors import CapExceededError, ThdistError
from .network import check_amalgamation, classify_ad, export_dot, export_json
from .semantics import (
    enumerate_models,
    model_lang_from_json,
    model_to_dict,
    model_to_json,
    spectrum,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_ref(ref: str) -> tuple[Catalog, str]:
    """Split CATALOG:NAME; bare names use the built-in catalog."""
    if ":" in ref:
        path, name = ref.rsplit(":", 1)
        return load_catalog(path), name
    return loads_catalog(shipped_catalog_text(), "paper_examples.cat"), ref


def _emit(args, payload: dict, human: str | None = None) -> None:
    if args.human and human is not None:
        print(human)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_check(args) -> int:
    catalog = load_catalog(args.catalog)
    report = verify_all(catalog, args.cap)
    _emit(
        args,
        report.to_json(),
        "\n".join(
            f"{state:>16}: {', '.join(sorted(names))}"
            for state, names in sorted(report.grouped().items())
        ),
    )
    if report.errors:
        return EXIT_INPUT
    if report.refuted and not args.allow_refuted_prune:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_models(args) -> int:
    catalog, name = _load_ref(args.theory)
    theory = catalog.theory(name)
    models = enumerate_models(theory, args.size)
    if args.human:
        print("\n".join(model_to_json(m) for m in models) or "(none)")
        return EXIT_OK
    payload = {
        "theory": name,
        "size": args.size,
        "count": len(models),
        "models": [model_to_dict(m) for m in models],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    catalog, name = _load_ref(args.theory)
    theory = catalog.theory(name)
    counts = {k: spectrum(theory, k) for k in range(1, args.max_size + 1)}
    payload = {
        "theory": name,
        "spectrum": {str(k): v for k, v in counts.items()},
        "exact": theory.lang.is_sentential,
        "has_models_at_every_size_up_to_bound": all(counts.values()),
    }
    human = "\n".join(f"I({name},{k}) = {v}" for k, v in counts.items())
    _emit(args, payload, human)
    return EXIT_OK


def cmd_cz(args) -> int:
    catalog, name = _load_ref(args.theory)
    theory = catalog.theory(name)
    if theory.lang.is_sentential:
        value = cz_sentential(theory)
    else:
        value = cz_lower_bound(theory, args.max_size)
    payload = {
        "theory": name,
        "value": value.value,
        "method": value.method,
        "lower_bound": value.lower_bound,
    }
    if value.detail:
        payload["detail"] = value.detail
    # a lower bound is 2^types, up to 1,234 digits
    shown = f">= 2^{value.value.bit_length() - 1}" if value.lower_bound else f"= {value.value}"
    _emit(args, payload, f"Cz({name}) {shown} [{value.method}]")
    return EXIT_OK


def cmd_closure(args) -> int:
    text = Path(args.model).read_bytes()
    _, model = model_lang_from_json(text, args.vars)
    closure = concept_closure(model)
    payload = closure_to_json(closure)
    _emit(args, payload, f"closure has {payload['count']} definable relations")
    return EXIT_OK


def cmd_dist(args) -> int:
    catalog, name = _load_ref(args.network)
    result = catalog_distance(catalog, name, args.t1, args.t2, directed=args.directed)
    human = f"d({args.t1}, {args.t2}) = {result.value} [{result.status}]"
    if result.asserted_used:
        human += f" via asserted {', '.join(result.asserted_used)}"
    _emit(args, result.to_json(), human)
    return EXIT_OK


def cmd_classify_ad(args) -> int:
    catalog, name = _load_ref(args.network)
    theories = {n: catalog.theory(n) for n in catalog.network_decl(name).nodes}
    certificates = catalog.certificates  # each reader keeps those between nodes
    if args.assume_amalgamation:
        flag = "asserted"
        amalgamation = None
    else:
        report = check_amalgamation(theories, certificates, catalog.policy.size_cap)
        amalgamation = report.to_json()
        if report.amalgamation != "holds" and report.co_amalgamation != "holds":
            _emit(args, {"error": "amalgamation not established", "report": amalgamation})
            return EXIT_INPUT
        flag = "verified"
    result = classify_ad(
        theories, args.t1, args.t2, certificates, catalog.policy.size_cap, amalgamation=flag
    )
    payload = result.to_json()
    if amalgamation is not None:
        payload["amalgamation_report"] = amalgamation
    _emit(args, payload, f"Ad({args.t1}, {args.t2}) = {result.value}")
    return EXIT_OK


def cmd_export(args) -> int:
    catalog, name = _load_ref(args.network)
    net = catalog_network(catalog, name)
    if args.format == "dot":
        print(export_dot(net))
    else:
        print(json.dumps(export_json(net), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_paper_suite(args) -> int:
    from .paper_suite import run_paper_suite

    echo = print if args.human else None
    suite = run_paper_suite(echo=echo)
    if not args.human:
        print(json.dumps(suite.to_json(), indent=2, sort_keys=True))
    else:
        print("all passed" if suite.passed else "FAILURES present")
    return EXIT_OK if suite.passed else EXIT_REFUTED


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`, so a bad size
    is an input error (exit 2) before any command runs."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thdist",
        description="distances between formal theories: catalogs, certificates, networks",
    )
    parser.add_argument("--version", action="version", version=f"thdist {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--human", action="store_true", help="human-readable output instead of JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("check", help="load a catalog and verify every certificate")
    p.add_argument("catalog")
    p.add_argument("--cap", type=_at_least(1), default=None, help="override the size bound K")
    p.add_argument(
        "--allow-refuted-prune",
        action="store_true",
        help="do not fail the run on refuted certificates",
    )
    p.set_defaults(fn=cmd_check)

    p = add_parser("models", help="canonical size-k models of a theory")
    p.add_argument("theory", help="CATALOG:NAME (bare name: built-in catalog)")
    p.add_argument("--size", type=_at_least(1), required=True)
    p.set_defaults(fn=cmd_models)

    p = add_parser("spectrum", help="I(T,k) for k = 1..K")
    p.add_argument("theory")
    p.add_argument("--max-size", type=_at_least(1), default=4)
    p.set_defaults(fn=cmd_spectrum)

    p = add_parser("cz", help="conceptual size (exact or lower bound)")
    p.add_argument("theory")
    p.add_argument("--max-size", type=_at_least(1), default=4)
    # ignored: the bound needs no depth, but perfbench's cz-Posets command
    # (perfbench/references.py) still passes --depth 3
    p.add_argument("--depth", type=_at_least(0), help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_cz)

    p = add_parser("closure", help="definable-relation closure of a model JSON")
    p.add_argument("model")
    p.add_argument("--vars", type=int, required=True)
    p.set_defaults(fn=cmd_closure)

    p = add_parser("dist", help="distance between two theories on a network")
    p.add_argument("network")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(fn=cmd_dist)

    p = add_parser("classify-ad", help="the {0,1,2,infinity} classification")
    p.add_argument("network")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument(
        "--assume-amalgamation",
        action="store_true",
        help="take the amalgamation property on trust instead of checking",
    )
    p.set_defaults(fn=cmd_classify_ad)

    p = add_parser("export", help="export a network as dot or JSON")
    p.add_argument("network")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(fn=cmd_export)

    p = add_parser("paper-suite", help="run the built-in regression suite")
    p.set_defaults(fn=cmd_paper_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    activate_cache()
    try:
        return args.fn(args)
    except (ThdistError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
