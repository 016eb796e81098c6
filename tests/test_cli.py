from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from thdist.catalog import loads_catalog, shipped_catalog_text
from thdist.cli import main
from thdist.concepts import cz_of_model
from thdist.semantics import enumerate_models, model_lang_from_json, model_to_json

ROOT = Path(__file__).resolve().parent.parent
GOOD_CAT = (
    '(language L (P 0) (Q 0) :vars 0)\n'
    '(theory A :over L :axioms "P")\n'
    '(theory B :over L :axioms "P" "Q")\n'
    '(certificate :kind axiom-add :from A :to B :axiom "Q")\n'
    '(network N :equiv logical :step axiom :nodes A B)\n'
)


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.delenv("THDIST_CACHE_DIR", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_good_catalog(tmp_path, capsys):
    path = tmp_path / "good.cat"
    path.write_text(GOOD_CAT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == {"verified-exact": 1}


def test_check_refuted_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_text(GOOD_CAT.replace(':axiom "Q"', ':axiom "(not Q)"'))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    code, out, _ = run(capsys, "check", str(path), "--allow-refuted-prune")
    assert code == 0


def test_check_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cat"
    path.write_text("(theory T :over Missing)")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and "Missing" in err


def test_check_refuses_a_catalog_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.cat"
    path.write_bytes(b"\xff\xfe" + GOOD_CAT.encode("utf-16-le"))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"{path} is not UTF-8 text: ")


@pytest.mark.parametrize("policy, message", [
    ("(policy :size-cap 0)", ":size-cap is at least 1, got 0 (at 1:19)"),
    ("(policy :var-cap -1)", ":var-cap is at least 0, got -1 (at 1:18)"),
])
def test_check_policy_cap_below_its_least_value_exit_code(tmp_path, capsys, policy, message):
    # not a cap error (exit 3) for every certificate: an input error at the token
    path = tmp_path / "policy.cat"
    path.write_text(policy + "\n" + GOOD_CAT)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message}


@pytest.mark.parametrize("bound", [0, -1])
def test_check_certificate_bound_below_one_exit_code(tmp_path, capsys, bound):
    path = tmp_path / "bound.cat"
    path.write_text(GOOD_CAT.replace(':axiom "Q"', f':axiom "Q" :bound {bound}'))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"a certificate bound is at least 1, got {bound} (at 4:62)"


PARAM_IMAGE_CAT = (
    "(language LP (P 1) :vars 2)\n"
    "(language LR (R 2) :vars 3)\n"
    "(theory FreeP :over LP)\n"
    "(theory FreeR :over LR)\n"
    '(certificate :name param-image :kind faithful :from FreeP :to FreeR :tr ((P "(R v0 v1)")))\n'
)


def test_check_refutes_an_image_that_defines_no_relation(tmp_path, capsys):
    # (iff (forall v1 (P v0)) (P v0)) is valid; its translation fails in R = {(0, 0)}
    path = tmp_path / "param.cat"
    path.write_text(PARAM_IMAGE_CAT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert json.loads(out)["certificates"][0]["status"] == {
        "bound": 4,
        "note": "theoremhood not preserved: the image of P varies along v1",
        "state": "refuted",
        "witness": 'FiniteModel(LR, {"interp": {"R": [[0, 0]]}, "size": 2})',
    }
    # an image free past the source's two variables is an input error
    path.write_text(PARAM_IMAGE_CAT.replace('"(R v0 v1)"', '"(R v0 v2)"'))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("image of P is free in v2")


def test_models_and_spectrum_builtin(capsys):
    code, out, _ = run(capsys, "models", "TStar1", "--size", "1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    code, out, _ = run(capsys, "spectrum", "Posets", "--max-size", "3")
    data = json.loads(out)
    assert code == 0 and data["spectrum"] == {"1": 1, "2": 2, "3": 5}
    assert data["exact"] is False and data["has_models_at_every_size_up_to_bound"] is True
    code, out, _ = run(capsys, "spectrum", "PureTwo", "--max-size", "3")
    assert code == 0 and json.loads(out)["has_models_at_every_size_up_to_bound"] is False
    code, out, _ = run(capsys, "spectrum", "SentP")
    assert code == 0 and json.loads(out)["exact"] is True


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "models", "Posets", "--size", "9")
    assert code == 3


def test_dist_and_export(tmp_path, capsys):
    path = tmp_path / "good.cat"
    path.write_text(GOOD_CAT)
    code, out, _ = run(capsys, "dist", f"{path}:N", "A", "B")
    assert code == 0
    assert json.loads(out)["distance"] == 1
    code, out, _ = run(capsys, "export", f"{path}:N", "--format", "dot")
    assert code == 0 and out.startswith('digraph "N"')


# T's spectrum at sizes 1-4 is 2, 0, 1, 2, but an L^2 sentence over pure
# equality can only say "one element" or "more than one", so T is
# conservative over Set in L^2: its missing 2-element model is evidence that
# needs 3 variables, and must neither refute the certificate nor obstruct
# the distance.
TWO_VARIABLE_CAT = (
    "(policy :size-cap 4 :rank-cap 3 :var-cap 6)\n"
    "(language Eq :vars 2)\n"
    "(language LE (E 2) :vars 2)\n"
    "(theory Set :over Eq :axioms)\n"
    '(theory T :over LE :axioms "(or (forall v0 (forall v1 (= v0 v1))) '
    "(and (forall v0 (not (E v0 v0))) (and (forall v0 (forall v1 (implies "
    "(not (= v0 v1)) (iff (E v0 v1) (not (E v1 v0)))))) "
    '(forall v0 (exists v1 (E v0 v1))))))")\n'
    "(certificate :kind concept-add :from Set :to T :bound 4)\n"
    "(network N :equiv defeq :step concept :mode symmetric :nodes Set T)\n"
)


def test_size_evidence_beyond_the_variable_bound_decides_nothing(tmp_path, capsys):
    path = tmp_path / "two.cat"
    path.write_text(TWO_VARIABLE_CAT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == {"undecided": 1}
    status = data["certificates"][0]["status"]
    assert status["state"] == "undecided" and status["bound"] == 2
    code, out, _ = run(capsys, "dist", f"{path}:N", "Set", "T")
    assert code == 0
    data = json.loads(out)
    evidence = data["lower_bound"]
    assert evidence["kind"] == "growth-certificate" and evidence["size"] == 1
    # the undecided concept-add builds no edge, so "no path" is not exact
    assert data["distance"] == "infinity" and data["status"] == "bounded"
    assert data["notes"] == ["undecided certificates left out: c0"]
    # nor is it a lower bound, in either mode
    code, out, _ = run(capsys, "dist", f"{path}:N", "Set", "T", "--directed")
    assert code == 0 and json.loads(out)["lower_bound"] is None


def test_dist_builtin_human(capsys):
    code, out, _ = run(capsys, "dist", "Ladder", "TStar0", "TStar2", "--human")
    assert code == 0 and "= 2" in out


def test_cz_builtin(capsys):
    code, out, _ = run(capsys, "cz", "SentPQ")
    assert code == 0 and json.loads(out)["value"] == 2


@pytest.mark.parametrize("argv", [
    ("spectrum", "Posets", "--max-size", "0"),
    ("spectrum", "Posets", "--max-size", "-2"),
    ("cz", "Posets", "--max-size", "0"),
    ("cz", "Posets", "--depth", "-1"),
    ("models", "Posets", "--size", "0"),
    ("models", "Posets", "--size", "two"),
    ("check", "catalog.cat", "--cap", "0"),
])
def test_sizes_are_checked_before_a_command_runs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "expected an integer" in out.err


def test_cz_at_depth_zero_runs(capsys):
    # --depth is hidden and ignored: the bound 2^types needs no depth
    code, out, _ = run(capsys, "cz", "Posets", "--max-size", "2", "--depth", "0")
    assert code == 0 and "depth" not in json.loads(out)
    assert run(capsys, "cz", "Posets", "--max-size", "2") == (code, out, "")


_NOT_A_MODEL = (
    'a model is an object with an integer "size", an "interp" object and optional integer "ranks"'
)


@pytest.mark.parametrize("model, message", [
    ('{"size": 0, "interp": {"R": []}, "ranks": {"R": 2}}', "models have non-empty universes"),
    ('{"size": 2, "interp": {"R": [[0, 2]]}}', "tuple (0, 2) out of bounds for R/2"),
    ('{"size": 2, "interp": {"R": [[0, 1], [1]]}}', "tuple (1,) out of bounds for R/2"),
    ('{"size": 2, "interp": {"R": []}}', "empty relation R needs an entry in 'ranks'"),
    ('{"size": 2, "interp": {"r!": true}}', "bad symbol name 'r!'"),
    # not a model at all: each an input error, not a traceback (exit 1)
    ("not json", "model is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"\x80{}", "model is not JSON: 'utf-8' codec can't decode byte 0x80 in position 0: "
     "invalid start byte"),
    ("[1, 2]", _NOT_A_MODEL),
    ('{"size": 2}', _NOT_A_MODEL),
    ('{"size": "x", "interp": {"R": [[0, 1]]}}', _NOT_A_MODEL),
    ('{"size": 2, "interp": {"R": [[0, 1]]}, "ranks": {"R": "2"}}', _NOT_A_MODEL),
    ('{"size": 2, "interp": {"R": 5}}', "R is neither a boolean nor a list of integer tuples"),
    ('{"size": 2, "interp": {"R": [[0, "a"]]}}', "R is neither a boolean nor a list of integer tuples"),
])
def test_closure_refuses_a_malformed_model(tmp_path, capsys, model, message):
    path = tmp_path / "m.json"
    path.write_bytes(model if isinstance(model, bytes) else model.encode())
    code, out, err = run(capsys, "closure", str(path), "--vars", "2")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message}


def test_closure_command(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text('{"size": 2, "interp": {"R": [[0, 1]]}}')
    code, out, _ = run(capsys, "closure", str(model), "--vars", "2")
    assert code == 0 and json.loads(out)["count"] == 16


def test_classify_ad_builtin(capsys):
    code, out, _ = run(capsys, "classify-ad", "SentAx", "SentP", "SentPQ")
    assert code == 0
    assert json.loads(out)["distance"] == 1


def test_classify_ad_first_order_amalgamation_report(capsys):
    # every BinAx pair is decided: none is left in undecided_pairs
    code, out, _ = run(capsys, "classify-ad", "BinAx", "Posets", "Eqrels")
    data = json.loads(out)
    assert code == 0 and data["distance"] == 2
    assert data["amalgamation_report"] == {
        "amalgamation": "holds",
        "amalgamation_counterexample": None,
        "co_amalgamation": "holds",
        "co_amalgamation_counterexample": None,
        "undecided_pairs": [],
        "vacuous": False,
    }


@pytest.mark.parametrize("node", ["Nope", "TStar0"])
def test_classify_ad_unknown_node_is_an_input_error(capsys, node):
    # TStar0 is a catalog theory, but not a node of BinAx
    code, out, err = run(capsys, "classify-ad", "BinAx", "Posets", node)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"unknown node in distance query: 'Posets' or '{node}'"}


def test_orbit_plan_cap_exit_code(tmp_path, capsys):
    # :size-cap 9 only sets K; size 9 is past MAX_SIZE, since its canonicity
    # test would take 9! permutations: refused before their maps are built
    path = tmp_path / "wide.cat"
    path.write_text(
        "(policy :size-cap 9)\n(language U (P 1) :vars 1)\n(theory T :over U)\n"
    )
    code, out, err = run(capsys, "models", f"{path}:T", "--size", "9")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "size 9 exceeds cap 8"}


def test_truth_table_cap_exit_code(tmp_path, capsys):
    consts = " ".join(f"(C{i:02d} 0)" for i in range(22))
    path = tmp_path / "wide.cat"
    path.write_text(f"(language S22 {consts} :vars 0)\n(theory T :over S22)\n")
    code, _, err = run(capsys, "cz", f"{path}:T")
    assert code == 3 and "truth-table rows" in err


@pytest.mark.parametrize("theory, size", [("SentP", 2), ("TStar2", 1), ("Posets", 3)])
def test_models_output_is_model_to_json(capsys, theory, size):
    models = enumerate_models(
        loads_catalog(shipped_catalog_text()).theory(theory), size
    )
    code, out, _ = run(capsys, "models", theory, "--size", str(size))
    expected = {
        "theory": theory,
        "size": size,
        "count": len(models),
        "models": [json.loads(model_to_json(m)) for m in models],
    }
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "models", theory, "--size", str(size), "--human")
    assert code == 0
    assert out == "\n".join(model_to_json(m) for m in models) + "\n"


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # pytest imports both itself, so the check needs a fresh interpreter
    code = (
        "import sys, thdist.cli\n"
        "from thdist.catalog import loads_catalog, shipped_catalog_text\n"
        "loads_catalog(shipped_catalog_text())\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": "src"}
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "disk-cache"])
def test_no_command_loads_openssl(tmp_path, cached):
    # theories are keyed by their canonical text, so no command needs
    # hashlib's OpenSSL backend; pytest imports it itself, hence a fresh
    # interpreter. With the disk cache the second spectrum reads the records
    # the first one wrote.
    code = (
        "import contextlib, io, sys\n"
        "from thdist.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['spectrum', 'Posets']) for _ in range(2)]\n"
        "    codes.append(main(['check', 'src/thdist/data/paper_examples.cat']))\n"
        "print(codes, '_hashlib' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "THDIST_CACHE_DIR"}
    env["PYTHONPATH"] = "src"
    if cached:
        env["THDIST_CACHE_DIR"] = str(tmp_path)
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[0, 0, 0] False"
    assert bool(list(tmp_path.rglob("*.json"))) == cached


def _fresh_env(**extra: str) -> dict[str, str]:
    # stdout block-buffered, as a user's shell leaves it, so that what a
    # command prints reaches its pipe at the flush
    drop = {"THDIST_CACHE_DIR", "PYTHONUNBUFFERED"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    return {**env, "PYTHONPATH": "src", **extra}


@pytest.mark.parametrize("code, argv", [
    (0, ["spectrum", "Posets"]),
    (1, ["check", "{tmp}/wrong.cat"]),
    (2, ["check", "{tmp}/typo.cat"]),
    (3, ["closure", "{tmp}/chain.json", "--vars", "2"]),
], ids=["ok", "refuted", "input", "cap"])
def test_a_fresh_process_loses_no_output_at_exit(tmp_path, capsys, code, argv):
    # a command's process exits with its heap frozen, not collected: what it
    # prints and returns must be what main gives in-process, byte for byte
    (tmp_path / "wrong.cat").write_text(  # the strict-defeq images negated, as in CI
        shipped_catalog_text().replace("(or (lt v0 v1) (= v0 v1))", "(not (lt v0 v1))")
        .replace("(and (leq v0 v1) (not (= v0 v1)))", "(not (leq v0 v1))")
    )
    (tmp_path / "typo.cat").write_text(
        '(language Bin (R 2) :vars 3)\n(theory T :over Bin :axiom "(forall v0 (R v0 v0))")\n'
    )
    chain = [[a, b] for a in range(4) for b in range(4) if a <= b]
    (tmp_path / "chain.json").write_text(json.dumps({"size": 4, "interp": {"R": chain}}))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    fresh = subprocess.run([sys.executable, "-m", "thdist.cli", *argv], cwd=ROOT,
                           env=_fresh_env(), capture_output=True, timeout=300)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (got, out.encode(), err.encode())


def test_main_freezes_the_heap_only_at_exit(capsys):
    # in-process callers keep a working collector, so the tests that count
    # cycles stay meaningful (3.12.1 starts with 375 objects frozen)
    frozen = gc.get_freeze_count()
    for _ in range(2):
        assert run(capsys, "spectrum", "SentP")[0] == 0
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    # however often main runs, its process exits through one freeze: a hook
    # registered before main runs after the freeze and counts the calls
    code = (
        "import atexit, contextlib, gc, io\n"
        "calls = []\n"
        "gc.freeze = lambda: calls.append(1)\n"
        "atexit.register(lambda: print(len(calls)))\n"
        "from thdist.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['spectrum', 'SentP']) for _ in range(3)]\n"
        "print(codes)\n"
    )
    fresh = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_fresh_env(),
                           capture_output=True, text=True, timeout=300)
    assert (fresh.stdout, fresh.stderr) == ("[0, 0, 0]\n1\n", "")


def test_a_check_relies_on_no_teardown(tmp_path):
    # under -X dev -W error a file left open at exit, or any warning, would
    # reach stderr; the cache records are complete before the process ends
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "thdist.cli",
            "check", "src/thdist/data/paper_examples.cat"]
    env = _fresh_env(THDIST_CACHE_DIR=str(tmp_path))
    cold = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert (cold.returncode, cold.stderr) == (0, b"")
    records = list(tmp_path.rglob("*.json"))
    assert records and all(isinstance(json.loads(r.read_text()), dict) for r in records)
    warm = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert (warm.returncode, warm.stderr, warm.stdout) == (0, b"", cold.stdout)


def test_a_closed_output_pipe_exits_141(tmp_path):
    # the closure of a 10-orbit poset prints 112,694 bytes, more than a pipe
    # holds, so a write after the reader leaves always fails: exit 141 as
    # for SIGPIPE, with nothing on stderr, not an input error (exit 2)
    model = tmp_path / "poset.json"
    model.write_text('{"size": 4, "interp": {"R": [[0, 0], [0, 1], [1, 1], [2, 2], [3, 3]]}}')
    proc = subprocess.Popen(
        [sys.executable, "-m", "thdist.cli", "closure", str(model), "--vars", "2"],
        cwd=ROOT, env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (141, b"")
    # into a pipe that has no reader at all, a short output fails at the
    # flush and stays buffered; the flush at exit must not retry it
    read, write = os.pipe()
    os.close(read)
    try:
        short = subprocess.run([sys.executable, "-m", "thdist.cli", "spectrum", "SentP"],
                               cwd=ROOT, env=_fresh_env(), stdout=write,
                               stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write)
    assert (short.returncode, short.stderr) == (141, b"")
    # argparse's --version and --help write to stdout and exit before a
    # command runs; unbuffered, the write itself fails, not a later flush
    for env, flags in ((_fresh_env(), ["--version"]), (_fresh_env(), ["--help"]),
                       (_fresh_env(PYTHONUNBUFFERED="1"), ["--help"]),
                       (_fresh_env(PYTHONUNBUFFERED="1"), ["check", "--help"])):
        read, write = os.pipe()
        os.close(read)
        try:
            early = subprocess.run([sys.executable, "-m", "thdist.cli", *flags], cwd=ROOT,
                                   env=env, stdout=write, stderr=subprocess.PIPE, timeout=300)
        finally:
            os.close(write)
        assert (early.returncode, early.stderr) == (141, b""), flags


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_error_pipe_keeps_the_exit_status(tmp_path, unbuffered):
    # with stderr a pipe that has no reader, an error's message cannot be
    # written: the exit status must stay the error's, not 120 from the
    # flush at exit nor 1 from a BrokenPipeError raised by the handler's
    # own write, which is where an unbuffered stderr fails
    env = _fresh_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    for code, argv in ((2, ["check", str(tmp_path / "missing.cat")]),
                       (2, ["spectrum", "Posets", "--max-size", "0"]),  # argparse's usage error
                       (3, ["cz", "BinEmpty"])):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "thdist.cli", *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=write, timeout=300)
        finally:
            os.close(write)
        assert proc.returncode == code, argv


def test_cz_first_order_lower_bound(capsys):
    code, out, _ = run(capsys, "cz", "Posets", "--max-size", "2")
    assert code == 0
    assert json.loads(out) == {
        "theory": "Posets",
        "value": 1 << 13,
        "method": "enumeration-lower-bound",
        "lower_bound": True,
        "detail": "models up to size 2",
    }
    code, out, _ = run(capsys, "cz", "Posets", "--max-size", "2", "--human")
    assert code == 0 and out == "Cz(Posets) >= 2^13 [enumeration-lower-bound]\n"


def test_classify_ad_assumed_amalgamation_is_not_checked(capsys):
    code, out, _ = run(
        capsys, "classify-ad", "BinAx", "Posets", "Eqrels", "--assume-amalgamation"
    )
    data = json.loads(out)
    assert code == 0 and data["distance"] == 2
    assert "amalgamation_report" not in data
    assert data["notes"] == ["amalgamation property: asserted"]


# AB's sub-theories A and B share no model and no inconsistent node sits
# below both, so amalgamation fails; A lies in AB and C, and no node holds
# both, so co-amalgamation fails too
NO_AMALGAMATION_CAT = (
    "(language L (P 0) (Q 0) :vars 0)\n"
    '(theory A :over L :axioms "(and P Q)")\n'
    '(theory B :over L :axioms "(and P (not Q))")\n'
    '(theory AB :over L :axioms "P")\n'
    '(theory C :over L :axioms "Q")\n'
    "(network N :equiv logical :step axiom :nodes A B AB C)\n"
)


def test_classify_ad_on_asserted_amalgamation_is_conditional(tmp_path, capsys):
    # both properties fail here, so the asserted one is all a distance of
    # 2 rests on: no "exact" for it
    path = tmp_path / "split.cat"
    path.write_text(NO_AMALGAMATION_CAT)
    code, out, _ = run(capsys, "classify-ad", f"{path}:N", "B", "C", "--assume-amalgamation")
    data = json.loads(out)
    assert code == 0 and data["distance"] == 2 and data["status"] == "conditional"
    assert [(s["from"], s["to"]) for s in data["witness"]] == [("B", "AB"), ("AB", "A"), ("A", "C")]


def test_classify_ad_without_amalgamation_exits_2(tmp_path, capsys):
    path = tmp_path / "split.cat"
    path.write_text(NO_AMALGAMATION_CAT)
    code, out, err = run(capsys, "classify-ad", f"{path}:N", "B", "C")
    assert code == 2 and err == ""
    data = json.loads(out)
    assert data["error"] == "amalgamation not established"
    assert data["report"] == {
        "amalgamation": "fails",
        "amalgamation_counterexample": ["AB", "A", "B"],
        "co_amalgamation": "fails",
        "co_amalgamation_counterexample": ["A", "AB", "C"],
        "undecided_pairs": [],
        "vacuous": False,
    }


def test_paper_suite_command(monkeypatch, capsys):
    from thdist import paper_suite

    monkeypatch.setattr(paper_suite, "ALL_CRITERIA", [paper_suite.a4])
    code, out, _ = run(capsys, "paper-suite")
    data = json.loads(out)
    assert code == 0 and data["passed"] is True
    assert [(c["id"], c["passed"]) for c in data["criteria"]] == [("A4", True)]
    code, out, _ = run(capsys, "paper-suite", "--human")
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("PASS A4: ") and lines[1] == "all passed"

    failing = paper_suite._criterion("X1", "always fails")(lambda: (False, {"why": "test"}))
    monkeypatch.setattr(paper_suite, "ALL_CRITERIA", [paper_suite.a4, failing])
    code, out, _ = run(capsys, "paper-suite")
    data = json.loads(out)
    assert code == 1 and data["passed"] is False
    assert data["criteria"][1]["details"] == {"why": "test"}
    code, out, _ = run(capsys, "paper-suite", "--human")
    assert code == 1 and out.splitlines()[-1] == "FAILURES present"


def test_unreadable_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cat"
    code, out, err = run(capsys, "check", str(missing))
    assert code == 2 and out == ""
    assert str(missing) in json.loads(err)["error"]


def test_closure_cap_exit_code(tmp_path, capsys):
    # the rigid 4-chain has 2^16 definable relations, far past the cap
    chain = [[a, b] for a in range(4) for b in range(4) if a <= b]
    model = tmp_path / "chain.json"
    model.write_text(json.dumps({"size": 4, "interp": {"R": chain}}))
    code, out, err = run(capsys, "closure", str(model), "--vars", "2")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "closure has 2^16 elements, past cap 4096"}
    # its size is still known
    _, chain_model = model_lang_from_json(model.read_text(), 2)
    assert cz_of_model(chain_model).value == 1 << 16


def test_wide_closure_is_refused_before_it_is_built(tmp_path, capsys):
    # 3^11 assignments: the closure would need far more than 4096 relations
    model = tmp_path / "m3.json"
    model.write_text('{"size": 3, "interp": {"R": [[0, 1], [1, 2]]}}')
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", str(model), "--vars", "11")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "177147 (model, assignment) pairs exceed cap 4096"}


def test_closure_cap_at_the_smallest_wide_instance(tmp_path, capsys):
    # over two points the equality patterns alone give 2^(n-1) atoms, so
    # 2^(2^(n-1)) relations: 16, 256, then 2^16 past the cap at n = 5
    model = tmp_path / "m2.json"
    model.write_text('{"size": 2, "interp": {"R": []}, "ranks": {"R": 2}}')
    for n, count in (("3", 16), ("4", 256)):
        code, out, _ = run(capsys, "closure", str(model), "--vars", n)
        assert code == 0 and json.loads(out)["count"] == count
    code, out, err = run(capsys, "closure", str(model), "--vars", "5")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "closure has 2^16 elements, past cap 4096"}


def test_closure_refuses_too_many_generators(tmp_path, capsys):
    # one point has a single assignment, but 200 variables give 200^2
    # diagonals and 200^2 atoms of R; 45 give 4,050, still inside the cap
    model = tmp_path / "one.json"
    model.write_text('{"size": 1, "interp": {"R": [[0, 0]]}}')
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", str(model), "--vars", "200")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "80000 generators exceed cap 4096"}
    code, out, _ = run(capsys, "closure", str(model), "--vars", "45")
    assert code == 0 and json.loads(out)["count"] == 2


@pytest.mark.parametrize("size, code", [(7, 0), (8, 0), (9, 3)])
def test_closure_size_cap_is_the_enumeration_cap(tmp_path, capsys, size, code):
    # over two variables a unary P splits the pairs by P at each coordinate
    # and by equality: 2^6 relations at every size up to MAX_SIZE = 8
    model = tmp_path / "p.json"
    model.write_text(json.dumps({"size": size, "interp": {"P": [[0], [1], [2]]}}))
    got, out, err = run(capsys, "closure", str(model), "--vars", "2")
    assert got == code
    if code:
        assert out == "" and json.loads(err) == {"error": "size 9 exceeds cap 8"}
    else:
        assert json.loads(out)["count"] == 64


def test_sizes_up_to_eight_answer_under_the_default_policy(capsys):
    code, out, _ = run(capsys, "spectrum", "PureTwo", "--max-size", "8")
    assert code == 0 and json.loads(out)["spectrum"] == {str(k): int(k == 2) for k in range(1, 9)}
    code, out, _ = run(capsys, "models", "SentP", "--size", "7")
    assert code == 0 and json.loads(out)["count"] == 2
    code, _, err = run(capsys, "models", "SentP", "--size", "9")
    assert code == 3 and json.loads(err) == {"error": "size 9 exceeds cap 8"}


_SIZE_CAP_CAT = (
    "(policy :size-cap {})\n"
    "(language L (P 0) (Q 0) :vars 0)\n"
    '(theory A :over L :axioms "P")\n'
    '(theory B :over L :axioms "P" "Q")\n'
    '(certificate :kind axiom-add :from A :to B :axiom "Q")\n'
    "(network N :equiv logical :step axiom :nodes A B)\n"
    "(language P1 (P 0) :vars 0)\n"
    '(theory TP :over P1 :axioms "P")\n'
    '(theory TPQ :over L :axioms "P")\n'
    "(certificate :name add-q :kind concept-add :from TP :to TPQ)\n"
    "(network C :equiv defeq :step concept :nodes TP TPQ)\n"
    "(language U (R 1) :vars 1)\n"
    '(theory FA :over U :axioms "(forall v0 (R v0))")\n'
    '(theory FB :over U :axioms "(forall v0 (R v0))" "(exists v0 (R v0))")\n'
    "(network F :equiv logical :step axiom :nodes FA FB)\n"
)


def test_a_huge_size_cap_answers_as_a_small_one(tmp_path, capsys):
    # sentential enumerations stop at MAX_SIZE too, so a check's bound is
    # clamped at 8 rather than counted up to K (this used to hang); FA and
    # FB have the same models at every size, so classify-ad clamps its
    # equivalence test at 8 too rather than refuse size 9
    outputs = []
    for cap in (4, 1_000_000_000):
        path = tmp_path / f"cap{cap}.cat"
        path.write_text(_SIZE_CAP_CAT.format(cap))
        outputs.append([
            run(capsys, "check", str(path)),
            run(capsys, "dist", f"{path}:N", "A", "B"),
            run(capsys, "dist", f"{path}:C", "TP", "TPQ"),
            run(capsys, "classify-ad", f"{path}:F", "FA", "FB"),
        ])
    assert outputs[0] == outputs[1]
    assert [code for code, _, _ in outputs[0]] == [0, 0, 0, 0]
    assert json.loads(outputs[0][3][1])["distance"] == 0
    assert json.loads(outputs[0][2][1])["lower_bound"]["kind"] == "growth-certificate"
