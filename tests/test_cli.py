import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

import taured.cli
import taured.reduction
import taured.tilting
from taured.algebra import extract_presentation
from taured.cli import main
from taured.corpus import standard_corpus
from taured.dsl import AlgebraFile, emit, parse_file
from taured.errors import HasseError, NotStringAlgebra
from taured.emit import emit_dot
from taured.tilting import Inventory, PosetQuiver, build_inventory


def check_dot_grammar(text: str) -> None:
    """Minimal DOT digraph grammar: header, node/edge statements, closing brace."""
    lines = [l.strip() for l in text.strip().splitlines()]
    assert re.fullmatch(r"digraph\s+\w+\s*\{", lines[0])
    assert lines[-1] == "}"
    node = re.compile(r'"[^"]+"\s*(\[[^\]]*\])?;')
    edge = re.compile(r'"[^"]+"\s*->\s*"[^"]+"\s*(\[[^\]]*\])?;')
    for l in lines[1:-1]:
        if not l:
            continue
        assert node.fullmatch(l) or edge.fullmatch(l), f"bad DOT statement: {l!r}"


def test_emit_dot_empty():
    text = emit_dot(PosetQuiver(0, ()), [])
    check_dot_grammar(text)
    assert "->" not in text


def test_emit_dot_attributes():
    pq = PosetQuiver(2, ((0, 1),))
    text = emit_dot(pq, ["1+3", "0"], double_border={0}, highlight={0})
    check_dot_grammar(text)
    assert "peripheries=2" in text
    assert "fillcolor=red" in text
    assert "⊕" in text
    ascii_text = emit_dot(pq, ["1+3", "0"], ascii_labels=True)
    assert "⊕" not in ascii_text


def test_enumerate_json(a3sq_file, capsys):
    assert main(["enumerate", a3sq_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload.keys()) == ["algebra", "indecomposables", "stpairs", "hasse"]
    assert payload["algebra"] == "a3sq"
    assert len(payload["indecomposables"]) == 5
    assert len(payload["stpairs"]) == 12
    assert len(payload["hasse"]["edges"]) == 18
    assert sum(1 for p in payload["stpairs"] if p["is_tau_tilting"]) == 3
    for rec in payload["indecomposables"]:
        assert list(rec.keys()) == ["id", "name", "dim_vector"]
    for p in payload["stpairs"]:
        assert list(p.keys()) == ["id", "module_summands", "support_vertices",
                                  "is_tau_tilting"]


def test_enumerate_tau_tilt_only(a3sq_file, capsys):
    assert main(["enumerate", a3sq_file, "--tau-tilt-only", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["stpairs"]) == 3
    assert all(p["is_tau_tilting"] for p in payload["stpairs"])
    assert len(payload["hasse"]["edges"]) == 2


def test_enumerate_table(a3sq_file, capsys):
    assert main(["enumerate", a3sq_file]) == 0
    out = capsys.readouterr().out
    assert "12 pairs" in out
    assert "1/2+2/3+3" in out


def test_enumerate_dot(a3sq_file, capsys):
    assert main(["enumerate", a3sq_file, "--format", "dot"]) == 0
    check_dot_grammar(capsys.readouterr().out)


def test_hasse_golden(a3sq_file, tmp_path, capsys):
    out = tmp_path / "h.dot"
    assert main(["hasse", a3sq_file, "--out", str(out)]) == 0
    text = out.read_text()
    check_dot_grammar(text)
    golden = os.path.join(os.path.dirname(__file__), "golden", "hasse_a3sq.dot")
    with open(golden, "r", encoding="utf-8") as f:
        assert text == f.read()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
with open(os.path.join(GOLDEN, "cli_exit_codes.json"), encoding="utf-8") as _f:
    CLI_EXIT_CODES = json.load(_f)
CLI_ARGV = {"verify": ["verify"], "reduce": ["reduce", "--emit-quotient"]}
# `series` reads no input file: rsz_A10 is the A series up to n = 10, and so on
SERIES_ARGV = {"rsz_A10": ["series", "--kind", "A", "--max", "10", "--closed-form"],
               "rsz_D9": ["series", "--kind", "D", "--max", "9", "--closed-form"]}


@pytest.mark.parametrize("name,command", [(name, command)
                                          for name, codes in CLI_EXIT_CODES.items()
                                          for command in codes])
def test_cli_output_matches_golden(name, command, capsys, monkeypatch):
    """Stdout and exit code of `verify`, `reduce --emit-quotient` and `series`, byte for byte."""
    monkeypatch.delenv("TAURED_FIELD", raising=False)
    code = main(SERIES_ARGV[name] if command == "series"
                else [*CLI_ARGV[command], os.path.join(GOLDEN, f"{name}.alg")])
    with open(os.path.join(GOLDEN, f"{name}.{command}.out"), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()
    assert code == CLI_EXIT_CODES[name][command]


def test_verify_over_fp101_prints_the_rational_golden(capsys, monkeypatch):
    # N(5, 5): every carried inventory renames its vertices, over F_101 as over Q
    monkeypatch.delenv("TAURED_FIELD", raising=False)
    code = main(["--field", "fp:101", "verify", os.path.join(GOLDEN, "nakayama_5_5.alg")])
    with open(os.path.join(GOLDEN, "nakayama_5_5.verify.out"), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()
    assert code == 0


@pytest.mark.parametrize("name", ["nakayama_5_5", "nakayama_5_4", "rsz_A7", "rsz_D7"])
def test_verify_sorts_no_carried_pairs(name, capsys, monkeypatch):
    # a carried inventory keeps its source's pair order, so nothing sorts its pairs
    carried = []
    pair_sort_key = Inventory.pair_sort_key

    def recorded(self, pair):
        if self._source is not None:
            carried.append(self)
        return pair_sort_key(self, pair)

    monkeypatch.setattr(Inventory, "pair_sort_key", recorded)
    assert main(["verify", os.path.join(GOLDEN, f"{name}.alg")]) == 0
    capsys.readouterr()
    assert not carried


@pytest.mark.parametrize("name, built", [("nakayama_5_5", 6), ("nakayama_5_4", 6),
                                         ("rsz_A7", 7), ("rsz_D7", 11)])
def test_verify_enumerates_strings_once_per_built_inventory(name, built, capsys, monkeypatch):
    # one inventory is built per isomorphism class; a carried one enumerates nothing
    calls = []
    enumerate_strings = taured.tilting.enumerate_strings
    monkeypatch.setattr(taured.tilting, "enumerate_strings",
                        lambda alg: calls.append(alg) or enumerate_strings(alg))
    assert main(["verify", os.path.join(GOLDEN, f"{name}.alg")]) == 0
    capsys.readouterr()
    assert len(calls) == built


def test_reduce(a3sq_file, capsys):
    assert main(["reduce", a3sq_file, "--emit-quotient"]) == 0
    out = capsys.readouterr().out
    assert "arrow b 2 3" in out          # the quotient DSL
    assert "extend (1): 1+3" in out      # the boundary family
    assert "[PASS]" in out and "[FAIL]" not in out


def test_reduce_bad_vertex(a3sq_file, capsys):
    assert main(["reduce", a3sq_file, "--vertex", "3"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["reduce", None, "--vertex", "9"], "--vertex '9': no such vertex; vertices: 1, 2, 3"),
    (["reduce", None, "--vertex", ""], "--vertex '': no such vertex; vertices: 1, 2, 3"),
    (["series", "--kind", "A", "--max", "0"], "--max 0: n_max below the series start 1"),
    (["series", "--kind", "D", "--max", "2"], "--max 2: n_max below the series start 3"),
    (["series", "--kind", "A", "--max", "11"],
     "--max 11: n_max 11 exceeds the enumeration budget 10"),
], ids=["reduce-unknown-vertex", "reduce-empty-vertex", "series-A-below-start",
        "series-D-below-start", "series-past-budget"])
def test_out_of_range_arguments_exit_two(a3sq_file, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a3sq_file if a is None else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: taured") and err.endswith(f"taured: error: {message}\n")


def test_series_table(capsys):
    assert main(["series", "--kind", "A", "--max", "8", "--closed-form"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].split()[:2] == ["8", "34"]


def test_verify_exit_zero(a3sq_file, capsys):
    assert main(["verify", a3sq_file]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "oracle-equivalence" in out
    assert ("[PASS] hasse-certificate: the mutation quiver is the covering relation "
            "of the Fac order (18 arrows)\n") in out


def test_verify_hasse_certificate_failure(a3sq_file, capsys, monkeypatch):
    monkeypatch.setattr(taured.tilting.Inventory, "fac_contains", lambda self, j, s: True)
    assert main(["verify", a3sq_file]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^\[FAIL\] hasse-certificate: .*  \[mutations .* are each above "
                     r"the other in the Fac order\]$", captured.out, re.M)
    assert "all checks passed" not in captured.out
    assert captured.err == "FAILED: hasse-certificate\n"


SINK_TEXT = "algebra sink\nvertices 1 2 3\narrow a 1 2\narrow b 3 2\n"


def test_verify_skips_the_reduction_without_a_projective_injective(tmp_path, capsys):
    # hereditary 1 -> 2 <- 3: P_2 = S_2 is not injective, and P_1, P_3 have socle S_2
    assert main(["verify", _write(tmp_path, SINK_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] reduction: no indecomposable projective-injective module\n" in out
    assert out.endswith("all checks passed\n")


def test_reduce_without_a_projective_injective_exits_one(tmp_path, capsys):
    assert main(["reduce", _write(tmp_path, SINK_TEXT)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "no indecomposable projective-injective module\n"
    assert captured.out == ""


def test_verify_oracle_mismatch_fails(a3sq_file, capsys, monkeypatch):
    oracle = taured.cli.oracle_stpairs_via_quotients
    monkeypatch.setattr(taured.cli, "oracle_stpairs_via_quotients", lambda inv: oracle(inv)[:-1])
    assert main(["verify", a3sq_file]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] oracle-equivalence: clique enumeration matches" in captured.out
    assert "all checks passed" not in captured.out
    assert captured.err == "FAILED: oracle-equivalence\n"


def test_series_closed_form_mismatch_fails(capsys, monkeypatch):
    closed = taured.cli.closed_form
    monkeypatch.setattr(taured.cli, "closed_form", lambda kind, n: closed(kind, n) + (n == 5))
    assert main(["series", "--kind", "A", "--max", "6", "--closed-form"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "series check FAILED\n"
    row = next(line.split() for line in captured.out.splitlines() if line.split()[0] == "5")
    assert int(row[-1]) == int(row[1]) + 1


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nvertices 1\narrow a 1 9\n")
    assert main(["enumerate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_repeated_relation_path_is_a_parse_error(tmp_path, capsys):
    # ab + ab is 2 ab, a monomial relation written as a sum: refused as written
    bad = tmp_path / "twice.alg"
    bad.write_text("algebra x\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
                   "relation (a b) + (a b)\n")
    assert main(["enumerate", str(bad)]) == 2
    assert "line 5, col 17: path a b appears twice in relation" in capsys.readouterr().err


def test_two_loop_local_algebra_stops_at_the_string_cap(tmp_path, capsys):
    # k<x,y>/(x,y)^2 is built (dimension 3); its band modules are what stop enumerate
    path = _write(tmp_path, "algebra xy\nvertices 1\narrow x 1 1\narrow y 1 1\n"
                            "relation x x\nrelation x y\nrelation y x\nrelation y y\n")
    assert main(["enumerate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "input looks representation-infinite" in err
    assert "nilpotency" not in err and "path count" not in err


def test_missing_file_exit_two(capsys):
    assert main(["enumerate", "/nonexistent/file.alg"]) == 2


@pytest.mark.parametrize("command, path, reason", [
    ("verify", "", "Is a directory"),
    ("hasse", "", "Is a directory"),
    ("hasse", "missing/x.dot", "No such file or directory"),
])
def test_unopenable_path_exits_two(command, path, reason, a3sq_file, tmp_path, capsys):
    target = tmp_path / path
    argv = ["verify", str(target)] if command == "verify" else \
        ["hasse", a3sq_file, "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"cannot open {target}: {reason}\n"


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader closes the pipe before the first write, as `| head -c 1` does soon after
    src = os.path.dirname(os.path.dirname(taured.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from taured.cli import main; sys.exit(main())",
         "enumerate", os.path.join(GOLDEN, "rsz_A7.alg"), "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports taured from this tree."""
    src = os.path.dirname(os.path.dirname(taured.cli.__file__))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_logging():
    """A cold start runs no generated code: importing taured.cli adds none of these to the
    modules a bare interpreter loads.  The records are typing.NamedTuple, which is free only
    where a bare interpreter already has typing; the last assertion checks that premise."""
    probe = "import sys; print(' '.join(sys.modules))"
    bare = set(_fresh_python(probe).split())
    added = set(_fresh_python("import taured.cli; " + probe).split()) - bare
    assert "taured.cli" in added
    assert not added & {"dataclasses", "inspect", "logging"}
    assert "typing" in bare


def test_the_audit_warning_reaches_logging_imported_after_taured():
    out = _fresh_python("""
import sys
from taured.algebra import Arrow, Quiver, Relation, build_algebra
from taured.reps import direct_sum, simple
from taured.tilting import build_inventory
assert "logging" not in sys.modules
import logging
logging.basicConfig(stream=sys.stdout, format="%(name)s %(levelname)s %(message)s")
alg = build_algebra(Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"))),
                    [Relation.monomial(("a", "b"))])
build_inventory(alg, supplied=[("fake", direct_sum([simple(alg, "1"), simple(alg, "3")])),
                               ("s2", simple(alg, "2"))])
""")
    assert "taured.tilting WARNING supplied module fake fails the local-endomorphism audit" in out


def test_an_os_error_without_a_path_is_not_a_file_error(a3sq_file, monkeypatch):
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(taured.cli, "json_payload", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        main(["enumerate", a3sq_file, "--format", "json"])


def test_non_utf8_input_is_a_parse_error_at_the_bad_byte(tmp_path, capsys):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes("algebra x\nvertices 1 \u00e9\n".encode("latin-1"))
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == "parse error: line 2, col 11: byte 0xe9 is not UTF-8\n"


def test_field_flag_and_env(a3sq_file, capsys, monkeypatch):
    assert main(["--field", "fp:5", "enumerate", a3sq_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["stpairs"]) == 12
    monkeypatch.setenv("TAURED_FIELD", "fp:7")
    assert main(["enumerate", a3sq_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["stpairs"]) == 12


@pytest.mark.parametrize("argv, env", [
    (["--field", "fp:4"], None), (["--field", "fp:x"], None), (["--field", "real"], None),
    ([], "fp:x"), ([], "fp:4"),
])
def test_bad_field_override_exit_two(a3sq_file, capsys, monkeypatch, argv, env):
    if env:
        monkeypatch.setenv("TAURED_FIELD", env)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["enumerate", a3sq_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: taured")
    assert "want rational or fp:<prime>" in err and "Traceback" not in err


def test_series_ignores_field_override(capsys, monkeypatch):
    # series builds its own algebras over Q and never reads the override
    monkeypatch.setenv("TAURED_FIELD", "fp:4")
    assert main(["series", "--kind", "A", "--max", "5", "--closed-form"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].split()[:2] == ["5", "8"]


def test_reduce_builds_each_quotient_once(a3sq_file, capsys, monkeypatch):
    calls = dict.fromkeys(["find_proj_injectives", "build_inventory", "enumerate_stpairs",
                           "compute_nsets", "reconstruct_tau_tilt"], 0)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # every namespace that binds the name, so a call from the CLI counts too
    for name in ("find_proj_injectives", "build_inventory", "compute_nsets",
                 "reconstruct_tau_tilt"):
        for module in (taured.cli, taured.reduction, taured.tilting):
            if hasattr(module, name):
                counting(module, name)
    counting(taured.tilting, "enumerate_stpairs")
    assert main(["reduce", a3sq_file]) == 0
    # one search for projective-injectives; the ambient algebra and one block
    # per isomorphism class among the blocks of the quotients at its two
    # projective-injectives ({1} x {2, 3} at P_1, {1, 2} x {3} at P_2: A_1 and
    # A_2, the second block of each class carried); the families and the
    # rebuild once per projective-injective
    assert calls == {"find_proj_injectives": 1, "build_inventory": 3, "enumerate_stpairs": 3,
                     "compute_nsets": 2, "reconstruct_tau_tilt": 2}


def test_reduce_second_anchor(a3sq_file, capsys):
    assert main(["reduce", a3sq_file, "--vertex", "2"]) == 0
    out = capsys.readouterr().out
    assert "reducing at Q = P_2" in out
    assert "[FAIL]" not in out


# vertex names that are also pair labels: the simple S_0 and the zero pair are both "0"
VERTEX_ZERO = """\
algebra v0
vertices 0 1
arrow a 0 1
"""

NAKAYAMA_FROM_ZERO = """\
algebra nakayama3
vertices 0 1 2
arrow c0 0 1
arrow c1 1 2
arrow c2 2 0
relation c0 c1 c2
relation c1 c2 c0
relation c2 c0 c1
"""


def _write(tmp_path, text, name="in.alg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_vertex_zero_enumerate(tmp_path, capsys):
    path = _write(tmp_path, VERTEX_ZERO)
    assert main(["enumerate", path]) == 0
    out = capsys.readouterr().out
    assert "5 pairs" in out
    assert out.count(" *\n") == 2
    assert main(["enumerate", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["stpairs"]) == 5
    assert sum(p["is_tau_tilting"] for p in payload["stpairs"]) == 2
    assert len(payload["hasse"]["edges"]) == 5


def test_vertex_zero_verify(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, VERTEX_ZERO)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out and "[SKIP]" not in out


def test_nakayama_from_vertex_zero_verify(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, NAKAYAMA_FROM_ZERO)]) == 0
    out = capsys.readouterr().out
    assert "(20 pairs)" in out and "all checks passed" in out


def test_vertex_zero_dot_refuses_colliding_labels(tmp_path, capsys):
    out = tmp_path / "h.dot"
    assert main(["hasse", _write(tmp_path, VERTEX_ZERO), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'0'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_skips_oracle_only_for_non_string_algebras(a3sq_file, capsys, monkeypatch):
    def not_string(inv):
        raise NotStringAlgebra("not a string algebra: test")

    monkeypatch.setattr(taured.cli, "oracle_stpairs_via_quotients", not_string)
    assert main(["verify", a3sq_file]) == 0
    assert "[SKIP] oracle-equivalence: not a string algebra" in capsys.readouterr().out


def test_verify_oracle_error_is_not_a_skip(a3sq_file, capsys, monkeypatch):
    def broken(inv):
        raise ValueError("oracle bug")

    monkeypatch.setattr(taured.cli, "oracle_stpairs_via_quotients", broken)
    with pytest.raises(ValueError, match="oracle bug"):
        main(["verify", a3sq_file])
    assert "[SKIP]" not in capsys.readouterr().out


@pytest.mark.parametrize("field", ["fp x", "fp 4"])
def test_bad_field_exit_two(tmp_path, capsys, field):
    path = _write(tmp_path, f"algebra x\nfield {field}\nvertices 1\n")
    assert main(["enumerate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, col 9:")


def test_bad_module_map_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "algebra x\nvertices 1 2\narrow a 1 2\n"
                            "module m\ndim 1 1\ndim 2 1\nmap a 1,1\nend\n")
    assert main(["enumerate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 7, col 6: map a of module 'm' must be a 1x1 matrix")
    assert "Traceback" not in err


def test_module_breaking_relation_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "algebra x\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
                            "relation a b\nmodule m\ndim 1 1\ndim 2 1\ndim 3 1\n"
                            "map a 1\nmap b 1\nend\n")
    assert main(["enumerate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 6, col 0: module 'm': representation violates")
    assert "Traceback" not in err


def test_supplied_kronecker_inventory_ends(tmp_path, capsys):
    # the tau-orbit of s1 is infinite: only tau(s1) is recorded, not its own translate
    path = _write(tmp_path, "algebra kronecker\nvertices 1 2\narrow a 1 2\narrow b 1 2\n"
                            "module s1\ndim 1 1\nend\nmodule s2\ndim 2 1\nend\n")
    algebra, supplied = parse_file(path).build()
    inv = build_inventory(algebra, supplied=supplied)
    assert [r.name for r in inv.records] == ["s1", "s2", "tau(s1)"]
    # the Hasse certificate refuses that pair list in every format
    for fmt in ("table", "json", "dot"):
        assert main(["enumerate", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: an almost complete pair has 1 completions" in captured.err
        assert "Traceback" not in captured.err


def _script(name):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus_reports(capsys, argv=(), code=0) -> tuple[dict[str, list[str]], str]:
    """Run scripts/verify_corpus.py: each member's check lines by name, and the whole output."""
    assert _script("verify_corpus").main(list(argv)) == code
    out = capsys.readouterr().out
    reports = {}
    for line in out[:out.index("\ntotal ")].splitlines():
        if line.startswith("["):
            lines.append(line)
        else:
            reports[line] = lines = []
    return reports, out


ORACLE_14 = ("[PASS] oracle-equivalence: clique enumeration matches the quotient-definition "
             "oracle (14 pairs)")
HASSE = "hasse-certificate: the mutation quiver is the covering relation of the Fac order"


def test_verify_corpus_script_certifies_every_hasse_quiver(capsys):
    reports, _ = _corpus_reports(capsys)
    assert list(reports) == list(standard_corpus())
    # neither has a projective-injective, so verify_reduction never builds their quivers
    for name in ("D3^2", "KD3"):
        assert reports[name] == [
            ORACLE_14, f"[PASS] {HASSE} (21 arrows)",
            "[SKIP] reduction: no indecomposable projective-injective module"]


def test_verify_corpus_script_reports_hasse_failure(monkeypatch, capsys):
    def fail(inv, pairs):
        raise HasseError("mutations 1 and 2 are incomparable in the Fac order")

    monkeypatch.setattr(taured.tilting, "hasse", fail)
    reports, out = _corpus_reports(capsys, code=1)
    assert reports["KD3"] == [
        ORACLE_14, f"[FAIL] {HASSE}  [mutations 1 and 2 are incomparable in the Fac order]"]
    assert "\n  KD3: hasse-certificate\n" in out


def test_verify_corpus_script_over_f2_counts_as_over_q(capsys):
    rational, _ = _corpus_reports(capsys)
    assert _corpus_reports(capsys, ["--field", "fp:2"])[0] == rational


@pytest.mark.parametrize("name", ["A4^2", "KD3"])  # with and without a projective-injective
def test_verify_prints_the_corpus_script_lines(tmp_path, capsys, name):
    quiver, rels = extract_presentation(standard_corpus()[name])
    path = _write(tmp_path, emit(AlgebraFile(
        name="member", vertices=list(quiver.vertices),
        arrows=[(a.name, a.src, a.tgt) for a in quiver.arrows], relations=list(rels))))
    assert main(["verify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == _corpus_reports(capsys)[0][name] + ["all checks passed"]


def test_draw_example_quivers_script(tmp_path, capsys):
    _script("draw_example_quivers").main(["--out", str(tmp_path)])
    golden = os.path.join(os.path.dirname(__file__), "golden", "hasse_a3sq.dot")
    with open(golden, "r", encoding="utf-8") as f:
        assert (tmp_path / "hasse.dot").read_text(encoding="utf-8") == f.read()
    payload = json.loads((tmp_path / "hasse.json").read_text(encoding="utf-8"))
    assert len(payload["hasse"]["edges"]) == 18
    quotient = (tmp_path / "hasse_quotient.dot").read_text(encoding="utf-8")
    check_dot_grammar(quotient)
    assert quotient.count("fillcolor=red") == 1
