import importlib.util
import json
import os
import re

import pytest

import taured.cli
import taured.reduction
import taured.tilting
from taured.cli import main
from taured.corpus import standard_corpus
from taured.errors import HasseError, NotStringAlgebra
from taured.emit import emit_dot
from taured.tilting import PosetQuiver


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


def test_reduce(a3sq_file, capsys):
    assert main(["reduce", a3sq_file, "--emit-quotient"]) == 0
    out = capsys.readouterr().out
    assert "arrow b 2 3" in out          # the quotient DSL
    assert "extend (1): 1+3" in out      # the boundary family
    assert "[PASS]" in out and "[FAIL]" not in out


def test_reduce_bad_vertex(a3sq_file, capsys):
    assert main(["reduce", a3sq_file, "--vertex", "3"]) == 1


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


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nvertices 1\narrow a 1 9\n")
    assert main(["enumerate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert main(["enumerate", "/nonexistent/file.alg"]) == 2


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
    calls = dict.fromkeys(["build_inventory", "enumerate_stpairs", "compute_nsets",
                           "reconstruct_tau_tilt"], 0)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # every namespace that binds the name, so a call from the CLI counts too
    for name in ("build_inventory", "compute_nsets", "reconstruct_tau_tilt"):
        for module in (taured.cli, taured.reduction):
            if hasattr(module, name):
                counting(module, name)
    counting(taured.tilting, "enumerate_stpairs")
    assert main(["reduce", a3sq_file]) == 0
    # the ambient algebra and the quotients at its two projective-injectives;
    # the families and the rebuild once per projective-injective
    assert calls == {"build_inventory": 3, "enumerate_stpairs": 3, "compute_nsets": 2,
                     "reconstruct_tau_tilt": 2}


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


def _script(name):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_corpus_script_certifies_every_hasse_quiver(capsys):
    assert _script("verify_corpus").main(["--skip-oracle"]) == 0
    out = capsys.readouterr().out
    # neither has a projective-injective, so verify_reduction never builds their quivers
    for name in ("D3^2", "KD3"):
        assert re.search(rf"^{re.escape(name)} +14 pairs, hasse ok \(21 arrows\), "
                         "no projective-injective$", out, re.M)


def test_verify_corpus_script_reports_hasse_failure(monkeypatch, capsys):
    def fail(inv, pairs):
        raise HasseError("the mutation arrows, oriented by the Fac order, form a cycle")

    monkeypatch.setattr(taured.tilting, "hasse", fail)
    assert _script("verify_corpus").main(["--skip-oracle"]) == 1
    out = capsys.readouterr().out
    assert "KD3          14 pairs, hasse FAILED\n" in out
    assert "  KD3: hasse-certificate: the mutation arrows, oriented by" in out


def test_verify_corpus_script_over_f2_counts_as_over_q(capsys):
    def counts(argv):
        assert _script("verify_corpus").main(["--skip-oracle", *argv]) == 0
        return re.findall(r"^(\S+) +(\d+) pairs, hasse ok \((\d+) arrows\)",
                          capsys.readouterr().out, re.M)

    rational = counts([])
    assert len(rational) == len(standard_corpus())
    assert counts(["--field", "fp:2"]) == rational


def test_series_table_script(capsys):
    assert _script("series_table").main(["--kind", "A", "--max", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split()[1]) for row in rows] == [1, 2, 3, 5, 8, 13, 21, 34]


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
