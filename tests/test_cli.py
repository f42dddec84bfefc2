"""CLI contract: exit codes, JSON schemas, determinism, and the value
encodings used on the wire."""

import json
from fractions import Fraction

import pytest

from cliffdegen import acceptance, jsonio
from cliffdegen.cli import main
from cliffdegen.clifford import Multivector, QuadraticSpace
from cliffdegen.liestructure import theta_tensor
from cliffdegen.localmodels import MatrixTuple, trace_fingerprint
from cliffdegen.rings import Poly, RatFun


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- encodings ----------------------------------------------------------


def test_space_round_trip():
    V = QuadraticSpace([[1, Fraction(1, 2)], [Fraction(1, 2), 0]])
    obj = jsonio.encode_space(V)
    assert obj == {"m": 2, "Q": [["1", "1/2"], ["1/2", "0"]]}
    assert jsonio.decode_space(obj).gram == V.gram


def test_parametric_space_round_trip():
    t = Poly.t()
    V = QuadraticSpace.diagonal([Poly.const(1), t, RatFun(t, t + 1)])
    obj = jsonio.encode_space(V)
    back = jsonio.decode_space(obj)
    assert back.gram == V.gram


def test_multivector_round_trip():
    x = Multivector.scalar(Fraction(3, 2)) + Multivector.blade((1, 3), -2)
    obj = jsonio.encode_multivector(x)
    assert obj == {"[]": "3/2", "[1,3]": "-2"}
    assert jsonio.decode_multivector(obj) == x


def test_tensor_round_trip():
    T = theta_tensor(QuadraticSpace.diagonal([1, 2, 3]))
    obj = jsonio.encode_tensor(T)
    back = jsonio.decode_tensor(obj)
    assert back == T


def test_tuple_round_trip_and_fingerprint_order():
    T = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    obj = jsonio.encode_tuple(T)
    assert jsonio.decode_tuple(obj).X == T.X
    f = jsonio.encode_fingerprint(trace_fingerprint(T, 2))
    words = [tuple(w) for w, _ in f["traces"]]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_weights_tsv_layout():
    W = {(Fraction(1, 2), Fraction(-1, 2)): 2}
    assert jsonio.weights_tsv(W) == "1/2\t-1/2\t2\n"


def test_bad_inputs_raise_format_errors():
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_coeff({"weird": 1})
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_space({"m": 2})
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"not-json": "1"})


# --- CLI behaviour ------------------------------------------------------


def test_reconstruct_random_seeded(capsys):
    code, out, err = run_cli(capsys, ["form", "reconstruct", "--m", "4", "--random", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["subcommand"] == "form reconstruct"
    assert doc["payload"]["seed"] == 7
    assert doc["payload"]["results"][0]["matches"] is True


def test_reconstruct_from_input_file(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"m": 3, "Q": [["1", "0", "1/2"], ["0", "2", "0"], ["1/2", "0", "0"]]}))
    code, out, _ = run_cli(capsys, ["form", "reconstruct", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["matches"] is True
    assert doc["payload"]["recovered_Q"]["Q"][0] == ["1", "0", "1/2"]


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, ["form", "reconstruct", "--m", "4", "--random", "--seed", "3"])
    _, out2, _ = run_cli(capsys, ["form", "reconstruct", "--m", "4", "--random", "--seed", "3"])
    assert out1 == out2


def test_form_tensor_with_specialization(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"m": 2, "Q": [[["0", "1"], []], [[], ["1"]]]}))
    code, out, _ = run_cli(capsys, ["form", "tensor", "--input", str(path), "--at", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["specialized_at"] == "2"
    assert doc["payload"]["tensor"]["dim"] == 2


def test_spinor_check_and_weights(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["spinor", "check", "--ell", "2", "--even"])
    assert code == 0 and json.loads(out)["payload"]["bijective"] is True
    tsv = tmp_path / "w.tsv"
    code, out, _ = run_cli(
        capsys,
        ["spinor", "weights", "--ell", "2", "--halfspin", "+", "--tsv", str(tsv)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["count"] == 2
    assert tsv.read_text().count("\n") == 2


def test_lipschitz_zero_classifies_none(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"V": {"m": 2, "Q": [["1", "0"], ["0", "1"]]}, "x": {}}))
    code, out, _ = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "none"


def test_lipschitz_vector_is_group(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"V": {"m": 2, "Q": [["3", "0"], ["0", "1"]]}, "x": {"[1]": "1"}})
    )
    code, out, _ = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verdict"] == "group"
    assert doc["payload"]["norm_scalar"] == "3"


def test_degenerate_analyze_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {"m": 3, "Q": [[["1"], [], []], [[], ["1"], []], [[], [], ["0", "1"]]]}
        )
    )
    code, out, _ = run_cli(capsys, ["degenerate", "analyze", "--input", str(good)])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["radical_dim"] == 2
    assert doc["payload"]["det"] == {"num": ["0", "8"], "den": ["1"]}
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"m": 3, "Q": [[["0", "1"], [], []], [[], ["0", "1"], []], [[], [], []]]})
    )
    code, out, _ = run_cli(capsys, ["degenerate", "analyze", "--input", str(bad)])
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def test_plethysm_verify_g2(capsys):
    code, out, _ = run_cli(capsys, ["plethysm", "verify", "g2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["constituents"][0]["dim"] == 64
    assert doc["payload"]["matches_rho_module"] is True


def test_localmodel_commands(capsys, tmp_path):
    tup = {"g": 2, "n": 2, "X": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}
    p1 = tmp_path / "t.json"
    p1.write_text(json.dumps({"tuple": tup, "vector": ["1", "0"]}))
    code, out, _ = run_cli(capsys, ["localmodel", "simple", "--input", str(p1)])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["generates_full_algebra"] is True
    assert doc["payload"]["cyclic_vector"] is True

    p2 = tmp_path / "pair.json"
    p2.write_text(
        json.dumps(
            {
                "first": {"g": 1, "n": 2, "X": [[["1", "0"], ["0", "2"]]]},
                "second": {"g": 1, "n": 2, "X": [[["2", "0"], ["0", "1"]]]},
            }
        )
    )
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", str(p2), "--L", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["equivalent"] is True and doc["payload"]["length_bound"] == 3

    p3 = tmp_path / "cent.json"
    p3.write_text(
        json.dumps(
            {
                "tuple": tup,
                "h": [
                    [["0", "1"], ["0", "0"]],
                    [["0", "0"], ["1", "0"]],
                    [["1", "0"], ["0", "-1"]],
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, ["localmodel", "centralizer", "--input", str(p3)])
    assert code == 0
    assert json.loads(out)["payload"]["dimension"] == 0


def test_usage_and_parse_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["nonsense"])
    assert code == 1 and out == ""
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = run_cli(capsys, ["lipschitz", "test", "--input", str(bad)])
    assert code == 1
    assert "line 1" in err
    code, out, err = run_cli(capsys, ["form", "reconstruct", "--random"])
    assert code == 1


def test_stdout_is_single_sorted_json(capsys):
    code, out, _ = run_cli(capsys, ["spinor", "check", "--ell", "1"])
    doc = json.loads(out)  # exactly one document
    assert list(doc) == sorted(doc)
    assert out.endswith("\n") is True or "\n" not in out.strip()


@pytest.mark.parametrize("error", [ValueError, AssertionError])
def test_selftest_isolates_a_crashing_criterion(capsys, monkeypatch, error):
    def criterion_crash():
        raise error("boom")

    def criterion_cheap(seed=7):
        return {"name": "cheap", "ok": True, "details": {"seed": seed}}

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [criterion_crash, criterion_cheap])
    code, out, err = run_cli(capsys, ["selftest", "--seed", "3"])
    assert code == 2
    doc = json.loads(out)  # exactly one document
    crash, cheap = doc["payload"]["criteria"]
    assert crash == {"name": "criterion_crash", "ok": False, "details": {"error": repr(error("boom"))}}
    assert cheap == {"name": "cheap", "ok": True, "details": {"seed": 3}}
    assert "[selftest] criterion_crash: FAIL" in err
