"""CLI contract: exit codes, JSON schemas, determinism, and the value
encodings used on the wire."""

import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from cliffdegen import acceptance, cli, degeneration, jsonio, liestructure, lipschitz, localmodels
from cliffdegen.cli import main
from cliffdegen.clifford import Multivector, QuadraticSpace, mask_of
from cliffdegen.liestructure import theta_tensor
from cliffdegen.linalg import identity_matrix, mat_mul
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
    x = Multivector.scalar(Fraction(3, 2)) + Multivector({mask_of((1, 3)): -2})
    assert jsonio.decode_multivector({"[]": "3/2", "[1,3]": "-2"}, 3) == x


def test_tensor_round_trip():
    T = theta_tensor(QuadraticSpace.diagonal([1, 2, 3]))
    obj = jsonio.encode_tensor(T)
    assert (obj["dim"], obj["identity"]) == (T.dim, T.identity)
    assert obj["c"] == sorted(obj["c"], key=lambda entry: entry[:3])
    back = {}
    for i, j, k, v in obj["c"]:
        back.setdefault((i, j), {})[k] = Fraction(v)
    assert back == T.c


def test_tuple_round_trip_and_fingerprint_order():
    T = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    obj = {"g": 2, "n": 2, "X": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}
    assert jsonio.decode_tuple(obj).X == T.X
    f = jsonio.encode_fingerprint(trace_fingerprint(T, 2))
    words = [tuple(w) for w, _ in f["traces"]]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_weights_tsv_layout():
    # weights arrive doubled and are halved for print
    W = {(2, 0): 1, (1, -1): 2}
    rows = jsonio.encode_weights(W)
    assert rows == [
        {"weight": ["1/2", "-1/2"], "multiplicity": 2},
        {"weight": ["1", "0"], "multiplicity": 1},
    ]
    assert jsonio.weights_tsv(rows) == "1/2\t-1/2\t2\n1\t0\t1\n"
    # l = 0: the empty weight keeps its tab; the empty S- keeps one newline
    assert jsonio.weights_tsv(jsonio.encode_weights({(): 1})) == "\t1\n"
    assert jsonio.weights_tsv(jsonio.encode_weights({})) == "\n"


def test_bad_inputs_raise_format_errors():
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_coeff({"weird": 1})
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_space({"m": 2})
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"not-json": "1"}, 2)
    # JSON true/false are not the rationals 1/0
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_space({"Q": [[True]]})
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"[1]": False}, 2)
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"[true]": "1"}, 2)
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_tuple({"X": [[["1", True], ["0", "1"]]]})
    # a blade key lists increasing indices and names its blade once
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"[1,2]": "1", "[2,1]": "1"}, 2)
    with pytest.raises(jsonio.InputFormatError):
        jsonio.decode_multivector({"[1]": "1", "[ 1]": "2"}, 2)
    # polynomial entries are rationals; exponents and empty denominators are refused
    for bad in ([["1"]], {"num": ["1"], "den": []}, {"num": "12", "den": ["1"]}, "1e5", "2E-3"):
        with pytest.raises(jsonio.InputFormatError):
            jsonio.decode_coeff(bad)


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


def test_a_wrong_recovered_form_fails_in_both_modes(capsys, tmp_path, monkeypatch):
    """Both modes take the verdict from the one round trip: a recovered
    form other than the input prints ``matches`` false and fails (exit 2)."""
    monkeypatch.setattr(cli, "reconstruct_form", lambda L: QuadraticSpace.zero(L.m))
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"m": 3, "Q": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}))
    code, out, _ = run_cli(capsys, ["form", "reconstruct", "--input", str(path)])
    doc = json.loads(out)
    assert (code, doc["verdict"], doc["payload"]["matches"]) == (2, "fail", False)
    assert doc["payload"]["recovered_Q"]["Q"] == [["0"] * 3] * 3
    code, out, _ = run_cli(capsys, ["form", "reconstruct", "--random", "--m", "3", "--trials", "2"])
    doc = json.loads(out)
    assert (code, doc["verdict"]) == (2, "fail")
    assert [r["matches"] for r in doc["payload"]["results"]] == [False, False]


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, ["form", "reconstruct", "--m", "4", "--random", "--seed", "3"])
    _, out2, _ = run_cli(capsys, ["form", "reconstruct", "--m", "4", "--random", "--seed", "3"])
    assert out1 == out2


# sha256 of the stdout and the exit code of `form reconstruct`, recorded
# before its table moved to D Q: the recovered forms print byte for byte
RECONSTRUCT_PINS = {
    "--random --m 3 --seed 1 --trials 5": ("f5f415d26b1bd4ef3e34e1645280c77761c19adc7f3768957ff982aa316b6b55", 0),
    "--random --m 4 --seed 2 --trials 4": ("b885898451d1da4c09645d93de26a74a3b33f84c987500985e1090f2fb9b25c6", 0),
    "--random --m 5 --seed 3 --trials 3": ("130973cd73ca5c92f21944d49dedccc758ef38d86b46580c67984e5726adb0b9", 0),
    "--random --m 6 --seed 4 --trials 2": ("a6dbcf7768af12cdbe8a2fb1aca8a67f6c5da38acf38b5ec7c467a54ba7aa804", 0),
    "--random --m 7 --seed 5 --trials 2": ("483281df56a113ffa3ba14d3fdf935ffeee4c4afa4024ab2e13ce9ffe4f34daa", 0),
    "--random --m 8 --seed 6 --trials 1": ("20c5182492cea469a83a7519a5a10f0983f71862cf04cb6d340b20caf8de536e", 0),
    "--random --m 9 --seed 7 --trials 1": ("e1411f911370f3906b4712f9fb0d405c29cacddb85cb9e9075fda7038b6218c1", 0),
    "--random --m 12 --seed 8 --trials 1": ("e84af712b5bed010cace3c1cb3999d1804016f7b3ca958e3103b45d847db31f9", 0),
    "--input poly.json": ("ed32ca8d1676207e03853f6abe656fd5ec21190fa3ff6cf66c5f20d7098702a6", 0),
}
# a dense form over Q[t] whose coefficient denominators have lcm 12
POLY_FORM = {
    "m": 4,
    "Q": [
        [["1", "1/2"], "0", ["0", "-1/3"], "2"],
        ["0", ["3"], "1/2", "0"],
        [["0", "-1/3"], "1/2", ["-1", "0", "1/4"], "0"],
        ["2", "0", "0", ["0", "1"]],
    ],
}


@pytest.mark.parametrize("args", sorted(RECONSTRUCT_PINS))
def test_reconstruct_stdout_is_pinned(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(json.dumps(POLY_FORM))
    code, out, _ = run_cli(capsys, ["form", "reconstruct"] + args.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == RECONSTRUCT_PINS[args]


def _dense_ratfun_form(rng, m):
    """Every entry of degree 1 over degree 1 in t, regular at 0."""
    Q = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            num = [str(rng.randint(-3, 3)), str(rng.randint(1, 3))]
            den = [str(rng.randint(1, 3)), str(rng.randint(1, 3))]
            Q[i][j] = Q[j][i] = {"num": num, "den": den}
    return {"m": m, "Q": Q}


def test_reconstruct_of_a_dense_ratfun_form_is_fast_and_pinned(capsys, tmp_path):
    """With a Jacobi check at run time, which added unreduced rational
    functions over all 1330 triples of this m = 7 table, the command took
    11.6 s on a shared 2-core 2.0 GHz Xeon; without it, 0.16 s.  The sha256
    of stdout was recorded with the check."""
    path = tmp_path / "ratfun7.json"
    path.write_text(json.dumps(_dense_ratfun_form(random.Random(3), 7)))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["form", "reconstruct", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (
        "9eb715217805cebfd151df3faf9b5c511cec933369f402a877eb5e48cedc9a6d",
        0,
    )
    assert elapsed < 3.0


# sha256 of the stdout and the exit code of `form tensor`, `form reconstruct`
# and `degenerate analyze` on inputs over Q, Q[t] and Q(t), recorded before
# integer entries stopped becoming Fractions and the ring descriptors went
# (`form reconstruct --input poly.json` is pinned above)
FORM_INPUTS = {
    "rational.json": {
        "m": 4,
        "Q": [
            ["1", "1/2", "0", "-2/3"],
            ["1/2", "-3", "1/5", "0"],
            ["0", "1/5", "0", "7/4"],
            ["-2/3", "0", "7/4", "2"],
        ],
    },
    "poly.json": POLY_FORM,
    "ratfun.json": {
        "m": 3,
        "Q": [
            [{"num": ["1", "1"], "den": ["2", "0", "1"]}, "1/2", ["0", "1"]],
            ["1/2", {"num": ["0", "1"], "den": ["1", "-1"]}, "0"],
            [["0", "1"], "0", "3"],
        ],
    },
    # families regular at t = 0, nondegenerate generically, degenerate at 0
    "poly_family.json": {
        "m": 3,
        "Q": [
            [["1", "1"], ["0", "1/2"], "0"],
            [["0", "1/2"], "2", "0"],
            ["0", "0", ["0", "1"]],
        ],
    },
    "ratfun_family.json": {
        "m": 3,
        "Q": [
            [{"num": ["1"], "den": ["1", "1"]}, "0", "1/3"],
            ["0", {"num": ["0", "2"], "den": ["1", "0", "1"]}, "0"],
            ["1/3", "0", "1"],
        ],
    },
    # dense, with denominators 1..10: D = 2520
    "rational7.json": {
        "m": 7,
        "Q": [
            ["-37/8", "41/2", "63/10", "-79/10", "21/2", "-46/5", "14"],
            ["41/2", "11/9", "8", "-97/3", "97/10", "-4", "-79/10"],
            ["63/10", "8", "13/7", "-80/7", "-4/3", "5", "-24"],
            ["-79/10", "-97/3", "-80/7", "-3/5", "5/3", "92/7", "79/2"],
            ["21/2", "97/10", "-4/3", "5/3", "99/10", "-53/7", "27/2"],
            ["-46/5", "-4", "5", "92/7", "-53/7", "-15/8", "23/2"],
            ["14", "-79/10", "-24", "79/2", "27/2", "23/2", "95"],
        ],
    },
    # dense over Q[t], degrees 0..2 with interior zeros: D = 60
    "poly5.json": {
        "m": 5,
        "Q": [
            [["-1/3", "7", "5/2"], ["-2"], ["-1/2", "8"], ["-2", "-3/4", "-1/2"], ["-4", "-5/6"]],
            [["-2"], ["5/2", "-5", "-9/2"], ["-4/3"], ["-1/2", "-3/2"], ["-3/4", "0", "1/2"]],
            [["-1/2", "8"], ["-4/3"], ["-1"], ["0", "9"], ["1", "0", "1/5"]],
            [["-2", "-3/4", "-1/2"], ["-1/2", "-3/2"], ["0", "9"], ["3", "-8/3"], ["1/2"]],
            [["-4", "-5/6"], ["-3/4", "0", "1/2"], ["1", "0", "1/5"], ["1/2"], ["2"]],
        ],
    },
    # Q0 + t I, Q0 dense of corank 3 with D = 30: the radical basis carries
    # coordinates lambda_j y_j / lambda_fc with lambda_j != lambda_fc
    "corank3_family.json": {
        "m": 7,
        "Q": [
            [["-1/3", "1"], "2/3", "0", "-1/3", "-1/3", "1/3", "0"],
            ["2/3", ["1/6", "1"], "-3", "-5/6", "11/3", "-13/6", "3/2"],
            ["0", "-3", ["5", "1"], "2", "-5", "2", "-1"],
            ["-1/3", "-5/6", "2", ["-19/30", "1"], "-59/15", "5/6", "1/2"],
            ["-1/3", "11/3", "-5", "-59/15", ["22/15", "1"], "-5/3", "1"],
            ["1/3", "-13/6", "2", "5/6", "-5/3", ["1/6", "1"], "1/2"],
            ["0", "3/2", "-1", "1/2", "1", "1/2", ["-5/2", "1"]],
        ],
    },
}
FORM_PINS = {
    "form tensor --input rational.json": ("bacd438f6ea660e254cfcde317a2a348ae3474e6977870f748e40d05d68ed775", 0),
    "form tensor --input poly.json": ("e1cf026a2d9d882c0416cd1cf72d591b02912cc3be08232374adecb05554ef97", 0),
    "form tensor --input ratfun.json": ("d5f3650c583e76f78cbcfd8ac53e6df680adc396889572b69c26182b1627647a", 0),
    "form reconstruct --input rational.json": ("e1832976812f6efd58e3c7049bb1b78cd4b0e48eb9afab80497daecf7bcbeeff", 0),
    "form reconstruct --input ratfun.json": ("ce46c50b18e6b28f6de10d8858881aa50c28fffa85753dfd3fcc38862b79ebef", 0),
    "degenerate analyze --input poly_family.json": ("6a62896df50f9c27eedb659031e285183811b0ff96ce44b1eab04904060ccab2", 0),
    "degenerate analyze --input ratfun_family.json": ("2a3d7e199a20ee0e3e5f27f078a6e86d950f793355871464bee5f1792524b543", 0),
    # recorded before the tensor was printed from its ints
    "form tensor --input rational7.json": ("635a4a5d3cc099dd7d3cccd24e6baa671aea8c6f8bcfadc4f076dd35a3e1908b", 0),
    "form tensor --input poly5.json": ("7d01c22783cd06b05cba2e33b4168e233803a87a6019f8dd897178cd103e3bda", 0),
    "degenerate analyze --input corank3_family.json": ("1bd249b4ddd486c10f063ead48fb58b33be21c73990f17ba9caa7cd07fec4282", 0),
}


@pytest.mark.parametrize("argv", sorted(FORM_PINS))
def test_form_and_degenerate_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, doc in FORM_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, argv.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == FORM_PINS[argv]


def test_reconstruct_prints_a_ratfun_entry_in_lowest_terms(capsys, monkeypatch):
    doc = {"m": 3, "Q": [[{"num": ["1"], "den": ["1", "1"]}, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, ["form", "reconstruct", "--input", "-"])
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["matches"] is True
    assert payload["recovered_Q"]["Q"] == doc["Q"]


def test_a_cached_parser_prints_what_a_fresh_one_does(capsys, monkeypatch):
    runs = [
        (["form", "reconstruct", "--random", "--m", "3", "--seed", "1"], ""),
        (["form", "reconstruct", "--m", "three"], ""),
        (["form", "reconstruct", "--input", "-"], json.dumps(POLY_FORM)),
    ]

    def run(argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, argv)
        return code, out, err if code == 1 else None  # others end in a timing

    alone = []
    for argv, stdin in runs:
        cli.build_parser.cache_clear()
        alone.append(run(argv, stdin))
    assert [code for code, _, _ in alone] == [0, 1, 0]
    cli.build_parser.cache_clear()
    assert [run(argv, stdin) for argv, stdin in runs] == alone
    assert cli.build_parser() is cli.build_parser()


def test_form_tensor_with_specialization(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"m": 2, "Q": [[["0", "1"], []], [[], ["1"]]]}))
    code, out, _ = run_cli(capsys, ["form", "tensor", "--input", str(path), "--at", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["specialized_at"] == "2"
    assert doc["payload"]["tensor"]["dim"] == 2


def test_form_tensor_at_is_parsed_once_as_an_exact_rational(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"m": 3, "Q": [[["0", "1"], [], []], [[], ["1/3"], []], [[], [], ["2", "0", "1"]]]}))
    for bad in ("1/0", "x"):
        code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path), "--at", bad])
        assert (code, out) == (1, ""), bad
        assert "input error" in err and "Traceback" not in err, bad
    code, out, _ = run_cli(capsys, ["form", "tensor", "--input", str(path), "--at", "1/2"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["specialized_at"] == "1/2"
    fibre = QuadraticSpace.diagonal([Fraction(1, 2), Fraction(1, 3), Fraction(9, 4)])
    assert payload["tensor"] == jsonio.encode_tensor(theta_tensor(fibre))


def test_spinor_weights_tsv_into_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    tsv = tmp_path / "missing" / "w.tsv"
    code, out, err = run_cli(capsys, ["spinor", "weights", "--ell", "2", "--tsv", str(tsv)])
    assert (code, out) == (1, "")
    assert err.startswith("usage error: cannot write --tsv") and "Traceback" not in err


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


# sha256 of stdout and the exit code of each command, recorded before the
# spinor checks moved to sparse columns and the half-spin restriction to a
# fold (the two `spinor weights` lines: before `--type D` was read from
# spin_weights instead of merging the two halves; the three l = 5 lines:
# before the Witt generators acted through one bit-level step; `plethysm
# verify f4 --halfspin +`: before the branching weights were doubled ints)
PINNED_STDOUT = {
    "spinor weights --ell 4 --type D": ("c50da334c7ef6a3b8e195c903cdad0ef8f55cefbc0832fe4d01e3012fb8a9dc7", 0),
    "spinor weights --ell 3": ("2d9f59f2563b357f9de832227dbf91c771c4a8c03b88293a1266a2f3bdce58b5", 0),
    "spinor check --ell 0 --odd": ("a2043fe584586c7169055ae902376ecdd60dc1ab8b4e2c201f7fb0de3fbe8986", 0),
    "spinor check --ell 1 --odd": ("17aff5a19c21b34a73929c8ff10ac28cf81eb82b3b56e7f8aee8d6c1fff627d6", 0),
    "spinor check --ell 1 --even": ("a38a59f43c2114bd5cc1165bac06ede642df7720f5562863acf22de688f6833e", 0),
    "spinor check --ell 2 --odd": ("6ab5afcb9663787a42589d45e31902e1579f2e00a64ca39262cbe00d3728953e", 0),
    "spinor check --ell 2 --even": ("2cc81fcf645a7d94a833bdcc7aa382c580e4434465e9d1cf50e27b420dfea5d4", 0),
    "spinor check --ell 3 --odd": ("30a99502e2b3ab40eccc9cdc20819c0bbe48ae6e04e444e3fc06b617bf856525", 0),
    "spinor check --ell 3 --even": ("eac776e98a48ec0620b22667f8261818fff20a2cfbc11f814da2bbf286a8bee3", 0),
    "spinor check --ell 4 --odd": ("34669cf60eb676dde19c9558ef7ff62f090657b2dd32c5a17ffd49cb3ea8ee42", 0),
    "spinor check --ell 4 --even": ("b6959ed17009ee43cd48c8f767b7de2b686fa8a858a03fffd96b56b3b2f52bef", 0),
    "spinor check --ell 5 --odd": ("8a9d014c49fe108e79ae85c9e7e9624a3908ceb45b02bc7ed12a0c929fb1287a", 0),
    "spinor check --ell 5 --even": ("127513148548ef5412f39e8b553189fb5a556c746bb406428685a73b0c6650a3", 0),
    "spinor weights --ell 5 --halfspin -": ("2ae64c89e715186abe95f738ff37a2f0ee9db6d44531310c8f71eea4ae7db50f", 0),
    "plethysm verify g2": ("3fd11709c57d2e0d0004dc52cc31ad5ca967e7422007b9e1fa8be52b32a9a475", 0),
    "plethysm verify g2 --halfspin +": ("c1842094e36ee6767f3fe4f0293b3ec9db48368715b0731ed0301e5afc467a75", 0),
    "plethysm verify g2 --halfspin -": ("8439ec77f07a0c3e3c014c903e4aa50b2dea14af2c82ec6bd45ce5240c69b34c", 0),
    "plethysm verify c3": ("a07ad6006c76f126e877ad18fa651925d3af0748dc857c19680e978a4ebacf05", 0),
    "plethysm verify c3 --halfspin +": ("d1ae90be3619ac4c8296d2d2a5708c646d0e7209058aa08985e35eddee272bc9", 0),
    "plethysm verify c3 --halfspin -": ("dd2685d769b52d7e2eb8a89560176ce7a605f2ba4917b5cdd872858398447c56", 0),
    "plethysm verify f4": ("e4d8558207801e426a9aa8abb306ee808bcf78dac205128ea73d24b7e2128067", 0),
    "plethysm verify f4 --halfspin +": ("90bcdd8eef66b8b67f7e8a4244f9a4a2431aee6b3769e5fdda7284c8167f634e", 0),
    "plethysm verify f4 --halfspin -": ("7076ec1064ca91465586d4b73ca5a5b567ce9ed2125a2ea20091bb28cb8ab185", 0),
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_spinor_and_plethysm_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, argv.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == PINNED_STDOUT[argv]


@pytest.mark.parametrize(
    "argv",
    [
        "spinor weights --ell 2 --type B --halfspin +",
        "spinor weights --ell 2 --halfspin - --type B",
        "spinor check --ell 2 --odd --even",
        "spinor check --ell 2 --even --odd",
    ],
)
def test_spinor_refuses_options_it_would_ignore(capsys, argv):
    """A half-spin module is a D_l module: an explicit --type B beside
    --halfspin was ignored.  --odd and --even exclude each other: the last
    one won.  Each is a usage error before any work."""
    code, out, err = run_cli(capsys, argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("usage error")


def test_spinor_check_even_zero_form_passes(capsys):
    # Cl+ of the zero form is Q = End(S+), with S- = 0: the target is
    # |S+|^2 + |S-|^2 = 1 (it was once truncated to 2 * (1 // 2)^2 = 0)
    code, out, _ = run_cli(capsys, ["spinor", "check", "--ell", "0", "--even"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["payload"] == {
        "bijective": True,
        "case": "even",
        "dim_even_algebra": 1,
        "ell": 0,
        "operator_rank": 1,
        "relations_ok": True,
        "target_dim": 1,
    }


def test_lipschitz_zero_classifies_none(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"V": {"m": 2, "Q": [["1", "0"], ["0", "1"]]}, "x": {}}))
    code, out, _ = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "none"


@pytest.mark.parametrize("key", ["[1,1]", "[0]", "[5]", "[1,3]", "[2,1]", "[ 1]", "[100000000000]"])
def test_lipschitz_test_refuses_a_bad_blade_key(capsys, tmp_path, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"V": {"m": 2, "Q": [["1", "0"], ["0", "1"]]}, "x": {"[1]": "1", key: "2"}}))
    code, out, err = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error") and "Traceback" not in err


def test_input_nested_too_deeply_for_the_json_parser_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": ' * 5000 + "1" + "}" * 5000)
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("usage error") and "Traceback" not in err


def test_a_deeply_nested_coefficient_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "in.json"
    deep = "1"
    for _ in range(600):
        deep = [deep]
    for doc, argv in (
        ({"Q": [[deep]]}, ["form", "tensor"]),
        ({"V": {"Q": [["1"]]}, "x": {"[1]": deep}}, ["lipschitz", "test"]),
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, argv + ["--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("input error") and "Traceback" not in err


def test_exponent_notation_is_refused(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"Q": [["1e5"]]}))
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error") and "Traceback" not in err
    path.write_text(json.dumps({"Q": [[["1", "1"]]]}))
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path), "--at", "1e5"])
    assert (code, out) == (1, "")
    assert err.startswith("input error") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("1e5", "exponent notation"),
        ("2E-3", "exponent notation"),
        ("-1.5e+2", "exponent notation"),
        ("one", "not p/q or a decimal"),
        ("1/e", "not p/q or a decimal"),
        ('{"num":["1"],"den":["1"]}', "not p/q or a decimal"),
    ],
)
def test_a_string_with_an_e_is_refused_with_its_own_reason(capsys, tmp_path, monkeypatch, text, reason):
    """Every string with an "e" is refused before ``Fraction`` reads it; only
    a decimal with an exponent is called exponent notation."""

    def exact(obj):
        assert "e" not in obj.lower(), f"Fraction read {obj!r}"
        return Fraction(obj)

    monkeypatch.setattr(jsonio, "Fraction", exact)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"Q": [[text]]}))
    runs = [["form", "tensor", "--input", str(path)]]
    if text.startswith("{"):  # --at takes an exact rational, not JSON
        path.write_text(json.dumps({"Q": [[["1", "1"]]]}))
        runs = [["form", "tensor", "--input", str(path), "--at", text]]
    for argv in runs:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("input error") and reason in err
        assert "exponent" not in err or reason == "exponent notation"


def test_a_number_past_the_digit_limit_is_refused_before_it_is_converted(capsys, tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    def exact(obj):  # Fraction, but never on a string past the limit
        assert not (isinstance(obj, str) and len(obj) > jsonio.MAX_DIGITS), "converted"
        return Fraction(obj)

    monkeypatch.setattr(cli, "theta_tensor", reached)
    monkeypatch.setattr(jsonio, "Fraction", exact)
    path = tmp_path / "space.json"
    digits = "9" * jsonio.MAX_DIGITS
    for text in (
        json.dumps({"Q": [[digits + "9"]]}),
        json.dumps({"Q": [["1/" + digits + "9"]]}),
        json.dumps({"Q": [["0." + digits + "9"]]}),
        '{"Q": [[' + digits + "9]]}",  # a JSON integer
        '{"Q": [[-' + digits + "9]]}",
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("input error") and f"more than {jsonio.MAX_DIGITS} digits" in err
        assert len(err.encode()) < 500
    path.write_text(json.dumps({"V": {"Q": [["1"]]}, "x": {"[" + digits + "9]": "1"}}))  # a blade key
    code, out, err = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert (code, out) == (1, "") and f"more than {jsonio.MAX_DIGITS} digits" in err
    # at the limit the work starts (and stops at the patched entry point)
    for text in (json.dumps({"Q": [[digits]]}), '{"Q": [[-' + digits + "]]}"):
        path.write_text(text)
        with pytest.raises(_Reached):
            main(["form", "tensor", "--input", str(path)])


def test_form_tensor_prints_entries_past_the_digit_limit(capsys, tmp_path):
    a = "7" * 1500 + "/3"
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"Q": [[a if i == j else "0" for j in range(5)] for i in range(5)]}))
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
    assert code == 0 and "Traceback" not in err
    entries = {entry[-1].lstrip("-") for entry in json.loads(out)["payload"]["tensor"]["c"]}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # e1234 e1234 = q1 q2 q3 q4 = a^4 on the diagonal form: 5998 characters
        assert str(Fraction(a) ** 4) in entries
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_restores_the_interpreters_digit_limit(capsys, tmp_path):
    path = tmp_path / "space.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for text in ('{"Q": [["1"]]}', '{"Q": [["x"]]}'):  # exit 0 and exit 1
            path.write_text(text)
            main(["form", "tensor", "--input", str(path)])
            assert sys.get_int_max_str_digits() == 5000
        main(["form", "no-such-action"])  # refused by the parser, before the limit is lifted
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, doc, kind",
    [
        (["form", "tensor"], {"m": "3", "Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "str"),
        (["form", "tensor"], {"m": True, "Q": [["1"]]}, "bool"),
        (["localmodel", "simple"], {"g": True, "n": True, "X": [[["1"]]]}, "bool"),
    ],
    ids=["m-string", "m-true", "g-n-true"],
)
def test_a_declared_size_must_be_a_json_integer(capsys, tmp_path, argv, doc, kind):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv + ["--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error: declared") and f"must be an integer, got {kind}" in err


def test_an_input_error_echoes_a_shortened_value(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"Q": [[{"x": list(range(3000))}]]}))
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error") and "characters)" in err
    assert len(err.encode()) < 500


def test_form_tensor_refuses_a_boolean_entry(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"Q": [[True]]}))
    code, out, err = run_cli(capsys, ["form", "tensor", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error")


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


def _dense_even_sum(m):
    Q = [[str(Fraction(1 + i * j % 3, 1 + i + j)) for j in range(m)] for i in range(m)]
    blades = [[i + 1 for i in range(m) if mask >> i & 1] for mask in range(1 << m)]
    return {"V": {"Q": Q}, "x": {json.dumps(b, separators=(",", ":")): "1" for b in blades if len(b) % 2 == 0}}


@pytest.mark.parametrize(
    "doc, norm",
    [
        # e1 (e1 + e2), a product of two invertible vectors
        ({"V": {"Q": [["1", "1/2"], ["1/2", "2"]]}, "x": {"[]": "1", "[1,2]": "1"}}, "4"),
        (_dense_even_sum(6), "1455928963/21049875"),
    ],
    ids=["one-plus-e12", "dense-m6-even-sum"],
)
def test_lipschitz_on_a_dense_form_is_group(capsys, tmp_path, doc, norm):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert (payload["cl0_member"], payload["verdict"], payload["norm_scalar"]) == (True, "group", norm)


def test_the_product_reads_the_lower_triangle_of_a_ratfun_form(capsys, tmp_path):
    # Q[1][2] = t/1 and Q[2][1] = 2t/2 are one value with two printed forms;
    # the generator step reads Q[t][j] for t > j, so the unreduced norm
    # carries the denominator 2 of the lower entry
    t_over_1, two_t_over_2 = {"num": ["0", "1"], "den": ["1"]}, {"num": ["0", "2"], "den": ["2"]}
    doc = {"V": {"Q": [[["1"], t_over_1], [two_t_over_2, ["1"]]]}, "x": {"[]": "1", "[1,2]": "1"}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["lipschitz", "test", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["payload"]["norm_scalar"] == {"num": ["4", "4"], "den": ["2"]}


@pytest.mark.parametrize(
    "x, stdout",
    [
        (
            {"[1]": "1/2", "[2]": "1/3"},
            '{"payload": {"cl0_member": true, "homogeneous": true, "norm_scalar": '
            '{"den": ["2", "1"], "num": ["17/36", "13/36"]}, "verdict": "group"}, '
            '"subcommand": "lipschitz test", "verdict": "pass"}\n',
        ),
        (
            {"[1]": {"num": ["0", "1"], "den": ["1", "1"]}, "[2]": "1/2"},
            '{"payload": {"cl0_member": true, "homogeneous": true, "norm_scalar": '
            '{"den": ["2", "5", "4", "1"], "num": ["1/2", "5/4", "2", "5/4"]}, "verdict": "group"}, '
            '"subcommand": "lipschitz test", "verdict": "pass"}\n',
        ),
    ],
    ids=["rational-x", "ratfun-x"],
)
def test_lipschitz_over_q_of_t_prints_the_unreduced_norm(capsys, tmp_path, x, stdout):
    """V = [[(t+1)/(t+2), 0], [0, 1]]: the norm of a vector with rational
    coordinates, whose denominators the integer form clears, and of one with
    a ``RatFun`` coordinate, printed as the product gives it."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"V": {"Q": [[{"num": ["1", "1"], "den": ["2", "1"]}, "0"], ["0", "1"]]}, "x": x}))
    assert run_cli(capsys, ["lipschitz", "test", "--input", str(path)])[:2] == (0, stdout)


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


def test_degenerate_analyze_scans_past_every_bad_point(capsys, tmp_path):
    # diag(prod_{k=1}^{99} (t - k), 1, 1): every fibre at t = 1..99 is
    # singular, and the scan reaches t = 100 = deg det + 1
    coeffs = [1]
    for k in range(1, 100):
        coeffs = [(coeffs[i - 1] if i else 0) - k * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(
        {"m": 3, "Q": [[[str(c) for c in coeffs], [], []], [[], ["1"], []], [[], [], ["1"]]]}
    ))
    code, out, _ = run_cli(capsys, ["degenerate", "analyze", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert (payload["generic_check_point"], payload["generic_radical_dim"]) == ("100", 0)
    assert len(payload["det"]["num"]) == 100


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


def _sequiv_input(tmp_path, first, second):
    path = tmp_path / "pair.json"
    doc = {
        key: {"X": [[[str(v) for v in row] for row in m] for m in mats]}
        for key, mats in (("first", first), ("second", second))
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"tuple": {"X": [[["0", "1"], ["0", "0"]]]}, "vector": 5},
        {"tuple": {"X": [[["0", "1"], ["0", "0"]]]}, "vector": [0.5, 1]},
        {"tuple": {"X": [[["0", "1"], ["0", "0"]]]}, "vector": [["1"], "0"]},
        {"g": 1, "n": 0, "X": [[]]},
    ],
    ids=["vector-not-a-list", "vector-float", "vector-nested", "empty-tuple"],
)
def test_localmodel_simple_rejects_bad_inputs(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["localmodel", "simple", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error")


def test_localmodel_simple_refuses_a_vector_beside_a_bare_tuple(capsys, tmp_path):
    """A bare tuple was read with its "vector" key dropped, and the payload
    had no cyclic_vector; the vector is read only beside a "tuple"."""
    X = [[["0", "1"], ["0", "0"]]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"g": 1, "n": 2, "X": X, "vector": ["0", "1"]}))
    code, out, err = run_cli(capsys, ["localmodel", "simple", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error") and '"tuple"' in err
    path.write_text(json.dumps({"tuple": {"g": 1, "n": 2, "X": X}, "vector": ["0", "1"]}))
    code, out, _ = run_cli(capsys, ["localmodel", "simple", "--input", str(path)])
    assert code == 0 and json.loads(out)["payload"] == {"generates_full_algebra": False, "cyclic_vector": True}


@pytest.mark.parametrize(
    "h",
    [5, [[["1", "0"], ["0", 0.5]]], [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]],
    ids=["not-a-list", "float-entry", "wrong-shape"],
)
def test_localmodel_centralizer_rejects_bad_h(capsys, tmp_path, h):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tuple": {"X": [[["1", "0"], ["0", "-1"]]]}, "h": h}))
    code, out, err = run_cli(capsys, ["localmodel", "centralizer", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error")


E2, F2, H2, ZERO2 = [["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]], [["1", "0"], ["0", "-1"]], [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize(
    "X, h, dimension",
    [([E2, F2], [E2, F2, H2, E2], 0), ([ZERO2], [ZERO2], 0), ([E2], [E2, ZERO2], 1)],
    ids=["nilpotent-pair-repeated-e", "zero-in-span-of-zero", "e-beside-zero"],
)
def test_localmodel_centralizer_counts_matrices_of_a_dependent_h(capsys, tmp_path, X, h, dimension):
    """The centralizer is a space of matrices in span(h): a repeated or a
    zero element of h adds no dimension to it."""
    path = tmp_path / "cent.json"
    path.write_text(json.dumps({"tuple": {"X": X}, "h": h}))
    code, out, _ = run_cli(capsys, ["localmodel", "centralizer", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["payload"] == {"dimension": dimension}


def test_sequiv_rejects_negative_length_bound(capsys, tmp_path):
    # tr X_1 is 3 against 4, which a bound L >= 1 detects
    path = _sequiv_input(tmp_path, [[[1, 0], [0, 2]]], [[[2, 0], [0, 2]]])
    code, out, err = run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--L", "-1"])
    assert (code, out) == (1, "")
    assert "usage error" in err
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--L", "1"])
    assert json.loads(out)["payload"]["equivalent"] is False


def test_the_default_length_bound_has_one_home(capsys, tmp_path, monkeypatch):
    """``localmodels.word_length_bound`` sets the default L of both
    ``s_equivalent`` and the CLI: patched to 0, where only the empty word is
    checked, both call this pair equivalent and the CLI prints L = 0."""
    first, second = [[[1, 0], [0, 2]]], [[[2, 0], [0, 2]]]
    path = _sequiv_input(tmp_path, first, second)
    T1, T2 = MatrixTuple.of(first), MatrixTuple.of(second)
    assert not localmodels.s_equivalent(T1, T2)
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path])
    assert json.loads(out)["payload"] == {"equivalent": False, "length_bound": 4}
    monkeypatch.setattr(localmodels, "word_length_bound", lambda n: 0)
    assert localmodels.s_equivalent(T1, T2)
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path])
    assert json.loads(out)["payload"] == {"equivalent": True, "length_bound": 0}


def test_the_default_length_bound_reaches_words_of_length_two(capsys, tmp_path):
    """(E11, E11) against (E11, E22): every word of length <= 1 has the same
    trace, 2 or 1, but tr(X1 X2) is 1 against 0.  The default L = n^2 = 4
    sees it; L = 1, or a default of 1, does not."""
    E11, E22 = [[1, 0], [0, 0]], [[0, 0], [0, 1]]
    path = _sequiv_input(tmp_path, [E11, E11], [E11, E22])
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path])
    assert (code, json.loads(out)["payload"]) == (0, {"equivalent": False, "length_bound": 4})
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--L", "1"])
    assert (code, json.loads(out)["payload"]) == (0, {"equivalent": True, "length_bound": 1})
    T1, T2 = MatrixTuple.of([E11, E11]), MatrixTuple.of([E11, E22])
    assert not localmodels.s_equivalent(T1, T2) and localmodels.s_equivalent(T1, T2, 1)


def test_sequiv_fingerprint_size_guard_refuses_before_any_work(capsys, tmp_path, monkeypatch):
    class Started(Exception):
        pass

    def forbidden(*args, **kwargs):
        raise Started

    monkeypatch.setattr(cli, "trace_fingerprint", forbidden)
    monkeypatch.setattr(cli, "s_equivalent", forbidden)
    X = [[int(i == j) for j in range(4)] for i in range(4)]
    # the listing holds the sum of (k + 1) g^k over k <= L entries per
    # tuple: L 2^(L+1) + 1 at g = 2, (L + 1)(L + 2)/2 at g = 1
    for mats, L in (([X, X], 15), ([X], 1446)):
        path = _sequiv_input(tmp_path, mats, mats)
        with pytest.raises(Started):  # the largest L under the cap runs
            run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--fingerprints", "--L", str(L)])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, ["localmodel", "sequiv", "--input", path, "--fingerprints", "--L", str(L + 1)]
        )
        assert (code, out) == (1, "")
        assert str(cli.MAX_FINGERPRINT_ENTRIES) in err
    # n = 4, g = 2 at the default L = 16
    path = _sequiv_input(tmp_path, [X, X], [X, X])
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--fingerprints"])
    assert (code, out) == (1, "")


def test_sequiv_fingerprints_at_g1_run_past_the_recursion_limit(capsys, tmp_path):
    path = _sequiv_input(tmp_path, [[[1]]], [[[1]]])
    code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path, "--fingerprints", "--L", "1200"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["equivalent"] is True
    assert len(payload["first_fingerprint"]["traces"]) == 1201


def test_sequiv_at_n6_uses_the_word_span(capsys, tmp_path):
    # the fingerprint would list 2^37 - 1 words per tuple here
    rng = random.Random(6)
    n = 6
    first = [[[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    second = [[list(r) for r in m] for m in first]
    shifted = [[list(r) for r in m] for m in first]
    for i in range(n):
        shifted[0][i][i] += 1
    for _ in range(2 * n):  # conjugate by elementary matrices I + c e_ij
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        E, Einv = identity_matrix(n), identity_matrix(n)
        E[i][j], Einv[i][j] = Fraction(c), Fraction(-c)
        second = [mat_mul(E, mat_mul(m, Einv)) for m in second]
        shifted = [mat_mul(E, mat_mul(m, Einv)) for m in shifted]
    for other, want in ((second, True), (shifted, False)):
        path = _sequiv_input(tmp_path, first, other)
        code, out, _ = run_cli(capsys, ["localmodel", "sequiv", "--input", path])
        assert code == 0
        assert json.loads(out)["payload"] == {"equivalent": want, "length_bound": 36}


@pytest.mark.parametrize("Q", [5, [5], "x"], ids=["number", "flat-list", "string"])
@pytest.mark.parametrize(
    "argv",
    [["form", "reconstruct"], ["form", "tensor"], ["lipschitz", "test"], ["degenerate", "analyze"]],
    ids=lambda argv: "-".join(argv),
)
def test_space_commands_reject_a_Q_that_is_not_rows(capsys, tmp_path, argv, Q):
    doc = {"V": {"Q": Q}, "x": {}} if argv[0] == "lipschitz" else {"Q": Q}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv + ["--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("input error")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_reconstruct_random_refuses_trials_below_one(capsys, trials):
    argv = ["form", "reconstruct", "--m", "3", "--random", "--trials", trials]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert "usage error" in err and "--trials" in err
    code, out, _ = run_cli(capsys, argv[:-1] + ["2"])
    assert code == 0
    assert len(json.loads(out)["payload"]["results"]) == 2


class _Reached(Exception):
    pass


@pytest.mark.parametrize(
    "args",
    [
        "--random --m 3 --input space.json",
        "--input space.json --m 9 --seed 3 --trials 5",
        "--input space.json --m 3",
        "--input space.json --seed 3",
        "--input space.json --trials 5",
    ],
)
def test_reconstruct_refuses_conflicting_options_before_any_work(capsys, tmp_path, monkeypatch, args):
    # --input and --random exclude each other, and --m, --seed and --trials
    # mean something only with --random
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "build_even_lie", reached)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "space.json").write_text(json.dumps({"Q": [["1", "0"], ["0", "1"]]}))
    code, out, err = run_cli(capsys, ["form", "reconstruct"] + args.split())
    assert (code, out) == (1, "")
    assert err.startswith("usage error") and "--random" in err


def test_reconstruct_size_guard_refuses_before_any_product(capsys, tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "build_even_lie", reached)
    path = tmp_path / "space.json"

    def unit_form(m):
        path.write_text(json.dumps({"Q": [["1" if i == j else "0" for j in range(m)] for i in range(m)]}))
        return ["form", "reconstruct", "--input", str(path)]

    cap = cli.MAX_RECONSTRUCT_M
    for m in (cap + 1, 80):
        for argv in (unit_form(m), ["form", "reconstruct", "--random", "--m", str(m)]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (1, "")
            assert "usage error" in err and str(cap) in err
            assert str(comb(comb(m, 2), 2)) in err
    # at the cap the work starts (and stops at the patched entry point)
    for argv in (unit_form(cap), ["form", "reconstruct", "--random", "--m", str(cap)]):
        with pytest.raises(_Reached):
            main(argv)


def test_lipschitz_size_guard_refuses_before_any_product(capsys, tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "lipschitz_report", reached)
    monkeypatch.setattr(lipschitz, "geometric_product", reached)
    monkeypatch.setattr(lipschitz, "doubled_algebra", reached)
    path = tmp_path / "in.json"

    def unit_form(m):
        Q = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
        path.write_text(json.dumps({"V": {"Q": Q}, "x": {"[1]": "1"}}))
        return ["lipschitz", "test", "--input", str(path)]

    cap = cli.MAX_LIPSCHITZ_M
    for m in (cap + 1, 40):
        code, out, err = run_cli(capsys, unit_form(m))
        assert (code, out) == (1, "")
        assert "usage error" in err and str(cap) in err and str(4 ** m) in err
    # at the cap the work starts (and stops at the patched entry point)
    with pytest.raises(_Reached):
        main(unit_form(cap))


@pytest.mark.parametrize(
    "argv",
    [["form", "tensor"], ["form", "tensor", "--at", "1"], ["degenerate", "analyze"]],
    ids=["tensor", "tensor-at", "analyze"],
)
def test_tensor_size_guard_refuses_before_any_work(capsys, tmp_path, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("theta_tensor", "specialize_space", "certify_specialization"):
        monkeypatch.setattr(cli, name, reached)
    path = tmp_path / "space.json"
    for m in (cli.MAX_TENSOR_M + 1, cli.MAX_TENSOR_M + 4):
        path.write_text(json.dumps({"Q": [["1" if i == j else "0" for j in range(m)] for i in range(m)]}))
        code, out, err = run_cli(capsys, argv + ["--input", str(path)])
        assert (code, out) == (1, "")
        assert "usage error" in err and str(4 ** (m - 1)) in err
    # at the cap the work starts (and stops at the patched entry point)
    m = cli.MAX_TENSOR_M
    path.write_text(json.dumps({"Q": [["1" if i == j else "0" for j in range(m)] for i in range(m)]}))
    with pytest.raises(_Reached):
        main(argv + ["--input", str(path)])


# command -> (argv, the entry point that multiplies, cap over Q and Q[t],
# cap over Q(t))
RATFUN_CAPS = {
    "tensor": (["form", "tensor"], "theta_tensor", cli.MAX_TENSOR_M, cli.MAX_RATFUN_TENSOR_M),
    "reconstruct": (["form", "reconstruct"], "build_even_lie", cli.MAX_RECONSTRUCT_M, cli.MAX_RATFUN_RECONSTRUCT_M),
    "lipschitz": (["lipschitz", "test"], "lipschitz_report", cli.MAX_LIPSCHITZ_M, cli.MAX_RATFUN_LIPSCHITZ_M),
}
RATFUN_ENTRY = {"num": ["1", "1"], "den": ["2", "1"]}  # (1 + t) / (2 + t)


def _capped_input(path, command, m, q11, x="1") -> list:
    """argv of ``command`` on the form diag(q11, 1, ..., 1) of rank m (for
    ``lipschitz test``, beside x = x e_1)."""
    Q = [[q11 if i == j == 0 else "1" if i == j else "0" for j in range(m)] for i in range(m)]
    path.write_text(json.dumps({"V": {"Q": Q}, "x": {"[1]": x}} if command == "lipschitz" else {"Q": Q}))
    return RATFUN_CAPS[command][0] + ["--input", str(path)]


@pytest.mark.parametrize("command", sorted(RATFUN_CAPS))
def test_a_ratfun_input_above_its_cap_is_refused_before_any_product(capsys, tmp_path, monkeypatch, command):
    _, entry, cap, ratfun_cap = RATFUN_CAPS[command]

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, entry, reached)
    path = tmp_path / "in.json"
    assert ratfun_cap < cap
    # a RatFun entry of the form; for `lipschitz test`, of x alone too
    inputs = [(RATFUN_ENTRY, "1")] + ([("1", RATFUN_ENTRY)] if command == "lipschitz" else [])
    for q11, x in inputs:
        code, out, err = run_cli(capsys, _capped_input(path, command, ratfun_cap + 1, q11, x))
        assert (code, out) == (1, "")
        assert err.startswith("usage error")
        assert f"above {ratfun_cap}, the cap for an input over Q(t)" in err and f"the cap is {cap})" in err
        # at the cap the work starts (and stops at the patched entry point)
        with pytest.raises(_Reached):
            main(_capped_input(path, command, ratfun_cap, q11, x))
    # forms over Q and over Q[t] keep the cap they had
    for q11 in ("3/2", ["1", "1"]):
        with pytest.raises(_Reached):
            main(_capped_input(path, command, cap, q11))


def test_form_tensor_at_a_point_multiplies_rationals_and_keeps_the_cap_over_q(capsys, tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "theta_tensor", reached)
    argv = _capped_input(tmp_path / "in.json", "tensor", cli.MAX_TENSOR_M, RATFUN_ENTRY)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "") and f"the cap is {cli.MAX_TENSOR_M})" in err
    with pytest.raises(_Reached):
        main(argv + ["--at", "1"])


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["spinor", "check"], cli.MAX_SPINOR_CHECK_ELL),
        (["spinor", "check", "--even"], cli.MAX_SPINOR_CHECK_ELL),
        (["spinor", "weights"], cli.MAX_SPINOR_WEIGHTS_ELL),
        (["spinor", "weights", "--type", "D"], cli.MAX_SPINOR_WEIGHTS_ELL),
        (["spinor", "weights", "--halfspin", "-"], cli.MAX_SPINOR_WEIGHTS_ELL),
    ],
    ids=["check", "check-even", "weights", "weights-D", "weights-halfspin"],
)
def test_spinor_size_guards_refuse_before_any_work(capsys, monkeypatch, argv, cap):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("WittDecomposition", "spin_weights", "halfspin_split"):
        monkeypatch.setattr(cli, name, reached)
    for ell in (-1, -7, cap + 1, cap + 40):
        code, out, err = run_cli(capsys, argv + ["--ell", str(ell)])
        assert (code, out) == (1, "")
        assert "usage error" in err and str(cap) in err
    # at the cap and at 0 the work starts (and stops at the patched entry point)
    for ell in (0, cap):
        with pytest.raises(_Reached):
            main(argv + ["--ell", str(ell)])


@pytest.mark.parametrize("action", ["simple", "sequiv", "centralizer"])
def test_localmodel_size_guard_refuses_before_any_product(capsys, tmp_path, monkeypatch, action):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("generates_full_algebra", "is_cyclic_vector", "s_equivalent", "trace_fingerprint", "centralizer_dim"):
        monkeypatch.setattr(cli, name, reached)
    monkeypatch.setattr(localmodels, "mat_mul", reached)
    path = tmp_path / "in.json"

    def unit_tuple(n):
        X = [[str(int(i == j)) for j in range(n)] for i in range(n)]
        tup = {"X": [X, X]}
        doc = {
            "simple": {"tuple": tup, "vector": ["1"] * n},
            "sequiv": {"first": tup, "second": tup},
            "centralizer": {"tuple": tup, "h": [X]},
        }[action]
        path.write_text(json.dumps(doc))
        return ["localmodel", action, "--input", str(path)]

    cap = cli.MAX_LOCALMODEL_N
    for n in (cap + 1, 40):
        code, out, err = run_cli(capsys, unit_tuple(n))
        assert (code, out) == (1, "")
        assert "usage error" in err and str(cap) in err and str(n * n) in err
    # at the cap the work starts (and stops at the patched entry point)
    with pytest.raises(_Reached):
        main(unit_tuple(cap))


def test_an_internal_invariant_failure_exits_2_with_a_counterexample(capsys, tmp_path, monkeypatch):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", ["0", "1"]]]}))
    cases = [
        # e_1 passes for the kernel of Q(0) = diag(1, 1, 0); its products with
        # the odd blades would span the 2 dimensions of the radical at corank
        # 1, so only the check Q(0) r = 0 refuses it
        (
            "nullspace_dense",
            lambda rows, n: [[Fraction(int(k == 0)) for k in range(n)]],
            "Q(0) r != 0 for the kernel vector r = (1, 0, 0)",
        ),
        # e_3 twice: each vector is in ker Q(0), but there are two of them
        (
            "nullspace_dense",
            lambda rows, n: [[Fraction(int(k == n - 1)) for k in range(n)]] * 2,
            "ker Q(0) has 2 basis vectors, Q(0) has corank 1",
        ),
        # every product 1: the right kernel spans 1 dimension, not 2
        (
            "_blade_times_gen",
            lambda V, S, j: {0: 1},
            "the span of Cl^odd ker Q(0) has dimension 1, the structure theorem 2",
        ),
    ]
    for name, stand_in, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(degeneration, name, stand_in)
            code, out, _ = run_cli(capsys, ["degenerate", "analyze", "--input", str(path)])
        assert code == 2
        doc = json.loads(out)  # exactly one document
        assert doc == {
            "subcommand": "degenerate analyze",
            "verdict": "fail",
            "payload": {"counterexample": message},
        }


def test_a_non_unital_fibre_tensor_exits_2_not_as_an_input_error(capsys, tmp_path, monkeypatch):
    def without_left_unit_at_1(V):
        T = theta_tensor(V)
        return liestructure.AlgebraTensor(dim=T.dim, identity=T.identity, c={**T.c, (T.identity, 1): {}})

    monkeypatch.setattr(degeneration, "theta_tensor", without_left_unit_at_1)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", ["0", "1"]]]}))
    code, out, err = run_cli(capsys, ["degenerate", "analyze", "--input", str(path)])
    assert code == 2 and "input error" not in err
    assert json.loads(out) == {
        "subcommand": "degenerate analyze",
        "verdict": "fail",
        "payload": {"counterexample": "identity fails on the left at 1"},
    }


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
