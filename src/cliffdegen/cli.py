"""Batch command-line front end: every verification as a subcommand with
JSON output on stdout and deterministic exit codes.

Exit codes: 0 = verification passed (or a classification was produced);
2 = the verification ran and failed, with a counterexample in the payload;
1 = usage or input errors.  stdout carries exactly one JSON document with
sorted keys (identical inputs and seed give byte-identical stdout); progress
and timing go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import acceptance, jsonio
from .clifford import PoleError, specialize_space
from .degeneration import NoWitness, QuadraticFamily, certify_specialization
from .liestructure import (
    LieClosureError,
    ReconstructionError,
    reconstruct_form,
    structure_constants,
    theta_tensor,
)
from .lipschitz import lipschitz_report
from .localmodels import (
    centralizer_dim,
    generates_full_algebra,
    is_cyclic_vector,
    s_equivalent,
    trace_fingerprint,
)
from .plethysm import NotACharacter, halfspin_weights, verify_plethysm
from .rings import CoefficientRingMismatch
from .spinor import (
    WittDecomposition,
    even_algebra_isomorphism_check,
    halfspin_split,
    spin_weights,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_input(path: str):
    if path is None:
        raise UsageError("this subcommand requires --input FILE|-")
    try:
        raw = sys.stdin.read() if path == "-" else open(path).read()
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _cmd_form_reconstruct(args):
    if args.random:
        if args.m is None:
            raise UsageError("--random requires --m")
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        trials = args.trials or 1
        payload = {"seed": seed, "trials": trials, "m": args.m, "results": []}
        ok = True
        for _ in range(trials):
            V = acceptance._random_symmetric(rng, args.m)
            R = reconstruct_form(structure_constants(V))
            match = R.gram == V.gram
            ok = ok and match
            payload["results"].append(
                {"recovered_Q": jsonio.encode_space(R), "matches": match}
            )
        return ("pass" if ok else "fail"), payload
    V = jsonio.decode_space(_load_input(args.input))
    R = reconstruct_form(structure_constants(V))
    match = R.gram == V.gram
    return ("pass" if match else "fail"), {
        "recovered_Q": jsonio.encode_space(R),
        "matches": match,
    }


def _cmd_form_tensor(args):
    V = jsonio.decode_space(_load_input(args.input))
    if args.at is not None:
        V = specialize_space(V, Fraction(args.at))
    T = theta_tensor(V)
    payload = {"tensor": jsonio.encode_tensor(T)}
    if args.at is not None:
        payload["specialized_at"] = str(Fraction(args.at))
    return "pass", payload


def _cmd_spinor_check(args):
    W = WittDecomposition(args.ell, odd=args.parity == "odd")
    rep = even_algebra_isomorphism_check(W)
    payload = {
        "case": rep["case"],
        "ell": rep["ell"],
        "dim_even_algebra": rep["dim_even_algebra"],
        "operator_rank": rep.get("operator_rank"),
        "target_dim": rep.get("target_dim"),
        "relations_ok": rep["relations_ok"],
        "bijective": rep["bijective"],
    }
    if rep.get("first_failed_relation"):
        fail = rep["first_failed_relation"]
        payload["first_failed_relation"] = {
            "pair": list(fail["pair"]),
            "entry": list(fail["entry"]),
            "got": str(fail["got"]),
            "want": str(fail["want"]),
        }
    return ("pass" if rep["bijective"] else "fail"), payload


def _cmd_spinor_weights(args):
    if args.halfspin:
        plus, minus = halfspin_split(args.ell)
        W = plus if args.halfspin == "+" else minus
        label = f"D{args.ell} half-spin {args.halfspin}"
    elif args.type == "D":
        plus, minus = halfspin_split(args.ell)
        W = dict(plus)
        for k, v in minus.items():
            W[k] = W.get(k, 0) + v
        label = f"D{args.ell} spin (both halves)"
    else:
        W = spin_weights(args.ell)
        label = f"B{args.ell} spin"
    if args.tsv:
        with open(args.tsv, "w") as fh:
            fh.write(jsonio.weights_tsv(W))
    return "pass", {
        "ell": args.ell,
        "module": label,
        "count": sum(W.values()),
        "weights": jsonio.encode_weights(W),
    }


def _cmd_lipschitz_test(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "V" not in obj or "x" not in obj:
        raise UsageError('lipschitz test expects {"V": space, "x": multivector}')
    V = jsonio.decode_space(obj["V"])
    x = jsonio.decode_multivector(obj["x"])
    rep = lipschitz_report(x, V)
    payload = {
        "homogeneous": rep["homogeneous"],
        "cl0_member": rep["cl0_member"],
        "norm_scalar": None if rep["norm_scalar"] is None else jsonio.encode_coeff(rep["norm_scalar"]),
        "verdict": rep["verdict"],
    }
    return "pass", payload


def _cmd_degenerate_analyze(args):
    V = jsonio.decode_space(_load_input(args.input))
    F = QuadraticFamily(V)
    w = certify_specialization(F)
    return "pass", jsonio.encode_witness(w)


def _cmd_plethysm_verify(args):
    rep = verify_plethysm(args.case)
    ok = rep["is_single_irreducible"] and (
        args.case != "g2" or rep["matches_rho_module"]
    )
    payload = {
        "case": rep["case"],
        "type": rep["type"],
        "ell": rep["ell"],
        "defining_dim": rep["defining_dim"],
        "rho": rep["rho"],
        "halfspin_agree": rep["halfspin_agree"],
        "is_single_irreducible": rep["is_single_irreducible"],
        "matches_rho_module": rep["matches_rho_module"],
    }
    if args.halfspin:
        payload["constituents"] = rep["constituents"][args.halfspin]
        payload["halfspin"] = args.halfspin
    else:
        payload["constituents"] = rep["constituents"]["+"]
    return ("pass" if ok else "fail"), payload


def _cmd_localmodel_simple(args):
    obj = _load_input(args.input)
    vector = None
    if isinstance(obj, dict) and "tuple" in obj:
        vector = obj.get("vector")
        T = jsonio.decode_tuple(obj["tuple"])
    else:
        T = jsonio.decode_tuple(obj)
    payload = {"generates_full_algebra": generates_full_algebra(T)}
    if vector is not None:
        payload["cyclic_vector"] = is_cyclic_vector(T, [Fraction(v) for v in vector])
    return "pass", payload


def _cmd_localmodel_sequiv(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
        raise UsageError('sequiv expects {"first": tuple, "second": tuple}')
    T1 = jsonio.decode_tuple(obj["first"])
    T2 = jsonio.decode_tuple(obj["second"])
    L = args.L
    eq = s_equivalent(T1, T2, L)
    payload = {
        "equivalent": eq,
        "length_bound": L if L is not None else T1.n * T1.n,
    }
    if args.fingerprints:
        payload["first_fingerprint"] = jsonio.encode_fingerprint(trace_fingerprint(T1, L))
        payload["second_fingerprint"] = jsonio.encode_fingerprint(trace_fingerprint(T2, L))
    return "pass", payload


def _cmd_localmodel_centralizer(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "tuple" not in obj or "h" not in obj:
        raise UsageError('centralizer expects {"tuple": tuple, "h": [matrix, ...]}')
    T = jsonio.decode_tuple(obj["tuple"])
    h = [[[Fraction(jsonio.decode_coeff(v)) for v in row] for row in m] for m in obj["h"]]
    return "pass", {"dimension": centralizer_dim(T, h)}


def _cmd_selftest(args):
    seed = args.seed if args.seed is not None else 7
    results = []
    ok = True
    for fn in acceptance.ALL_CRITERIA:
        t0 = time.time()
        r = acceptance.run_criterion(fn, seed)
        dt = time.time() - t0
        print(
            f"[selftest] {r['name']}: {'pass' if r['ok'] else 'FAIL'} ({dt:.1f}s)",
            file=sys.stderr,
        )
        ok = ok and r["ok"]
        results.append({"name": r["name"], "ok": r["ok"], "details": _jsonable(r["details"])})
    return ("pass" if ok else "fail"), {"seed": seed, "criteria": results}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def build_parser() -> _Parser:
    p = _Parser(prog="cliffdegen", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    form = sub.add_parser("form", help="even Lie structure and multiplication tensors")
    fsub = form.add_subparsers(dest="action", required=True)
    fr = fsub.add_parser("reconstruct", help="recover the form from structure constants")
    fr.add_argument("--input", help="quadratic space JSON file or -")
    fr.add_argument("--m", type=int)
    fr.add_argument("--random", action="store_true")
    fr.add_argument("--seed", type=int)
    fr.add_argument("--trials", type=int)
    fr.set_defaults(func=_cmd_form_reconstruct)
    ft = fsub.add_parser("tensor", help="emit the even-algebra multiplication tensor")
    ft.add_argument("--input", required=True)
    ft.add_argument("--at", help="specialisation point c (exact rational)")
    ft.set_defaults(func=_cmd_form_tensor)

    spin = sub.add_parser("spinor", help="spinor module checks and weights")
    ssub = spin.add_subparsers(dest="action", required=True)
    sc = ssub.add_parser("check", help="even algebra vs endomorphisms of the spin module")
    sc.add_argument("--ell", type=int, required=True)
    sc.add_argument("--odd", dest="parity", action="store_const", const="odd", default="odd")
    sc.add_argument("--even", dest="parity", action="store_const", const="even")
    sc.set_defaults(func=_cmd_spinor_check)
    sw = ssub.add_parser("weights", help="spin / half-spin weight multisets")
    sw.add_argument("--ell", type=int, required=True)
    sw.add_argument("--type", choices=("B", "D"), default="B")
    sw.add_argument("--halfspin", choices=("+", "-"))
    sw.add_argument("--tsv", help="also write the multiset as TSV to this path")
    sw.set_defaults(func=_cmd_spinor_weights)

    lip = sub.add_parser("lipschitz", help="Clifford-Lipschitz membership")
    lsub = lip.add_subparsers(dest="action", required=True)
    lt = lsub.add_parser("test", help="classify an element (monoid/group/spin/none)")
    lt.add_argument("--input", required=True)
    lt.set_defaults(func=_cmd_lipschitz_test)

    deg = sub.add_parser("degenerate", help="flat degenerations of matrix algebras")
    dsub = deg.add_subparsers(dest="action", required=True)
    da = dsub.add_parser("analyze", help="certify a one-parameter family")
    da.add_argument("--input", required=True)
    da.set_defaults(func=_cmd_degenerate_analyze)

    ple = sub.add_parser("plethysm", help="half-spin branching identifications")
    psub = ple.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("verify", help="verify a branching case")
    pv.add_argument("case", choices=("g2", "f4", "c3"))
    pv.add_argument("--halfspin", choices=("+", "-"))
    pv.set_defaults(func=_cmd_plethysm_verify)

    loc = sub.add_parser("localmodel", help="matrix-tuple local models")
    osub = loc.add_subparsers(dest="action", required=True)
    ls = osub.add_parser("simple", help="full-algebra generation (and cyclic vectors)")
    ls.add_argument("--input", required=True)
    ls.set_defaults(func=_cmd_localmodel_simple)
    le = osub.add_parser("sequiv", help="S-equivalence via trace fingerprints")
    le.add_argument("--input", required=True)
    le.add_argument("--L", type=int)
    le.add_argument("--fingerprints", action="store_true")
    le.set_defaults(func=_cmd_localmodel_sequiv)
    lc = osub.add_parser("centralizer", help="adjoint centralizer dimension")
    lc.add_argument("--input", required=True)
    lc.set_defaults(func=_cmd_localmodel_centralizer)

    st = sub.add_parser("selftest", help="run the full acceptance battery")
    st.add_argument("--seed", type=int)
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    name = args.group + (f" {args.action}" if getattr(args, "action", None) else "")
    t0 = time.time()
    try:
        verdict, payload = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        jsonio.InputFormatError,
        PoleError,
        CoefficientRingMismatch,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ReconstructionError, LieClosureError, NotACharacter, NoWitness) as exc:
        report = {
            "subcommand": name,
            "verdict": "fail",
            "payload": {"counterexample": str(exc)},
        }
        print(json.dumps(report, sort_keys=True))
        print(f"[cliffdegen] {name}: fail ({time.time() - t0:.2f}s)", file=sys.stderr)
        return 2
    report = {"subcommand": name, "verdict": verdict, "payload": _jsonable(payload)}
    print(json.dumps(report, sort_keys=True))
    print(f"[cliffdegen] {name}: {verdict} ({time.time() - t0:.2f}s)", file=sys.stderr)
    return 0 if verdict == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
