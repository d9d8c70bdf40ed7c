"""Command-line front end with deterministic file I/O.

Commands::

    crosstnn gen --amazing N B [--scaled] [-o PATH]
    crosstnn gen --random SEED N ATOMS -o PATH
    crosstnn check PATH [--method cross|neville|minors] [--trace] [--ray B]
    crosstnn factor PATH [--out CERT] [--verify] [--ray B]
    crosstnn network INPUT [--format dot|doc] [-o OUT] [--ray B]
    crosstnn verify-amazing --n N [--escalation-cap K] [-o REPORT]

Exit codes: 0 certified/success, 1 refuted, 2 inapplicable or partial,
64 usage error, 65 malformed content, 66 unreadable input.  Output bytes
are a function of flags and input files only; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .amazing import amazing_matrix, report_to_doc, verify_amazing
from .audit import check_factorization_signs, peel_certificate
from .elimination import (
    eliminate_detailed,
    factorization_from_doc,
    factorization_to_doc,
    neville_tnn_test,
    random_certified_tnn,
)
from .exact import format_scalar, parse_json
from .matrix import brute_force_tnn, matrix_from_payload, matrix_to_text
from .network import export_dot, network_from_factorization, network_to_doc
from .verdicts import Inapplicable, NotTnn, TotallyNonnegative, verdict_label

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INAPPLICABLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which would collide with
    # the "inapplicable" verdict; route usage problems to 64 instead.
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = _Parser(prog="crosstnn", description="Exact total-nonnegativity toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a matrix file")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--amazing", nargs=2, type=int, metavar=("N", "B"))
    gen.add_argument("--random", nargs=3, metavar=("SEED", "N", "ATOMS"))
    gen.add_argument("--scaled", action="store_true", help="multiply entries by b^n")
    gen.add_argument("-o", "--output", metavar="PATH")

    check = sub.add_parser("check", help="test a matrix file for total nonnegativity")
    check.set_defaults(run=_cmd_check)
    check.add_argument("path")
    check.add_argument(
        "--method", choices=("cross", "neville", "minors"), default="cross"
    )
    check.add_argument("--trace", action="store_true", help="print elimination steps")
    check.add_argument("--ray", type=int, help="ray start for symbolic matrices")

    factor = sub.add_parser("factor", help="emit the atom factorization certificate")
    factor.set_defaults(run=_cmd_factor)
    factor.add_argument("path")
    factor.add_argument("--out", metavar="CERT")
    factor.add_argument(
        "--verify", action="store_true", help="peel the certificate off the input and compare"
    )
    factor.add_argument("--ray", type=int)

    network = sub.add_parser("network", help="render a matrix or certificate as a planar network")
    network.set_defaults(run=_cmd_network)
    network.add_argument("input", help="matrix file or factorization certificate")
    network.add_argument("--format", choices=("dot", "doc"), default="dot")
    network.add_argument("-o", "--output", metavar="OUT")
    network.add_argument("--ray", type=int)

    verify = sub.add_parser("verify-amazing", help="certify the carries matrix for all bases")
    verify.set_defaults(run=_cmd_verify_amazing)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--escalation-cap", type=int, default=3)
    verify.add_argument("-o", "--output", metavar="REPORT")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


_json_string = json.encoder.encode_basestring_ascii
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_value(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` at nesting ``indent``, for the types documents use.

    Values of exactly the types str, int, bool, None, list, and dict with
    string keys are written as the json module writes them; any other
    type raises ``TypeError``.  With ``indent`` set, ``json.dumps`` runs
    its pure-Python encoder, which this replaces.
    """
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = indent + "  "
    if type(value) is list:
        if not value:
            return "[]"
        if all(type(x) is str for x in value):
            items = map(_json_string, value)
        else:
            items = [_json_value(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        items = [_json_string(k) + ": " + _json_value(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"not a document value: {type(value).__name__}")


def _json_text(doc: dict) -> str:
    return _json_value(doc, "") + "\n"


def _verdict_exit(verdict) -> int:
    if isinstance(verdict, TotallyNonnegative):
        return EXIT_CERTIFIED
    if isinstance(verdict, NotTnn):
        return EXIT_REFUTED
    return EXIT_INAPPLICABLE


def _print_witness(witness) -> None:
    print(f"reason: {witness.reason}")
    if witness.s is not None:
        print(f"position: s={witness.s} t={witness.t}")
    if witness.index is not None:
        print(f"diagonal index: {witness.index}")
    if witness.rows is not None:
        print(f"rows: {','.join(map(str, witness.rows))}")
        print(f"cols: {','.join(map(str, witness.cols))}")
    if witness.value is not None:
        print(f"value: {format_scalar(witness.value)}")


def _int_at_least(text, least: int, name: str) -> int:
    """A flag value as an integer of at least ``least``; a usage error otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"{name} must be an integer") from None
    if value < least:
        raise _UsageError(f"{name} must be >= {least}")
    return value


def _cmd_gen(args) -> int:
    if (args.amazing is None) == (args.random is None):
        raise _UsageError("gen needs exactly one of --amazing or --random")
    if args.amazing is not None:
        n, b = args.amazing
        _int_at_least(n, 1, "--amazing N")
        _int_at_least(b, 2, "--amazing B")
        matrix = amazing_matrix(n, b, scaled=args.scaled)
        _emit(matrix_to_text(matrix), args.output)
        return EXIT_CERTIFIED
    seed, n_text, atoms_text = args.random
    n = _int_at_least(n_text, 1, "--random N")
    atom_count = _int_at_least(atoms_text, 0, "--random ATOMS")
    if args.output is None:
        raise _UsageError("gen --random needs -o (certificate is written alongside)")
    matrix, fact = random_certified_tnn(n, seed, atom_count)
    _emit(matrix_to_text(matrix), args.output)
    cert_path = os.path.splitext(args.output)[0] + ".cert.json"
    _emit(_json_text(factorization_to_doc(fact)), cert_path)
    return EXIT_CERTIFIED


def _load_matrix(text, ray):
    """Parse a matrix file's text, plain or JSON."""
    matrix = matrix_from_payload(text)
    if matrix.is_symbolic and ray is None:
        raise _UsageError("symbolic matrix: pass --ray to fix the sign ray")
    return matrix


def _certify(text, ray):
    """Load a matrix and eliminate it; returns (matrix, verdict).

    A verdict that is not certified is reported on stderr.
    """
    matrix = _load_matrix(text, ray)
    verdict = eliminate_detailed(matrix, ray=ray).verdict
    if isinstance(verdict, NotTnn):
        print(f"not totally nonnegative: {verdict.witness.reason}", file=sys.stderr)
    elif isinstance(verdict, Inapplicable):
        print(f"inapplicable: {verdict.reason}", file=sys.stderr)
    return matrix, verdict


def _cmd_check(args) -> int:
    matrix = _load_matrix(_read(args.path), args.ray)
    print(f"method: {args.method}")
    if args.method != "cross":
        oracle = brute_force_tnn if args.method == "minors" else neville_tnn_test
        verdict = oracle(matrix, ray=args.ray)
        print(f"verdict: {verdict_label(verdict)}")
        if isinstance(verdict, NotTnn):
            _print_witness(verdict.witness)
        elif isinstance(verdict, Inapplicable):
            print(f"reason: {verdict.reason}")
        return _verdict_exit(verdict)
    run = eliminate_detailed(matrix, ray=args.ray)
    verdict = run.verdict
    print(f"verdict: {verdict_label(verdict)}")
    if isinstance(verdict, TotallyNonnegative):
        fact = verdict.factorization
        print(f"atoms: {len(fact.atoms)}")
        print(f"diagonal: {' '.join(format_scalar(d) for d in fact.diagonal)}")
    elif isinstance(verdict, NotTnn):
        _print_witness(verdict.witness)
    else:
        print(f"reason: {verdict.reason}")
        if verdict.bound is not None:
            print(f"bound: {verdict.bound}")
    if args.trace and not isinstance(verdict, Inapplicable):
        for k, step in enumerate(run.steps, start=1):
            kind = "center" if step.is_center else "bridge"
            print(f"step {k}: s={step.s} t={step.t} c={format_scalar(step.c)} ({kind})")
    return _verdict_exit(verdict)


def _cmd_factor(args) -> int:
    matrix, verdict = _certify(_read(args.path), args.ray)
    if not isinstance(verdict, TotallyNonnegative):
        return _verdict_exit(verdict)
    fact = verdict.factorization
    if args.verify and not peel_certificate(fact, matrix):
        raise AssertionError("certificate does not re-multiply to the input")
    _emit(_json_text(factorization_to_doc(fact)), args.out)
    return EXIT_CERTIFIED


def _cmd_network(args) -> int:
    text = _read(args.input)
    stripped = text.lstrip()
    doc = parse_json(stripped) if stripped.startswith("{") else None
    if doc is not None and "atoms" in doc:
        fact = factorization_from_doc(doc)
        if fact.is_symbolic and args.ray is None:
            raise _UsageError("symbolic certificate: pass --ray to fix the sign ray")
        check_factorization_signs(fact, args.ray)
    else:
        _, verdict = _certify(text, args.ray)
        if not isinstance(verdict, TotallyNonnegative):
            return _verdict_exit(verdict)
        fact = verdict.factorization
    net = network_from_factorization(fact)
    if args.format == "dot":
        _emit(export_dot(net), args.output)
    else:
        _emit(_json_text(network_to_doc(net)), args.output)
    return EXIT_CERTIFIED


def _cmd_verify_amazing(args) -> int:
    _int_at_least(args.n, 1, "--n")
    report = verify_amazing(args.n, escalation_cap=args.escalation_cap)
    _emit(_json_text(report_to_doc(report)), args.output)
    if report.overall == "certified":
        return EXIT_CERTIFIED
    if report.overall == "refuted":
        return EXIT_REFUTED
    return EXIT_INAPPLICABLE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "ray", None) is not None and args.ray < 1:
            raise _UsageError("--ray must be >= 1")
        if getattr(args, "escalation_cap", 0) < 0:
            raise _UsageError("--escalation-cap must be >= 0")
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except (ValueError, json.JSONDecodeError, KeyError, RecursionError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
