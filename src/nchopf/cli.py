"""Command-line front end.

Element input and output is JSON on the standard streams; tables and reports
are JSON by default with an opt-in aligned-text rendering.  Exit codes:
0 success, 1 invalid input, 2 bound exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .duals import (
    dual_ch,
    duality_pairing,
    chi_star_to_kappa_star,
    kappa_star_to_chi_star,
    u_to_v,
    v_to_u,
)
from .elements import AlgebraElement, BasisIndex, antipode, coproduct, product
from .limits import DEFAULT_TABLE_BOUND, BoundExceededError
from .ncsym import m_to_p, p_to_m
from .serialize import canonical_dumps, element_from_json, element_to_json, tensor_to_json
from .setpartitions import arc_encoding, underlying_set_partition, enumerate_labeled_partitions
from .superfunctions import chi_to_kappa, kappa_to_chi, supercharacter_table
from .unitriangular import oracle_supercharacter_table
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BOUND = 2
EXIT_VERIFY = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise CliError(message)


def _dual_ch_inverse(x: AlgebraElement) -> AlgebraElement:
    if x.basis != "V" or x.q != 2:
        raise ValueError("conversion V -> kappa_star is defined at q = 2")
    terms = {
        BasisIndex("kappa_star", idx.grade, arc_encoding(underlying_set_partition(idx.partition))): c
        for idx, c in x.terms.items()
    }
    return AlgebraElement(x.q, "kappa_star", terms)


CONVERSIONS = {
    ("kappa", "chi"): kappa_to_chi,
    ("chi", "kappa"): chi_to_kappa,
    ("m", "p"): m_to_p,
    ("p", "m"): p_to_m,
    ("U", "V"): u_to_v,
    ("V", "U"): v_to_u,
    ("kappa_star", "V"): dual_ch,
    ("V", "kappa_star"): _dual_ch_inverse,
    ("kappa_star", "chi_star"): kappa_star_to_chi_star,
    ("chi_star", "kappa_star"): chi_star_to_kappa_star,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="nchopf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="list the labeled set partitions of [n]")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--q", type=int, required=True)
    enum.add_argument("--json", action="store_true", dest="as_json")

    table = sub.add_parser("table", help="emit the supercharacter table and class sizes")
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--q", type=int, required=True)
    table.add_argument("--oracle", action="store_true", help="compute by group enumeration")
    table.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    table.add_argument("--cache-dir", default=None)

    for name, help_text in (
        ("mul", "multiply two elements (stdin: {\"left\": ..., \"right\": ...})"),
        ("comul", "coproduct of an element (stdin: element JSON)"),
        ("antipode", "antipode of an element (stdin: element JSON)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--basis", default=None, help="expected basis tag (validated)")
        cmd.add_argument("--q", type=int, default=None, help="expected prime (validated)")

    convert = sub.add_parser("convert", help="change basis (stdin: element JSON)")
    convert.add_argument("--from", dest="source", required=True)
    convert.add_argument("--to", dest="target", required=True)

    pair = sub.add_parser(
        "pair", help="duality pairing or inner product (stdin: {\"left\": ..., \"right\": ...})"
    )
    pair.add_argument(
        "--mode",
        choices=("auto", "dual", "inner"),
        default="auto",
        help="dual: pair a dual-side element against kappa/chi; inner: class-function inner product",
    )

    ver = sub.add_parser("verify", help="run a named property suite")
    ver.add_argument("--suite", choices=sorted(SUITES), required=True)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--q", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)

    return parser


def _read_json(stdin) -> dict:
    text = stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON on standard input: {exc}") from exc


def _read_element(data: dict, basis: str | None, q: int | None) -> AlgebraElement:
    try:
        element = element_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid element JSON: {exc}") from exc
    if basis is not None and element.basis != basis:
        raise CliError(f"expected basis {basis!r}, element carries {element.basis!r}")
    if q is not None and element.q != q:
        raise CliError(f"expected q={q}, element carries q={element.q}")
    return element


def _render_table_pretty(table) -> str:
    labels = [lam.to_text() for lam in table.order]
    width = max(len(s) for s in labels) if labels else 1
    cells = [[str(v) for v in row] for row in table.values]
    col_width = max((len(c) for row in cells for c in row), default=1)
    lines = []
    header = " " * (width + 2) + "  ".join(s.rjust(col_width) for s in labels)
    lines.append(header)
    for label, row in zip(labels, cells):
        lines.append(label.ljust(width + 2) + "  ".join(c.rjust(col_width) for c in row))
    lines.append("class sizes: " + " ".join(str(s) for s in table.class_sizes))
    return "\n".join(lines)


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args, stdin, stdout)
    except CliError as exc:
        print(f"nchopf: {exc}", file=stderr)
        return EXIT_INVALID
    except BoundExceededError as exc:
        print(f"nchopf: {exc}", file=stderr)
        return EXIT_BOUND
    except (ValueError, KeyError) as exc:
        print(f"nchopf: invalid input: {exc}", file=stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"nchopf: {exc}", file=stderr)
        return EXIT_INVALID


def _check_grade(n: int) -> None:
    """Enumeration and the algebraic suites grow like Bell(n): the same
    grade bound as the tables applies."""
    if n > DEFAULT_TABLE_BOUND:
        raise BoundExceededError(f"n={n} exceeds the configured bound {DEFAULT_TABLE_BOUND}")


def _dispatch(args, stdin, stdout) -> int:
    if args.command == "enumerate":
        _check_grade(args.n)
        partitions = enumerate_labeled_partitions(args.n, args.q)
        if args.as_json:
            print(canonical_dumps([lam.to_json() for lam in partitions]), file=stdout)
        else:
            for lam in partitions:
                print(lam.to_text(), file=stdout)
        return EXIT_OK

    if args.command == "table":
        if args.oracle:
            table = oracle_supercharacter_table(args.n, args.q)
        else:
            table = supercharacter_table(args.n, args.q, cache_dir=args.cache_dir)
        if args.pretty:
            print(_render_table_pretty(table), file=stdout)
        else:
            print(canonical_dumps(table.to_json()), file=stdout)
        return EXIT_OK

    if args.command == "mul":
        data = _read_json(stdin)
        if not isinstance(data, dict) or "left" not in data or "right" not in data:
            raise CliError('mul expects {"left": <element>, "right": <element>}')
        left = _read_element(data["left"], args.basis, args.q)
        right = _read_element(data["right"], args.basis, args.q)
        print(canonical_dumps(element_to_json(product(left, right))), file=stdout)
        return EXIT_OK

    if args.command == "comul":
        element = _read_element(_read_json(stdin), args.basis, args.q)
        print(canonical_dumps(tensor_to_json(coproduct(element))), file=stdout)
        return EXIT_OK

    if args.command == "antipode":
        element = _read_element(_read_json(stdin), args.basis, args.q)
        print(canonical_dumps(element_to_json(antipode(element))), file=stdout)
        return EXIT_OK

    if args.command == "convert":
        key = (args.source, args.target)
        if key not in CONVERSIONS:
            raise CliError(
                f"no conversion {args.source} -> {args.target}; available: "
                + ", ".join("->".join(k) for k in sorted(CONVERSIONS))
            )
        element = _read_element(_read_json(stdin), args.source, None)
        print(canonical_dumps(element_to_json(CONVERSIONS[key](element))), file=stdout)
        return EXIT_OK

    if args.command == "pair":
        data = _read_json(stdin)
        if not isinstance(data, dict) or "left" not in data or "right" not in data:
            raise CliError('pair expects {"left": <element>, "right": <element>}')
        left = _read_element(data["left"], None, None)
        right = _read_element(data["right"], None, None)
        mode = args.mode
        if mode == "auto":
            mode = "dual" if left.basis in ("kappa_star", "chi_star") else "inner"
        if mode == "dual":
            value = duality_pairing(left, right)
        else:
            from .superfunctions import inner_product

            value = inner_product(left, right)
        print(canonical_dumps({"value": value.to_json()}), file=stdout)
        return EXIT_OK

    if args.command == "verify":
        if args.suite in ("hopf", "iso", "duality"):
            _check_grade(args.n)
        report = run_suite(args.suite, args.n, args.q, seed=args.seed)
        print(canonical_dumps(report.to_json()), file=stdout)
        return EXIT_OK if report.passed else EXIT_VERIFY

    raise CliError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
