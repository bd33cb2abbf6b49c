"""Command-line front end.

Element input and output is JSON on the standard streams; tables and reports
are JSON by default with an opt-in aligned-text rendering.  Exit codes:
0 success, 1 invalid input, 2 bound exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter

from .duals import (
    _dual_ch_inverse,
    dual_ch,
    duality_pairing,
    chi_star_to_kappa_star,
    kappa_star_to_chi_star,
    u_to_v,
    v_to_u,
)
from .elements import AlgebraElement, antipode, coproduct, product
from .limits import BoundExceededError, check_grade, check_work, degree_weighted
from .ncsym import m_to_p, p_to_m
from .serialize import canonical_dumps, element_from_json, element_to_json, tensor_to_json
from .setpartitions import count_labeled_partitions, enumerate_labeled_partitions
from .superfunctions import chi_to_kappa, inner_product, kappa_to_chi, supercharacter_table
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
    ver.add_argument(
        "--seed", type=int, default=0,
        help="seeds the hopf suite's random samples; the other suites ignore it",
    )

    return parser


def _read_json(stdin) -> dict:
    text = stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON on standard input: {exc}") from exc
    except RecursionError as exc:
        raise CliError("invalid JSON on standard input: nested too deeply") from exc


def _read_pair(stdin, command: str, basis: str | None = None, q: int | None = None) -> tuple:
    data = _read_json(stdin)
    if not isinstance(data, dict) or "left" not in data or "right" not in data:
        raise CliError(f'{command} expects {{"left": <element>, "right": <element>}}')
    return _read_element(data["left"], basis, q), _read_element(data["right"], basis, q)


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


def _check_elements(command: str, *elements: AlgebraElement) -> None:
    """The grade of a product is the sum of its factors' grades, and every
    other element command works within the grade of its input.  Within the
    grade bound the work of mul, comul and antipode still grows with q, so
    ``element_work`` bounds it; convert and pair change basis through a
    table, which has its own check, or term by term."""
    check_grade(sum(max(x.grades(), default=0) for x in elements), "grade ")
    if command in _REACH:
        work = element_work(command, *elements)
        check_work(command, work, f"the input reaches {work} degree-weighted basis indices")


def _antipode_reach(basis: str, q: int, n: int) -> int:
    """The indices of grade n that the antipode of one index can reach: all
    N = |S_n(q)| labeled set partitions for kappa, k (which carries kappa's
    maps), chi and chi_star, whose products choose arc labels; for a colored
    monomial, Bell(n) set partitions times the colorings, since its maps
    permute its colors; and Bell(n) for m, p, U, V and kappa_star, whose
    maps carry labels along and never choose one, so that their work does
    not grow with q."""
    bell = count_labeled_partitions(n, 2)
    if basis in ("kappa", "k_colored", "chi", "chi_star"):
        return count_labeled_partitions(n, q)
    if basis == "m_colored":
        return bell * min(math.factorial(n), (q - 1) ** n)
    return bell


def _coproduct_reach(basis: str, q: int, n: int) -> int:
    """A coproduct splits an index over at most the 2^n subsets of its
    points and chooses no label.  The chi_star coproduct deconcatenates, so
    it reaches at most n + 1 pairs and builds no table; the chi coproduct
    changes basis through kappa, under the table bound."""
    return 2**n


def _product_reach(basis: str, q: int, a: int, b: int) -> int:
    """The indices of grade a + b that the product of an index of grade a
    with one of grade b can reach.  A kappa (or k) product adds connecting
    arcs to the two indices side by side: s of the a left points, each
    joined to one of the b right points by one of q - 1 labels.  A colored
    product keeps the colors."""
    if basis in ("kappa", "k_colored"):
        return sum(math.comb(a, s) * math.perm(b, s) * (q - 1) ** s for s in range(min(a, b) + 1))
    if basis == "m_colored":
        return count_labeled_partitions(a + b, 2)
    return _antipode_reach(basis, q, a + b)


_REACH = {"antipode": _antipode_reach, "comul": _coproduct_reach, "mul": _product_reach}


def element_work(command: str, *elements: AlgebraElement) -> int:
    """What ``mul``, ``comul`` or ``antipode`` may build, counted without
    building it: the command's reach from the grade of each input term, or
    from the grades of each pair of terms of the two factors of ``mul``,
    each weighed by the scalar degree (``limits.UNIT_DEGREE``)."""
    basis, q, reach = elements[0].basis, elements[0].q, _REACH[command]
    grades = [Counter(idx.grade for idx in x.terms).items() for x in elements]
    work = sum(
        math.prod(k for _, k in terms) * reach(basis, q, *(n for n, _ in terms))
        for terms in itertools.product(*grades)
    )
    return degree_weighted(command, work, q)


def _dispatch(args, stdin, stdout) -> int:
    if args.command == "enumerate":
        check_grade(args.n)
        size = count_labeled_partitions(args.n, args.q)
        check_work("enumerate", size, f"n={args.n}, q={args.q} has {size} labeled set partitions")
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
        left, right = _read_pair(stdin, "mul", args.basis, args.q)
        _check_elements("mul", left, right)
        print(canonical_dumps(element_to_json(product(left, right))), file=stdout)
        return EXIT_OK

    if args.command == "comul":
        element = _read_element(_read_json(stdin), args.basis, args.q)
        _check_elements("comul", element)
        print(canonical_dumps(tensor_to_json(coproduct(element))), file=stdout)
        return EXIT_OK

    if args.command == "antipode":
        element = _read_element(_read_json(stdin), args.basis, args.q)
        _check_elements("antipode", element)
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
        _check_elements("convert", element)
        print(canonical_dumps(element_to_json(CONVERSIONS[key](element))), file=stdout)
        return EXIT_OK

    if args.command == "pair":
        left, right = _read_pair(stdin, "pair")
        _check_elements("pair", left)
        _check_elements("pair", right)
        mode = args.mode
        if mode == "auto":
            mode = "dual" if left.basis in ("kappa_star", "chi_star") else "inner"
        if mode == "dual":
            value = duality_pairing(left, right)
        else:
            value = inner_product(left, right)
        print(canonical_dumps({"value": value.to_json()}), file=stdout)
        return EXIT_OK

    if args.command == "verify":
        report = run_suite(args.suite, args.n, args.q, seed=args.seed)
        print(canonical_dumps(report.to_json()), file=stdout)
        return EXIT_OK if report.passed else EXIT_VERIFY

    raise CliError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
