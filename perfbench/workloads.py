"""The four benchmark workloads.

Each workload is a closed loop with one client: the next request is sent only
after the previous one returns.  Requests come in rounds; a round holds every
request kind of the workload once (drawn from the seed), so the mix of kinds
is the same in every run and only the drawn indices change with the seed.

A workload has

* ``setup()``: the warm-up a user pays once per process (timed as set-up);
* ``prepare()``: the benchmark's own input pools and reference digests,
  built untimed and before tracing starts;
* ``rounds(rng)``: an endless iterator of request lists, drawn from the
  prepared pools without calling into the program;
* ``begin_round()``: work done between rounds that belongs to the run;
* ``execute(request)``: one request, timed;
* ``check(request, output)``: ``None`` when the output is right, else a reason;
* ``info()``: workload properties measured during the run;
* ``waits_on_children``: whether the process mostly waits on subprocesses
  (see calibrate.py for how that changes host-speed sampling).

Calls into the program go through module attributes looked up at call time
(``nchopf.elements.product``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"


def nchopf(module: str):
    return importlib.import_module(f"nchopf.{module}")


def digest(data) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON text."""
    text = nchopf("serialize").canonical_dumps(data)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_json(value):
    """JSON form of an element, tensor or scalar result."""
    serialize = nchopf("serialize")
    elements = nchopf("elements")
    if isinstance(value, elements.AlgebraElement):
        return serialize.element_to_json(value)
    if isinstance(value, elements.TensorElement):
        return serialize.tensor_to_json(value)
    return value.to_json()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _index_text(index) -> str:
    return f"{index.n}:" + json.dumps(index.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# hopf-stream


class HopfStream:
    """Seeded in-process API requests on every registered basis.

    Products, coproducts, antipodes, basis changes, duality pairings and inner
    products at q = 2, 3 (grades up to 4) and q = 5 (grades up to 3).  The
    bases whose structure maps route through table basis changes (chi,
    chi_star) are capped lower for coproducts and antipodes, where one cold
    request would otherwise take seconds.  Indices come from a fixed pool, so
    requests repeat indices and the antipode cache is used.
    """

    name = "hopf-stream"
    waits_on_children = False
    BASES = {
        2: ("kappa", "chi", "m", "p", "kappa_star", "chi_star", "U", "V"),
        3: ("kappa", "chi", "k_colored", "m_colored", "kappa_star", "chi_star"),
        5: ("kappa", "chi", "k_colored", "kappa_star", "chi_star"),
    }
    ROUTED = ("chi", "chi_star")
    # function -> (module, source basis, primes)
    CONVERSIONS = {
        "kappa_to_chi": ("superfunctions", "kappa", (2, 3, 5)),
        "chi_to_kappa": ("superfunctions", "chi", (2, 3, 5)),
        "m_to_p": ("ncsym", "m", (2,)),
        "p_to_m": ("ncsym", "p", (2,)),
        "ch": ("ncsym", "kappa", (2, 3, 5)),
        "dual_ch": ("duals", "kappa_star", (2,)),
        "u_to_v": ("duals", "U", (2,)),
        "v_to_u": ("duals", "V", (2,)),
        "kappa_star_to_chi_star": ("duals", "kappa_star", (2, 3, 5)),
    }
    TOP_GRADE = {2: 4, 3: 4, 5: 3}

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self._pools: dict = {}
        self._seen: set = set()
        self.repeats = 0
        self.requests = 0

    # -- request space

    def cap(self, q: int, basis: str, op: str) -> int:
        top = self.TOP_GRADE[q]
        if basis in self.ROUTED and op in ("coproduct", "antipode"):
            top = {2: 4, 3: 3, 5: 2}[q]
        if op == "duality_pairing":
            top = {2: 4, 3: 3, 5: 2}[q]
        return min(top, 2) if self.tiny else top

    def kinds(self) -> list[tuple[str, int, str]]:
        out = []
        for q, bases in self.BASES.items():
            for basis in bases:
                for op in ("product", "coproduct", "antipode"):
                    out.append((op, q, basis))
            if q == 2:
                out.append(("product", 2, "M"))
            for conversion, (_, basis, primes) in self.CONVERSIONS.items():
                if q in primes:
                    out.append((conversion, q, basis))
            out.append(("duality_pairing", q, "chi_star"))
            out.append(("inner_product", q, "chi"))
        return out

    def pool(self, q: int, basis: str, grade: int) -> list:
        key = (q, basis, grade)
        if key not in self._pools:
            sp = nchopf("setpartitions")
            if basis in ("m", "p", "U", "V"):
                items = [sp.arc_encoding(s) for s in sp.all_set_partitions(grade)]
            elif basis == "M":
                items = [nchopf("duals").Permutation(w)
                         for w in itertools.permutations(range(1, grade + 1))]
            elif basis == "m_colored":
                expand = nchopf("ncsym").expand_k_in_colored_m
                found = {idx.partition for lam in sp.enumerate_labeled_partitions(grade, q)
                         for idx in expand(lam, q).terms}
                items = sorted(found, key=lambda c: c.sort_key())
            else:
                items = sp.enumerate_labeled_partitions(grade, q)
            self._pools[key] = items
        return self._pools[key]

    def arguments(self, op: str, q: int, basis: str) -> list[tuple]:
        """Every argument tuple the kind can draw, in a fixed order."""
        top = self.cap(q, basis, op)
        if op == "product":
            return [(a, b) for ga in range(1, top) for gb in range(1, top - ga + 1)
                    for a in self.pool(q, basis, ga) for b in self.pool(q, basis, gb)]
        if op in ("duality_pairing", "inner_product"):
            return [(a, b) for g in range(1, top + 1)
                    for a in self.pool(q, basis, g) for b in self.pool(q, basis, g)]
        return [(a,) for g in range(1, top + 1) for a in self.pool(q, basis, g)]

    def universe(self):
        """Every request whose output is checked against ``expected.json``."""
        for op, q, basis in self.kinds():
            if op == "inner_product":
                continue
            for args in self.arguments(op, q, basis):
                yield (op, q, basis) + args

    @staticmethod
    def key(request) -> str:
        """Short hash of the request text, the key into ``expected.json``."""
        op, q, basis, *args = request
        text = "|".join([op, str(q), basis] + [_index_text(a) for a in args])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- workload interface

    def setup(self) -> None:
        superfunctions = nchopf("superfunctions")
        for q, top in self.TOP_GRADE.items():
            for n in range(1, (min(top, 2) if self.tiny else top) + 1):
                superfunctions.supercharacter_table(n, q).inverse()

    def prepare(self) -> None:
        self.expected = load_expected()["hopf-stream"]
        self.choices = {}
        for op, q, basis in self.kinds():
            if op in ("duality_pairing", "inner_product"):
                top = self.cap(q, basis, op)
                drawn = [self.pool(q, basis, g) for g in range(1, top + 1)]
            else:
                drawn = self.arguments(op, q, basis)
            self.choices[(op, q, basis)] = drawn

    def rounds(self, rng: random.Random):
        # Each kind walks a seeded permutation of its arguments and reshuffles
        # when it runs out, so a run sees nearly the same cost mix whatever
        # the seed; indices still repeat across kinds and across passes.
        kinds = self.kinds()
        queues = {kind: [] for kind in kinds}
        while True:
            batch = []
            for op, q, basis in kinds:
                drawn = self.choices[(op, q, basis)]
                if op in ("duality_pairing", "inner_product"):
                    same_grade = rng.choice(drawn)
                    a = rng.choice(same_grade)
                    b = a if rng.random() < 0.5 else rng.choice(same_grade)
                    args = (a, b)
                else:
                    queue = queues[(op, q, basis)]
                    if not queue:
                        queue.extend(drawn)
                        rng.shuffle(queue)
                    args = queue.pop()
                batch.append((op, q, basis) + args)
            rng.shuffle(batch)
            for request in batch:
                self._count_repeat(request)
            yield batch

    def _count_repeat(self, request) -> None:
        """A request repeats when every index it passes, as (q, basis,
        index), was passed by an earlier request of the run: the property the
        antipode cache and the basis-change caches depend on."""
        op, q, basis, *args = request
        bases = ("chi_star", "chi") if op == "duality_pairing" else (basis, basis)
        indices = {(q, b, a) for b, a in zip(bases, args)}
        self.requests += 1
        if indices <= self._seen:
            self.repeats += 1
        self._seen |= indices

    def begin_round(self) -> None:
        pass

    def execute(self, request):
        op, q, basis, *args = request
        elements = nchopf("elements")

        def element(tag, index):
            return elements.AlgebraElement(q, tag, {elements.BasisIndex(tag, index.n, index): 1})

        if op == "product":
            if basis == "M":
                return nchopf("duals").product_M(args[0], args[1], q)
            return elements.product(element(basis, args[0]), element(basis, args[1]))
        if op == "coproduct":
            return elements.coproduct(element(basis, args[0]))
        if op == "antipode":
            return elements.antipode(element(basis, args[0]))
        if op == "duality_pairing":
            return nchopf("duals").duality_pairing(
                element("chi_star", args[0]), element("chi", args[1]))
        if op == "inner_product":
            return nchopf("superfunctions").inner_product(
                element("chi", args[0]), element("chi", args[1]))
        convert = getattr(nchopf(self.CONVERSIONS[op][0]), op)
        return convert(element(basis, args[0]))

    def check(self, request, output):
        op, q, basis, *args = request
        if op == "inner_product":
            # Supercharacters are orthogonal with <chi^lam, chi^lam> = q^crs(lam).
            a, b = args
            crs = nchopf("setpartitions").crossing_statistic(a)
            want = q**crs if a == b else 0
            return None if output == want else f"inner product {output} != {want}"
        want = self.expected.get(self.key(request))
        if want is None:
            return "no expected digest for this request"
        got = digest(output_json(output))
        return None if got == want else f"digest {got} != {want}"

    def info(self) -> dict:
        share = self.repeats / self.requests if self.requests else 0.0
        return {"repeat_share": round(share, 4), "kinds_per_round": len(self.kinds())}


# ---------------------------------------------------------------------------
# tables-cold


class TablesCold:
    """Supercharacter tables built from nothing, each followed by one
    kappa_to_chi that forces the inverse.  The in-memory table cache is
    cleared and the disk cache pointed at an empty directory before each
    build."""

    name = "tables-cold"
    waits_on_children = False
    SIZES = ((4, 2), (5, 2), (3, 3), (4, 3), (3, 5))
    TINY_SIZES = ((3, 2), (2, 3))

    def __init__(self, tmp: Path, tiny: bool = False):
        self.tmp = tmp
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        self.builds = 0

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        self.expected = load_expected()["tables"]
        enumerate_ = nchopf("setpartitions").enumerate_labeled_partitions
        self.indices = {(n, q): enumerate_(n, q) for n, q in self.sizes}

    def rounds(self, rng: random.Random):
        while True:
            batch = []
            for n, q in self.sizes:
                batch.append((n, q, rng.choice(self.indices[(n, q)])))
            rng.shuffle(batch)
            yield batch

    def begin_round(self) -> None:
        pass

    def execute(self, request):
        n, q, lam = request
        superfunctions = nchopf("superfunctions")
        self.builds += 1
        empty = self.tmp / f"tables-{self.builds}"
        superfunctions.clear_table_cache()
        table = superfunctions.supercharacter_table(n, q, cache_dir=empty)
        return table, superfunctions.kappa_to_chi(superfunctions.kappa_element(q, lam))

    def check(self, request, output):
        n, q, lam = request
        table, chi = output
        want = self.expected.get(f"{n},{q}")
        if want is None:
            return "no expected digest for this table"
        if digest(table.to_json()) != want["table"]:
            return "table digest differs"
        inverse = [[v.to_json() for v in row] for row in table.inverse()]
        if digest(inverse) != want["inverse"]:
            return "inverse digest differs"
        # Round trip through the table rows: sum_l chi_l * row(l) = kappa_lam.
        cyclotomic = nchopf("cyclotomic")
        back = [cyclotomic.CycRational.zero(q)] * len(table.order)
        for idx, coeff in chi.terms.items():
            row = table.values[table.index(idx.partition)]
            back = [acc + coeff * v for acc, v in zip(back, row)]
        target = table.index(lam)
        if any(v != (1 if j == target else 0) for j, v in enumerate(back)):
            return "kappa_to_chi does not invert chi_to_kappa"
        return None

    def info(self) -> dict:
        return {"sizes": [list(s) for s in self.sizes]}


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """The brute-force group oracle: ``suite_oracle`` at small (n, q), the
    raw supercharacters at one (n, q), and a seeded sample of their raw inner
    products, each checked against q^crs(lam) * delta.  Group and table caches are emptied at
    the start of every round, so every round does the same enumeration."""

    name = "oracle"
    waits_on_children = False
    SUITES = ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3))
    PAIRS_AT = (4, 3)
    DIAGONAL = 10
    # Pairs per request: one raw inner product takes about 20 ms, so a
    # request of six is long enough that the tail is not set by one pause.
    PAIRS_PER_REQUEST = 6
    TINY_SUITES = ((1, 2), (2, 2), (3, 2))
    TINY_PAIRS_AT = (3, 2)

    def __init__(self, tmp: Path, tiny: bool = False):
        self.tmp = tmp
        self.suites = self.TINY_SUITES if tiny else self.SUITES
        self.pairs_at = self.TINY_PAIRS_AT if tiny else self.PAIRS_AT
        self.diagonal = 2 if tiny else self.DIAGONAL
        self.round = 0

    def setup(self) -> None:
        nchopf("verify")

    def prepare(self) -> None:
        self.lams = nchopf("setpartitions").enumerate_labeled_partitions(*self.pairs_at)

    def rounds(self, rng: random.Random):
        n, q = self.pairs_at
        lams = self.lams
        while True:
            # The characters are built by one request that comes first, so
            # every pair costs one inner product whatever order it comes in.
            partners = list(lams)
            rng.shuffle(partners)
            pairs = list(zip(lams, partners)) + [(a, a) for a in rng.sample(lams, self.diagonal)]
            rng.shuffle(pairs)
            batch = [("suite", n_, q_) for n_, q_ in self.suites]
            batch += [("pairs", n, q, pairs[i:i + self.PAIRS_PER_REQUEST])
                      for i in range(0, len(pairs), self.PAIRS_PER_REQUEST)]
            rng.shuffle(batch)
            yield [("characters", n, q)] + batch

    def begin_round(self) -> None:
        self.round += 1
        os.environ["NCHOPF_CACHE_DIR"] = str(self.tmp / f"oracle-{self.round}")
        nchopf("unitriangular")._GROUPS.clear()
        nchopf("superfunctions").clear_table_cache()

    def execute(self, request):
        if request[0] == "suite":
            return nchopf("verify").suite_oracle(request[1], request[2])
        unitriangular = nchopf("unitriangular")
        group = unitriangular.get_group(request[1], request[2])
        if request[0] == "characters":
            return [group.supercharacter_raw(lam) for lam in self.lams]
        return [unitriangular.raw_inner_product(group.supercharacter_raw(a),
                                                group.supercharacter_raw(b))
                for a, b in request[3]]

    def check(self, request, output):
        if request[0] == "suite":
            if not output.checks:
                return "suite ran no checks"
            return None if output.passed else f"failed: {[c.name for c in output.failures]}"
        if request[0] == "characters":
            # Each character is a function on the whole group; the pairs
            # below check their values.
            order = request[2] ** (request[1] * (request[1] - 1) // 2)
            sizes = {len(f.values) for f in output}
            return None if sizes == {order} else f"character domains {sizes} != {order}"
        q = request[2]
        crossings = nchopf("setpartitions").crossing_statistic
        for (a, b), value in zip(request[3], output):
            want = q ** crossings(a) if a == b else 0
            if value != want:
                return f"raw inner product of {a!r}, {b!r} is {value}, not {want}"
        return None

    def info(self) -> dict:
        return {"suites": [list(s) for s in self.suites], "pairs_at": list(self.pairs_at)}


# ---------------------------------------------------------------------------
# cli


class Cli:
    """``nchopf`` commands, one subprocess at a time.  Each stdout must equal,
    byte for byte, the canonical JSON of the same call made in process, and
    the exit code must be 0."""

    name = "cli"
    waits_on_children = True
    # Every round runs these four small suites (about 0.2 s each); the hopf
    # suite takes seconds even at n = 2.
    SUITES = (("oracle", "--n", "3", "--q", "2"), ("axioms", "--n", "3", "--q", "2"),
              ("duality", "--n", "2", "--q", "2"), ("iso", "--n", "3", "--q", "2"))

    def __init__(self, root: Path, tmp: Path, tiny: bool = False, trace_dir: Path | None = None):
        self.root = root
        self.tmp = tmp
        self.tiny = tiny
        self.trace_dir = trace_dir
        self.calls = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["NCHOPF_CACHE_DIR"] = str(tmp / "cli-cache")

    def setup(self) -> None:
        nchopf("cli")
        superfunctions = nchopf("superfunctions")
        cache = self.tmp / "cli-cache"
        for n, q in self.tables():
            superfunctions.supercharacter_table(n, q, cache_dir=cache)

    def tables(self):
        """Tables the commands load from the disk cache."""
        top = 2 if self.tiny else 4
        return [(n, 2) for n in range(1, top + 1)] + [(top - 1, 3)]

    def prepare(self) -> None:
        enumerate_ = nchopf("setpartitions").enumerate_labeled_partitions
        self.indices = {(n, q): enumerate_(n, q) for q in (2, 3) for n in range(1, 5)}

    def _element(self, rng, q, grade_cap, basis="kappa", same_grade=None):
        elements = nchopf("elements")
        grade = same_grade or rng.randint(1, grade_cap)
        lams = self.indices[(grade, q)]
        terms = {elements.BasisIndex(basis, grade, lam): rng.choice((-2, -1, 1, 2, 3))
                 for lam in rng.sample(lams, min(len(lams), rng.randint(1, 3)))}
        return elements.AlgebraElement(q, basis, terms)

    def rounds(self, rng: random.Random):
        top = 2 if self.tiny else 4
        (tn, tq) = self.tables()[-1]
        while True:
            left = self._element(rng, 3, top // 2)
            right = self._element(rng, 3, top - top // 2)
            star = self._element(rng, 2, top - 1, "chi_star")
            chi = self._element(rng, 2, top - 1, "chi", same_grade=next(iter(star.terms)).grade)
            batch = [
                ("table", ["table", "--n", str(top), "--q", "2"], None),
                ("table", ["table", "--n", str(tn), "--q", str(tq)], None),
                ("enumerate", ["enumerate", "--n", str(top), "--q", "3", "--json"], None),
                ("mul", ["mul"], {"left": left, "right": right}),
                ("comul", ["comul"], self._element(rng, 2, top)),
                ("antipode", ["antipode"], self._element(rng, 3, top - 1)),
                ("convert", ["convert", "--from", "kappa", "--to", "chi"],
                 self._element(rng, 2, top)),
                ("pair", ["pair"], {"left": star, "right": chi}),
            ]
            batch += [("verify", ["verify", "--suite", *suite], None) for suite in self.SUITES]
            rng.shuffle(batch)
            yield batch

    def begin_round(self) -> None:
        pass

    def _stdin(self, payload) -> bytes:
        if payload is None:
            return b""
        serialize = nchopf("serialize")
        if isinstance(payload, dict):
            payload = {k: serialize.element_to_json(v) for k, v in payload.items()}
        else:
            payload = serialize.element_to_json(payload)
        return serialize.canonical_dumps(payload).encode()

    def execute(self, request):
        _, argv, payload = request
        if self.trace_dir is None:
            command = [sys.executable, "-m", "nchopf.cli", *argv]
        else:
            self.calls += 1
            stats = self.trace_dir / f"cli-{self.calls}.json"
            command = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(stats), *argv]
        done = subprocess.run(command, input=self._stdin(payload), capture_output=True,
                              env=self.env, cwd=self.tmp, timeout=120)
        return done.returncode, done.stdout

    def expected_stdout(self, request) -> str:
        kind, argv, payload = request
        cli = nchopf("cli")
        serialize = nchopf("serialize")
        dumps = serialize.canonical_dumps
        if kind == "table":
            n, q = int(argv[2]), int(argv[4])
            return dumps(nchopf("superfunctions").supercharacter_table(n, q).to_json())
        if kind == "enumerate":
            n, q = int(argv[2]), int(argv[4])
            lams = nchopf("setpartitions").enumerate_labeled_partitions(n, q)
            return dumps([lam.to_json() for lam in lams])
        if kind == "mul":
            product = nchopf("elements").product(payload["left"], payload["right"])
            return dumps(serialize.element_to_json(product))
        if kind == "comul":
            return dumps(serialize.tensor_to_json(nchopf("elements").coproduct(payload)))
        if kind == "antipode":
            return dumps(serialize.element_to_json(nchopf("elements").antipode(payload)))
        if kind == "convert":
            return dumps(serialize.element_to_json(cli.CONVERSIONS[("kappa", "chi")](payload)))
        if kind == "pair":
            value = nchopf("duals").duality_pairing(payload["left"], payload["right"])
            return dumps({"value": value.to_json()})
        if kind == "verify":
            report = nchopf("verify").run_suite(argv[2], int(argv[4]), int(argv[6]))
            return dumps(report.to_json())
        raise ValueError(kind)

    def check(self, request, output):
        code, stdout = output
        if code != 0:
            return f"exit code {code}"
        want = (self.expected_stdout(request) + "\n").encode()
        return None if stdout == want else "stdout differs from the in-process call"

    def info(self) -> dict:
        return {"tables": [list(t) for t in self.tables()]}


WORKLOADS = ("hopf-stream", "tables-cold", "oracle", "cli")


def make(name: str, root: Path, tmp: Path, tiny: bool, trace_dir: Path | None = None):
    if name == "hopf-stream":
        return HopfStream(tiny)
    if name == "tables-cold":
        return TablesCold(tmp, tiny)
    if name == "oracle":
        return Oracle(tmp, tiny)
    if name == "cli":
        return Cli(root, tmp, tiny, trace_dir)
    raise ValueError(f"unknown workload {name!r}")
