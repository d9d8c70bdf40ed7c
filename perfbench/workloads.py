"""The four workloads: inputs made from a seed, one pass of jobs, and expectations.

Each workload function writes its input files into a work directory and
returns one *pass*: the ordered list of jobs the closed loop repeats.
Every pass of a run is identical, so per-pass call counts repeat exactly.
The seed decides which inputs are drawn and the job order; sizes, bases
and the number of jobs of each kind are fixed, so that the work in a pass
varies little from seed to seed.

Each job carries the outcome it is checked against, and that outcome never
comes from the code path being timed: carries matrices are totally
nonnegative by Holte's theorem, atom products by construction, a matrix
with a negative entry is refuted by its 1x1 minor, singularity is decided
by this module's own elimination, and the remaining cases must agree
across the three methods (acceptance criterion 7) or with the Neville
test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXIT_CERTIFIED, EXIT_REFUTED, EXIT_INAPPLICABLE, EXIT_DATA = 0, 1, 2, 65
METHODS = ("cross", "neville", "minors")


@dataclass
class Job:
    """One closed-loop request: CLI steps, then optional library round trips.

    ``steps`` holds CLI argument lists (run through ``crosstnn.cli.main``)
    and zero-argument callables that must return True.  ``expect`` is the
    exit code required of each CLI step; ``None`` means "the same as every
    other job of ``group`` whose expectation is also ``None``".  Where the
    expectation takes work to find, ``expect`` is a function returning
    that tuple, called once before the timed loop and outside set-up.
    ``reference``, called at the same time, gives a second required exit
    code for the last CLI step.  ``check`` inspects
    the artefacts afterwards and returns an error message or None.
    """

    kind: str
    steps: tuple
    inputs: tuple = ()
    artefacts: tuple = ()
    expect: tuple = ()
    group: str | None = None
    check: object = None
    reference: object = None


@dataclass
class Pass:
    jobs: list
    mix: dict


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows_are_singular(rows) -> bool:
    """Exact Gaussian elimination over Fraction, independent of crosstnn."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return True
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return False


def _negate_mirrored(rows, i: int, j: int):
    """Flip the sign of entry (i, j) and its half-turn mirror (0-based)."""
    n = len(rows)
    out = [list(r) for r in rows]
    out[i][j] = -out[i][j]
    if (n - 1 - i, n - 1 - j) != (i, j):
        out[n - 1 - i][n - 1 - j] = -out[n - 1 - i][n - 1 - j]
    return out


def _check_job(kind, path, method, expect, ray=None, group=None) -> Job:
    argv = ["check", path, "--method", method]
    if ray is not None:
        argv += ["--ray", str(ray)]
    expect = expect if callable(expect) else (expect,)
    return Job(kind, (argv,), inputs=(path,), expect=expect, group=group)


# -- allbases ----------------------------------------------------------


def allbases(rng, work: Path, ct, quick: bool) -> Pass:
    """verify-amazing for several n: the paper's all-bases showcase path.

    The middle size runs twice, the second time with ``--escalation-cap 0``
    (no size here needs an escalation), so that the median job has twice
    the samples and does not sit between two sizes.
    """
    sizes = (4, 5) if quick else (8, 9, 10)
    middle = sizes[len(sizes) // 2]
    variants = [(n, 3) for n in sizes] + [(middle, 0)]
    jobs = []
    for n, cap in variants:
        report = str(work / f"report-n{n}-cap{cap}.json")
        jobs.append(
            Job(
                f"verify-amazing n={n} cap={cap}",
                (["verify-amazing", "--n", str(n), "--escalation-cap", str(cap), "-o", report],),
                artefacts=(report,),
                expect=(EXIT_CERTIFIED,),
                check=_report_certified,
            )
        )
    rng.shuffle(jobs)
    return Pass(jobs, {"verify-amazing --n N --escalation-cap K": variants})


def _report_certified(artefacts: dict) -> str | None:
    (report,) = artefacts.values()
    overall = json.loads(report)["overall"]
    return None if overall == "certified" else f"report overall is {overall!r}"


# -- check-large -------------------------------------------------------


def check_large(rng, work: Path, ct, quick: bool) -> Pass:
    """Large numeric carries matrices and sign-flipped copies, --method cross.

    The flipped entry always sits in column n/2 (0-based n/2 - 1), with the
    row drawn from the seed.  The elimination meets a flipped entry when it
    reaches that column, so every refutation costs about the same number of
    steps whichever row the seed picks.  Base 10 gets two flipped copies and
    base 3 one, so that the median job is a base-10 refutation rather than
    the boundary between two kinds of job, where it would jump.
    """
    n = 10 if quick else 40
    flips_per_base = {3: 1, 10: 2}
    col = n // 2 - 1
    jobs = []
    for b, flips in flips_per_base.items():
        A = ct.amazing_matrix(n, b, scaled=True)
        path = _write(work / f"carries-n{n}-b{b}.txt", ct.matrix_to_text(A))
        jobs.append(_check_job(f"check n={n} b={b}", path, "cross", EXIT_CERTIFIED))
        rows = [i for i in range(n) if A.rows[i][col] != 0]
        for i in rng.sample(rows, flips):
            flipped = ct.Matrix(_negate_mirrored(A.rows, i, col))
            path = _write(work / f"carries-n{n}-b{b}-flip{i}.txt", ct.matrix_to_text(flipped))
            # A negative entry is a negative 1x1 minor, so the verdict is a
            # refutation, and the Neville test must reach the same one.
            job = _check_job(f"check n={n} b={b} flipped", path, "cross", EXIT_REFUTED)
            job.reference = lambda M=flipped: _neville_exit(ct, M)
            jobs.append(job)
    rng.shuffle(jobs)
    mix = {
        "check --method cross": {"n": n, "b": list(flips_per_base),
                                 "flipped_copies_per_base": flips_per_base},
        "flipped_column": col + 1,
    }
    return Pass(jobs, mix)


def _neville_exit(ct, matrix) -> int:
    verdict = ct.neville_tnn_test(matrix)
    if isinstance(verdict, ct.TotallyNonnegative):
        return EXIT_CERTIFIED
    return EXIT_REFUTED if isinstance(verdict, ct.NotTnn) else EXIT_INAPPLICABLE


# -- factor-verify -----------------------------------------------------


def factor_verify(rng, work: Path, ct, quick: bool) -> Pass:
    """factor --verify, network --format doc, then the README round trip."""
    sizes = (5, 6) if quick else (12, 14, 16)
    base = 10
    jobs = []
    for n in sizes:
        A = ct.amazing_matrix(n, base, scaled=True)
        path = _write(work / f"carries-n{n}-b{base}.txt", ct.matrix_to_text(A))
        cert = str(work / f"carries-n{n}.cert.json")
        net = str(work / f"carries-n{n}.net.json")

        def round_trip(net=net, A=A):
            with open(net, encoding="utf-8") as handle:
                doc = json.load(handle)
            return ct.path_matrix(ct.network_from_doc(doc)) == A

        jobs.append(
            Job(
                f"factor+network n={n} b={base}",
                (
                    ["factor", path, "--verify", "--out", cert],
                    ["network", cert, "--format", "doc", "-o", net],
                    round_trip,
                ),
                inputs=(path,),
                artefacts=(cert, net),
                expect=(EXIT_CERTIFIED, EXIT_CERTIFIED),
            )
        )
    rng.shuffle(jobs)
    return Pass(jobs, {"factor --verify + network --format doc": {"n": list(sizes), "b": base}})


# -- oracle-battery ----------------------------------------------------

# The two ROADMAP crashers come first; the rest are documented exit-65 cases.
_MALFORMED = (
    "2\n1 [1]/[0]\n[1]/[0] 1\n",
    '{"n": 2, "entries": 5}',
)


def _malformed_variants(rng) -> list:
    n = rng.randint(2, 5)
    row = " ".join(str(rng.randint(1, 9)) for _ in range(n))
    return list(_MALFORMED) + [
        f"{n}\n" + "\n".join([row] * (n - 1)) + "\n",  # a row missing
        f"{n}\n" + "\n".join([row + " 1"] * n) + "\n",  # rows too long
        f"{n}\n" + "\n".join([row.replace(' ', ' x', 1)] * n) + "\n",  # bad token
        f"{n}\n" + "\n".join(["[1," + row] * n) + "\n",  # unbalanced bracket
        '{"n": %d}' % n,  # no entries
        '{"n": %d, "entries": [[1, 2], [3' % n,  # broken JSON
    ]


def _uniform_cross_symmetric(rng, n: int):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rows[i][j] is None:
                value = Fraction(rng.randint(-3, 9), rng.randint(1, 4))
                rows[i][j] = rows[n - 1 - i][n - 1 - j] = value
    return rows


def _flipped_expectation(rows) -> dict:
    """A negative entry refutes; singular input is inapplicable to cross and neville."""
    if _rows_are_singular(rows):
        return {"cross": EXIT_INAPPLICABLE, "neville": EXIT_INAPPLICABLE, "minors": EXIT_REFUTED}
    return dict.fromkeys(METHODS, EXIT_REFUTED)


def _uniform_expectation(rows) -> dict:
    """As for a flipped product when an entry is negative; otherwise the methods agree."""
    refuted = EXIT_REFUTED if any(x < 0 for r in rows for x in r) else None
    if _rows_are_singular(rows):
        return {"cross": EXIT_INAPPLICABLE, "neville": EXIT_INAPPLICABLE, "minors": refuted}
    return dict.fromkeys(METHODS, refuted)


def oracle_battery(rng, work: Path, ct, quick: bool) -> Pass:
    """Many small inputs, each checked by all three methods, plus malformed files."""
    sizes = (3, 4) if quick else (3, 4, 5, 6, 7)
    # Twelve inputs of each kind per size put the 90th percentile inside the
    # cluster of n=7 cross and neville jobs rather than on the edge of the
    # slow tail (minors at n >= 5 and the symbolic jobs), where it would jump.
    per_kind = 1 if quick else 12
    symbolic_sizes = (3,) if quick else (4, 5)
    jobs = []
    count = 0

    def add_input(kind, rows, expected):
        # expected: one exit code for every method, or a function of the rows
        # giving one per method (None = agree), called once for all three
        nonlocal count
        count += 1
        path = _write(work / f"battery-{count}.txt", ct.matrix_to_text(ct.Matrix(rows)))
        decided = {}
        for method in METHODS:
            if callable(expected):
                def code(method=method):
                    if not decided:
                        decided.update(expected(rows))
                    return (decided[method],)
            else:
                code = expected
            jobs.append(_check_job(kind, path, method, code, group=f"agree:{path}"))

    for n in sizes:
        for k in range(per_kind):
            product, _ = ct.random_certified_tnn(n, rng.getrandbits(32), atom_count=n)
            add_input(f"product n={n}", product.rows, EXIT_CERTIFIED)

            base, _ = ct.random_certified_tnn(n, rng.getrandbits(32), atom_count=n)
            nonzero = [(i, j) for i in range(n) for j in range(n) if base.rows[i][j] != 0]
            flipped = _negate_mirrored(base.rows, *rng.choice(nonzero))
            add_input(f"sign-flipped n={n}", flipped, _flipped_expectation)

            rows = _uniform_cross_symmetric(rng, n)
            add_input(f"uniform n={n}", rows, _uniform_expectation)

    for n in symbolic_sizes:
        path = _write(work / f"symbolic-n{n}.txt", ct.matrix_to_text(ct.amazing_matrix_symbolic(n)))
        for ray, code in ((n, EXIT_CERTIFIED), (2, EXIT_INAPPLICABLE)):
            for method in METHODS:
                jobs.append(_check_job(f"symbolic n={n} ray={ray}", path, method, code, ray=ray))

    for k, text in enumerate(_malformed_variants(rng)):
        path = _write(work / f"malformed-{k}.txt", text)
        jobs.append(_check_job("malformed", path, "cross", EXIT_DATA))

    rng.shuffle(jobs)
    mix = {
        "check --method cross|neville|minors": {
            "n": list(sizes),
            "per_n": {"atom product": per_kind, "sign-flipped product": per_kind,
                      "uniform cross-symmetric": per_kind},
        },
        "symbolic carries, --ray n and --ray 2": {"n": list(symbolic_sizes)},
        "malformed files, --method cross": len(_MALFORMED) + 6,
    }
    return Pass(jobs, mix)


WORKLOADS = {
    "allbases": allbases,
    "check-large": check_large,
    "factor-verify": factor_verify,
    "oracle-battery": oracle_battery,
}
