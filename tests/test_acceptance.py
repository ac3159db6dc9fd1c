"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time

from dwlink import braids, congruence, gf, groups, holonomy
from dwlink.cli import main
from dwlink.errors import ComponentMismatch, GroupOrderDivisible

from wirtinger_oracle import wirtinger_count

F21 = "perm:7:(1 2 3 4 5 6 7);(1 2 4)(3 6 5)"


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


THEOREM_CATALOG = [
    # (braid, p, k, group spec) -- periodic link vs quotient link
    ("2: 1", 3, 1, "cyclic:2"),       # trefoil vs unknot
    ("2: 1", 3, 1, "cyclic:4"),
    ("2: 1", 3, 1, "quaternion:8"),
    ("2: 1", 3, 1, "dihedral:4"),
    ("2: 1", 3, 2, "cyclic:2"),       # T(2,9) vs unknot
    ("2: 1 1", 3, 1, "cyclic:2"),     # T(2,6) vs Hopf
    ("2: 1 1", 3, 1, "quaternion:8"),
    ("3: 1 2", 2, 1, "cyclic:3"),     # trefoil vs unknot
    ("3: 1 2", 2, 1, "cyclic:7"),
    ("3: 1 2", 2, 1, F21),            # Z7 x| Z3, order 21
    ("3: 1 2", 2, 2, "cyclic:3"),     # T(3,4) vs unknot
]


def test_criterion_1_theorem_catalog():
    slow = []
    bad = []
    for braid, p, k, gspec in THEOREM_CATALOG:
        t0 = time.perf_counter()
        inst = congruence.check_preconditions(
            braids.parse_braid(braid), p, k, groups.from_group_spec(gspec)
        )
        rep = congruence.verify(inst)
        dt = time.perf_counter() - t0
        if not rep.ok:
            bad.append((braid, p, k, gspec, rep.violations))
        if dt >= 60:
            slow.append((braid, p, k, gspec, dt))
    report(
        "criterion 1 (theorem catalog, zero violations, <60s each)",
        not bad and not slow,
        f"{len(THEOREM_CATALOG)} instances",
    )


def test_criterion_2_precondition_rejections():
    ok = True
    try:
        congruence.check_preconditions(
            braids.parse_braid("2: 1"), 2, 1, groups.cyclic(3)
        )
        ok = False
    except ComponentMismatch:
        pass
    try:
        congruence.check_preconditions(
            braids.parse_braid("2: 1 1 1"), 3, 1, groups.symmetric(3)
        )
        ok = False
    except GroupOrderDivisible:
        pass
    cli_mismatch = main(
        ["verify", "--braid", "2: 1", "-p", "2", "-k", "1", "--group", "cyclic:3"]
    )
    cli_divisible = main(
        ["verify", "--braid", "2: 1", "-p", "3", "-k", "1", "--group", "symmetric:3"]
    )
    ok = ok and cli_mismatch == 2 and cli_divisible == 2
    report("criterion 2 (precondition rejections, exit code 2)", ok)


def test_criterion_3_wirtinger_oracle_equivalence():
    group_pool = [
        groups.cyclic(1),
        groups.cyclic(2),
        groups.cyclic(3),
        groups.cyclic(4),
        groups.cyclic(5),
        groups.cyclic(6),
        groups.dihedral(2),
        groups.dihedral(3),
        groups.symmetric(2),
        groups.symmetric(3),
    ]
    checked = 0
    mismatches = 0
    for m in (1, 2, 3):
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        for length in range(0, 5):
            for letters in itertools.product(alphabet, repeat=length):
                beta = braids.BraidWord(m, letters)
                for G in group_pool:
                    if holonomy.count_homs(beta, G) != wirtinger_count(beta, G):
                        mismatches += 1
                    checked += 1
    report(
        "criterion 3 (hom-count oracle equivalence, 100% agreement)",
        mismatches == 0,
        f"{checked} braid/group cases",
    )


def test_criterion_4_known_counts():
    S3 = groups.symmetric(3)
    hopf = braids.parse_braid("2: 1 1")
    trefoil = braids.parse_braid("2: 1 1 1")
    unknot = braids.parse_braid("2: 1")
    ok = holonomy.count_homs(hopf, S3) == 18
    ok = ok and holonomy.count_homs(trefoil, S3) == wirtinger_count(trefoil, S3) == 12
    for G in (groups.cyclic(5), groups.quaternion8(), S3):
        ok = ok and holonomy.count_homs(unknot, G) == G.order
    for m in (1, 2, 3):
        for G in (groups.cyclic(3), S3):
            ok = ok and holonomy.count_homs(braids.BraidWord(m, ()), G) == G.order**m
    report("criterion 4 (known hom counts)", ok)


def test_criterion_5_abelian_longitude_identity():
    rng = random.Random(2024)
    bad = 0
    tuples_checked = 0
    for _ in range(50):
        m = rng.randint(1, 4)
        length = rng.randint(0, 8) if m > 1 else 0
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        beta = braids.BraidWord(
            m, tuple(rng.choice(alphabet) for _ in range(length))
        )
        N = rng.choice([2, 3, 5])
        G = groups.cyclic(N)
        comp = braids.components(beta)
        for rec in holonomy.enumerate_homs(beta, G):
            tuples_checked += 1
            for t in range(comp.count):
                expect = (
                    sum(
                        comp.linking[t][s] * rec.meridian[s]
                        for s in range(comp.count)
                    )
                    % N
                )
                if rec.longitude[t] != expect:
                    bad += 1
    report(
        "criterion 5 (abelian longitude vs linking matrix, 100%)",
        bad == 0,
        f"{tuples_checked} fixed tuples",
    )


def test_criterion_6_markov_invariance():
    rng = random.Random(77)
    pool = [groups.cyclic(5), groups.symmetric(3), groups.dihedral(4)]
    bad = 0
    for _ in range(20):
        m = rng.randint(2, 4)
        alphabet = [s * i for i in range(1, m) for s in (1, -1)]
        beta = braids.BraidWord(
            m, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        )
        G = rng.choice(pool)
        base = holonomy.count_homs(beta, G)

        alpha = braids.BraidWord(
            m, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        )
        alpha_inv = braids.BraidWord(m, tuple(-l for l in reversed(alpha.letters)))
        conjugated = braids.compose(alpha, braids.compose(beta, alpha_inv))
        if holonomy.count_homs(conjugated, G) != base:
            bad += 1

        stabilized = braids.BraidWord(m + 1, beta.letters + (m,))
        if holonomy.count_homs(stabilized, G) != base:
            bad += 1
    report("criterion 6 (Markov invariance of hom counts)", bad == 0)


def test_criterion_7_frobenius_trace():
    bad = []
    for p, e, dim in itertools.product((2, 3, 5), (1, 2, 3), (2, 3, 4, 5)):
        field = gf.field_make(p, e)
        rep = gf.frobenius_trace_check(field, dim, 1000, seed=p * 100 + e * 10 + dim)
        if not rep["ok"]:
            bad.append((p, e, dim))
    report(
        "criterion 7 (trace-Frobenius identity incl. iterates, 1000 trials each)",
        not bad,
        "grid {2,3,5}x{1,2,3}x{2..5}",
    )


def test_criterion_8_thread_determinism(capsys):
    args = ["verify", "--braid", "2: 1", "-p", "3", "-k", "1", "--group", "cyclic:2"]
    code1 = main(args + ["--threads", "1"])
    out1 = capsys.readouterr().out
    code8 = main(args + ["--threads", "8"])
    out8 = capsys.readouterr().out
    ok = code1 == code8 == 0 and out1 == out8
    with capsys.disabled():
        report("criterion 8 (thread-count-invariant verify reports)", ok)
