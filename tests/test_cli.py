import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dwlink import arith, braids, gf, groups, holonomy
from dwlink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGroupInfo:
    def test_s3(self, capsys):
        code, out = run(capsys, "group-info", "--group", "symmetric:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 6
        assert sorted(c["size"] for c in doc["classes"]) == [1, 2, 3]

    @pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:5", "quaternion:8"])
    def test_centralizer_orders_without_centralizers(self, capsys, monkeypatch, spec):
        G = groups.from_group_spec(spec)
        expect = {G.names[x]: len(G.centralizer(x)) for x in G.elements()}

        def no_scan(self, x):
            raise AssertionError("group-info scanned a centralizer")

        monkeypatch.setattr(groups.FiniteGroup, "centralizer", no_scan)
        code, out = run(capsys, "group-info", "--group", spec)
        assert code == 0 and json.loads(out)["centralizer_orders"] == expect

    def test_bad_spec(self, capsys):
        assert main(["group-info", "--group", "nope:3"]) == 2

    @pytest.mark.parametrize("spec", ["cyclic:7", "dihedral:4"])
    def test_order_cap_exit3(self, capsys, monkeypatch, spec):
        monkeypatch.setattr(groups, "ORDER_CAP", 6)
        assert main(["group-info", "--group", spec]) == 3

    def test_symmetric_over_cap_exit3(self, capsys, monkeypatch):
        # refused from n! alone, before any permutation of degree n is built
        def no_build(*args, **kwargs):
            raise AssertionError("permutations built past the order cap")

        monkeypatch.setattr(groups, "from_permutation_generators", no_build)
        assert main(["group-info", "--group", "symmetric:100000"]) == 3

    @pytest.mark.parametrize("spec", ["perm:3:(1 2)junk", "perm:3:(1 2)(3"])
    def test_perm_leftover_text_exit2(self, capsys, spec):
        assert main(["group-info", "--group", spec]) == 2


def _file_group(tmp_path, doc):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    return f"file:{path}"


class TestFileGroup:
    def test_z2(self, capsys, tmp_path):
        spec = _file_group(tmp_path, {"mul": [[0, 1], [1, 0]], "names": ["e", "a"]})
        code, out = run(capsys, "group-info", "--group", spec)
        assert code == 0 and json.loads(out)["order"] == 2

    @pytest.mark.parametrize(
        "mul", [[[0.0, 1], [1, 0]], [[False, True], [True, False]], [1, 0]]
    )
    def test_malformed_table_exit2(self, capsys, tmp_path, mul):
        spec = _file_group(tmp_path, {"mul": mul})
        assert main(["group-info", "--group", spec]) == 2

    def test_nonassociative_latin_square_exit2(self, capsys, tmp_path):
        # Z_400 with the 2x2 subsquare at rows 3, 203 and columns 5, 205
        # swapped: still a Latin square, not associative
        n = 400
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        mul[3][5], mul[3][205] = mul[3][205], mul[3][5]
        mul[203][5], mul[203][205] = mul[203][205], mul[203][5]
        spec = _file_group(tmp_path, {"mul": mul})
        assert main(["group-info", "--group", spec]) == 2
        assert "witness" in capsys.readouterr().err

    def test_nested_beyond_recursion_limit_exit2(self, capsys, tmp_path):
        # json.load raises RecursionError on this; as a sweep entry's group
        # it is an "error" entry, so both exit 2
        path = tmp_path / "group.json"
        path.write_text('{"mul": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["group-info", "--group", f"file:{path}"]) == 2
        assert "recursion" in capsys.readouterr().err
        catalog = tmp_path / "catalog.json"
        entry = {"braid": "2: 1", "p": 3, "k": 1, "group": f"file:{path}"}
        catalog.write_text(json.dumps([entry]))
        code, out = run(capsys, "sweep", "--catalog", str(catalog))
        assert (code, json.loads(out)["entries"][0]["status"]) == (2, "error")

    def test_duplicate_names_exit2(self, capsys, tmp_path):
        spec = _file_group(tmp_path, {"mul": [[0, 1], [1, 0]], "names": ["a", "a"]})
        assert main(["homs", "--braid", "2: 1", "--group", spec, "--x", "a"]) == 2

    @pytest.mark.parametrize("names", [5, "e", {"e": 0}, [True], [None], [["e"]]])
    def test_names_not_strings_or_numbers_exit2(self, capsys, tmp_path, names):
        spec = _file_group(tmp_path, {"mul": [[0]], "names": names})
        assert main(["group-info", "--group", spec]) == 2
        assert "names" in capsys.readouterr().err


class TestBraidInfo:
    def test_trefoil(self, capsys):
        code, out = run(capsys, "braid-info", "--braid", "2: 1 1 1")
        assert code == 0
        doc = json.loads(out)
        assert doc["components"] == 1
        assert doc["self_writhe"] == [3]

    def test_hopf(self, capsys):
        code, out = run(capsys, "braid-info", "--braid", "2: 1 1")
        doc = json.loads(out)
        assert doc["linking"] == [[0, 1], [1, 0]]

    def test_bad_braid(self, capsys):
        assert main(["braid-info", "--braid", "2: 9"]) == 2


class TestHoms:
    def test_unlink_count(self, capsys):
        code, out = run(
            capsys, "homs", "--braid", "2:", "--group", "cyclic:3", "--count"
        )
        assert code == 0
        assert json.loads(out)["count"] == 9

    def test_records(self, capsys):
        code, out = run(capsys, "homs", "--braid", "2: 1", "--group", "cyclic:2")
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["homs"][0]["longitude"] == ["0"]

    def test_constrained(self, capsys):
        code, out = run(
            capsys,
            "homs",
            "--braid",
            "2: 1 1 1",
            "--group",
            "symmetric:3",
            "--x",
            "(1 2)",
            "--count",
        )
        assert code == 0
        assert json.loads(out)["count"] > 0

    def test_search_cap_exit(self, capsys):
        assert main(["homs", "--braid", "12:", "--group", "quaternion:8"]) == 3

    @pytest.mark.parametrize("names", [("-i", "-j"), ("-i", "-i")])
    def test_dash_led_x_on_a_link(self, capsys, names):
        # each --x=NAME adds a name, so Q8's -i and -j reach both components
        b, G = braids.parse_braid("2: 1 1"), groups.quaternion8()
        argv = ["homs", "--braid", str(b), "--group", "quaternion:8", "--count"]
        code, out = run(capsys, *argv, *(f"--x={name}" for name in names))
        x = tuple(G.element_index(name) for name in names)
        assert code == 0
        assert json.loads(out) == {"count": holonomy.count_fixed_tuples(b, G, x)}

    def test_repeated_x_on_a_knot_exit2(self, capsys):
        argv = ["homs", "--braid", "2: 1 1 1", "--group", "symmetric:3", "--count"]
        assert main(argv + ["--x", "(1 2)"]) == 0
        assert main(argv + ["--x", "(1 2)", "--x", "(1 2)"]) == 2
        assert "--x needs 1 element names" in capsys.readouterr().err

    def test_count_at_scale(self, capsys):
        # 120^3 fixed tuples, counted from 14,721 scanned representatives
        start = time.perf_counter()
        code, out = run(
            capsys, "homs", "--braid", "3:", "--group", "symmetric:5", "--count"
        )
        assert (code, out) == (0, '{"count":1728000}\n')
        assert time.perf_counter() - start < 2


class TestComponentsBuiltOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            # 64 meridian tuples, each scanned
            ["verify", "--braid", "6:", "--group", "cyclic:2", "-p", "3", "-k", "1"],
            ["dw", "--braid", "3: 1 1 -2", "--group", "symmetric:3", "--exact"],
            ["homs", "--braid", "3: 1 1 -2", "--group", "symmetric:3"],
            ["homs", "--braid", "3: 1 1 -2", "--group", "symmetric:3", "--count"],
        ],
    )
    def test_one_build_per_command(self, capsys, monkeypatch, argv):
        built = []
        real = braids.BraidWord.components.func

        def components(beta):
            built.append(beta)
            return real(beta)

        prop = functools.cached_property(components)
        prop.__set_name__(braids.BraidWord, "components")
        monkeypatch.setattr(braids.BraidWord, "components", prop)
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)
        assert built == [braids.parse_braid(argv[2])]


class TestDw:
    def test_hopf_z2(self, capsys):
        code, out = run(
            capsys, "dw", "--braid", "2: 1 1", "--group", "cyclic:2", "--all-x", "--exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["exact_entries"]) == 4
        assert all(e["count"] == 1 for e in doc["exact_entries"])

    def test_threads_is_a_usage_error(self, capsys):
        args = ["dw", "--braid", "2: 1 1", "--group", "cyclic:2"]
        assert main(args) == 0
        assert main(args + ["--threads", "1"]) == 2


class TestVerify:
    def test_trefoil_unknot(self, capsys):
        code, out = run(
            capsys,
            "verify", "--braid", "2: 1", "-p", "3", "-k", "1", "--group", "cyclic:2",
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_component_mismatch_exit2(self, capsys):
        code = main(
            ["verify", "--braid", "2: 1", "-p", "2", "-k", "1", "--group", "cyclic:3"]
        )
        assert code == 2

    def test_group_order_divisible_exit2(self, capsys):
        code = main(
            [
                "verify", "--braid", "2: 1 1 1",
                "-p", "3", "-k", "1", "--group", "symmetric:3",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("k", ["40", "20"])
    def test_huge_power_exit0(self, capsys, monkeypatch, k):
        # 3^k copies of the word are never built or walked: the result is
        # that of k = 1
        def no_power(beta, n):
            raise AssertionError("braid power built")

        monkeypatch.setattr(braids, "braid_power", no_power)
        args = ["verify", "--braid", "2: 1", "-p", "3", "--group", "cyclic:2"]
        code, out = run(capsys, *args, "-k", k)
        _, out1 = run(capsys, *args, "-k", "1")
        assert code == 0
        assert json.loads(out)["cases_checked"] == json.loads(out1)["cases_checked"]

    def test_empty_word_huge_k_exit0(self, capsys, monkeypatch):
        # the unknot against itself: no braid power is built, and p^k is
        # never formed
        def no_power(beta, n):
            raise AssertionError("braid power built for an empty word")

        monkeypatch.setattr(braids, "braid_power", no_power)
        code, out = run(
            capsys, "verify", "--braid", "1:", "-p", "3", "-k", "3000000",
            "--group", "cyclic:2",
        )
        assert code == 0 and json.loads(out)["ok"]

    def test_thread_count_invariance(self, capsys):
        args = ["verify", "--braid", "2: 1", "-p", "3", "-k", "1",
                "--group", "quaternion:8"]
        _, out1 = run(capsys, *args, "--threads", "1")
        _, out8 = run(capsys, *args, "--threads", "8")
        assert out1 == out8


class TestSweep:
    def test_catalog(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {"braid": "2: 1", "p": 3, "k": 1, "group": "cyclic:2"},
                    {"braid": "3: 1 2", "p": 2, "k": 1, "group": "cyclic:3"},
                ]
            )
        )
        code, out = run(capsys, "sweep", "--catalog", str(path))
        assert code == 0
        doc = json.loads(out)
        assert [e["status"] for e in doc["entries"]] == ["ok", "ok"]

    def test_precondition_entry_exit2(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([{"braid": "2: 1", "p": 2, "k": 1, "group": "cyclic:3"}])
        )
        assert main(["sweep", "--catalog", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["sweep", "--catalog", "/nonexistent.json"]) == 2

    def test_nested_beyond_recursion_limit_exit2(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["sweep", "--catalog", str(path)]) == 2

    # p and k must be JSON integers, as the entries of a file: table must
    @pytest.mark.parametrize(
        "p, k",
        [(3.7, 1.9), ("3", 1), (3, True), (3.0, 1)],
        ids=["floats", "string-p", "bool-k", "float-p"],
    )
    def test_p_k_not_integers_exit2(self, capsys, tmp_path, p, k):
        path = tmp_path / "catalog.json"
        entry = {"braid": "2: 1", "p": p, "k": k, "group": "cyclic:2"}
        path.write_text(json.dumps([entry]))
        code, out = run(capsys, "sweep", "--catalog", str(path))
        assert code == 2
        assert [e["status"] for e in json.loads(out)["entries"]] == ["error"]

    # stdout echoes the entries and must stay JSON, which has no NaN or
    # Infinity
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_exit2(self, capsys, tmp_path, number):
        path = tmp_path / "catalog.json"
        path.write_text(
            '[{"braid": "2: 1", "p": %s, "k": 1, "group": "cyclic:2"}]' % number
        )
        assert run(capsys, "sweep", "--catalog", str(path)) == (2, "")

    def test_resource_limit_exit3(self, capsys, tmp_path):
        # symmetric:9 is over the group order cap; verify exits 3 on it
        over_cap = {"braid": "2: 1", "p": 3, "k": 1, "group": "symmetric:9"}
        ok = {"braid": "2: 1", "p": 3, "k": 1, "group": "cyclic:2"}
        bad = {"braid": "2: 1", "p": 2, "k": 1, "group": "cyclic:3"}
        violation = {"braid": "3: 1 1 -2", "p": 3, "k": 1, "group": "dihedral:5"}
        path = tmp_path / "catalog.json"

        def sweep(*entries):
            path.write_text(json.dumps(list(entries)))
            code, out = run(capsys, "sweep", "--catalog", str(path))
            return code, [e["status"] for e in json.loads(out)["entries"]]

        assert sweep(ok, over_cap) == (3, ["ok", "resource-limit"])
        assert sweep(over_cap, bad)[0] == 2
        assert sweep(over_cap, violation) == (1, ["resource-limit", "violations"])
        code = main(["verify", "--braid", "2: 1", "-p", "3", "-k", "1",
                     "--group", "symmetric:9"])
        assert code == 3


# runs dwlink.cli.main on its argv, then prints its own peak RSS in KiB
# (Linux) as the last line of stderr: VmHWM, which starts afresh at exec.
# ru_maxrss would also carry the RSS of the process it was forked from.
RSS_CHILD = """\
import sys
from dwlink.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
print(hwm.split()[1], file=sys.stderr)
sys.exit(code)
"""


class TestRefusedBeforeWork:
    """Inputs whose work is refused up front exit 3 in a fresh process
    without a long run or a large allocation first."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 200000 components: no n x n table of crossings
            (["homs", "--braid", "200000:", "--group", "cyclic:2", "--count"],
             "search space of at least 2^200000 candidates exceeds cap 1000000000"),
            (["dw", "--braid", "200000:", "--group", "cyclic:2"],
             "sweep of at least 2^200000 meridian tuples exceeds cap 1000000000"),
            # 2^30 meridian tuples, each with a search space of 1
            (["verify", "--braid", "30:", "--group", "cyclic:2", "-p", "3", "-k", "1"],
             "sweep of 1073741824 meridian tuples exceeds cap 1000000000"),
            # 120^2100 has more decimal digits than Python prints
            (["homs", "--braid", "2100:", "--group", "symmetric:5", "--count"],
             "search space of at least 2^14504 candidates exceeds cap 1000000000"),
            # the trivial group of degree 10^7, refused before its identity
            # permutation is built
            (["group-info", "--group", "perm:10000000:"],
             "permutation degree 10000000 exceeds cap of 10000"),
        ],
    )
    def test_exit3(self, argv, message):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        *err, rss_kib = proc.stderr.splitlines()
        assert (proc.returncode, proc.stdout, err) == (3, "", [f"error: {message}"])
        assert int(rss_kib) < 200 * 1024


class TestFrobcheck:
    def test_basic(self, capsys):
        code, out = run(
            capsys, "frobcheck", "-p", "3", "-e", "2", "-n", "3", "--trials", "25"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_not_prime(self, capsys):
        assert main(["frobcheck", "-p", "4", "-n", "2"]) == 2

    def test_largest_table_field(self, capsys):
        code, out = run(
            capsys, "frobcheck", "-p", "2", "-e", "12", "-n", "6", "--trials", "10"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_large_prime_cubic_field(self):
        # no x^3 + c is irreducible for p = 2 mod 3, and the modulus search
        # skips those p candidates
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dwlink", "frobcheck",
             "-p", "1000000007", "-e", "3", "-n", "3", "--trials", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_split_run_prints_the_one_process_report(self, monkeypatch):
        # split across the usable CPUs where there are two or more; -W error
        # turns Python 3.12+'s warning on a fork among threads into a failure
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dwlink", "frobcheck",
             "-p", "3", "-e", "5", "-n", "6", "--trials", "1500"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        report = gf.frobenius_trace_check(gf.field_make(3, 5), 6, 1500)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [json.dumps(report, separators=(",", ":"))]

    def test_dimension_over_work_cap_exit3(self, capsys, monkeypatch):
        # 10^15 entry products per trial: refused before any matrix is drawn
        def no_draw(field, dim, rng):
            raise AssertionError("matrix drawn past the work cap")

        monkeypatch.setattr(gf, "random_matrix", no_draw)
        assert main(["frobcheck", "-p", "3", "-e", "5", "-n", "100000"]) == 3
        assert "entry products" in capsys.readouterr().err
        # 46000 trials * ((3 powers * 2 products per cube - 1) * 6^3 + 6^2)
        # = 5.13e7
        assert main(["frobcheck", "-p", "3", "-e", "5", "-n", "6", "--trials", "46000"]) == 3
        assert "entry products" in capsys.readouterr().err

    def test_prime_above_miller_rabin_bound_exit3(self, capsys):
        p = str(arith._MR_BOUND)  # a strong pseudoprime to all 13 bases
        assert main(["frobcheck", "-p", p, "-n", "2", "--trials", "1"]) == 3
        args = ["verify", "--braid", "2: 1", "-k", "1", "--group", "cyclic:2"]
        assert main(args + ["-p", p]) == 3
        # a witness proves a larger n composite: exit 2, as below the bound
        assert main(args + ["-p", str(10**30 + 1)]) == 2

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_dimension_below_one_exit2(self, capsys, n):
        assert main(["frobcheck", "-p", "2", "-n", n, "--trials", "3"]) == 2


class TestDeterminism:
    def test_byte_stable_output(self, capsys):
        args = ["dw", "--braid", "2: 1 1", "--group", "symmetric:3"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_sweep_byte_stable_without_timings(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps([{"braid": "2: 1", "p": 3, "k": 1, "group": "quaternion:8"}])
        )
        _, out1 = run(capsys, "sweep", "--catalog", str(path))
        _, out2 = run(capsys, "sweep", "--catalog", str(path))
        assert out1 == out2 and "elapsed" not in out1


# -- exit 1 means a violation, whatever the input ---------------------------

# valid groups small enough that every command below runs in milliseconds
SMALL_GROUPS = ["cyclic:3", "symmetric:3", "quaternion:8", "dihedral:2", "dihedral:5"]
MALFORMED_GROUPS = st.one_of(
    st.sampled_from([
        "", "nope:3", "cyclic:", "cyclic:0", "cyclic:-4", "cyclic:x", "cyclic:3.5",
        "cyclic:20000", "dihedral:0", "symmetric:0", "symmetric:100000",
        "quaternion:7", "perm:0:", "perm:3:(1 4)", "perm:3:(1 2)junk",
        "perm:3:(1 2)(3", "perm:2:(1 1)", "file:", "file:no-such-group.json",
    ]),
    # no digits in the free text, so no spec asks for a large group
    st.builds(
        "{}:{}".format,
        st.sampled_from(["cyclic", "dihedral", "symmetric", "quaternion", "perm", "x"]),
        st.text(alphabet="abx():;,- e", max_size=8),
    ),
)


@st.composite
def small_braids(draw):
    m = draw(st.integers(1, 3))
    alphabet = [s * i for i in range(1, m) for s in (1, -1)] or [1]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=5)) if m > 1 else []
    return f"{m}: " + " ".join(map(str, letters))


# at most 3 strands, or 30, whose sweeps and searches are refused up front
MALFORMED_BRAIDS = st.one_of(
    st.sampled_from(["", ":", "2", "2 1", "30:", "0:", "-1: 1", "2: 0", "2: 2"]),
    st.builds(
        "{}: {}".format,
        st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["", "x", "2.0"])),
        st.lists(
            st.one_of(st.integers(-4, 4).map(str), st.sampled_from(["x", "1.5", "--1"])),
            max_size=5,
        ).map(" ".join),
    ),
)
NOT_NUMBERS = st.sampled_from(["x", "", "1e3", "3.0", "-"])


def numbers(lo, hi):
    return st.integers(lo, hi).map(str)


SMALL_PRIMES = st.sampled_from(["2", "3", "5", "7", "11", "13"])
PRIMES = st.one_of(SMALL_PRIMES, st.just("1000000007"))
ELEMENT_NAMES = st.lists(
    st.sampled_from(["e", "(1 2)", "(1 2 3)", "i", "-1", "r1", "s", "0", "1", "zz"]),
    min_size=1, max_size=3,
)
# per command: option -> (well-formed values, malformed values)
OPTIONS = {
    "group-info": {"--group": (st.sampled_from(SMALL_GROUPS), MALFORMED_GROUPS)},
    "braid-info": {"--braid": (small_braids(), MALFORMED_BRAIDS)},
    "homs": {
        "--braid": (small_braids(), MALFORMED_BRAIDS),
        "--group": (st.sampled_from(SMALL_GROUPS), MALFORMED_GROUPS),
    },
    "dw": {
        "--braid": (small_braids(), MALFORMED_BRAIDS),
        "--group": (st.sampled_from(SMALL_GROUPS), MALFORMED_GROUPS),
    },
    "verify": {
        "--braid": (small_braids(), MALFORMED_BRAIDS),
        "--group": (st.sampled_from(SMALL_GROUPS), MALFORMED_GROUPS),
        "-p": (PRIMES, st.one_of(numbers(-3, 12), NOT_NUMBERS)),
        "-k": (numbers(1, 4), st.one_of(numbers(-2, 0), NOT_NUMBERS)),
    },
    "sweep": {},
    "frobcheck": {
        # a large p with e > 1 computes with polynomials, for seconds
        "-p": (SMALL_PRIMES, st.one_of(numbers(-3, 12), NOT_NUMBERS)),
        "-e": (numbers(1, 3), st.one_of(numbers(-2, 0), st.just("13"), NOT_NUMBERS)),
        "-n": (numbers(1, 3), st.one_of(numbers(-2, 0), NOT_NUMBERS)),
        "--trials": (numbers(1, 3), st.one_of(numbers(-2, 0), NOT_NUMBERS)),
        "--seed": (numbers(-2, 2), NOT_NUMBERS),
    },
    "nope": {},
}
FLAGS = {
    "homs": ["--count", "--x"],
    "dw": ["--all-x", "--exact"],
    "verify": ["--all-x", "--threads"],
    "sweep": ["--threads"],
}
CATALOG_ENTRY = st.dictionaries(
    st.sampled_from(["braid", "group", "p", "k"]),
    st.one_of(
        small_braids(), MALFORMED_BRAIDS, st.sampled_from(SMALL_GROUPS),
        MALFORMED_GROUPS, st.integers(-3, 13), st.none(),
        st.sampled_from([3.7, True, "3"]),
    ),
)
# catalog -> the exit code of sweep on it
FIXED_CATALOGS = {
    "": 2,
    "{}": 2,
    "[1]": 2,
    "[": 2,
    '{"braid": "2: 1"}': 2,
    "[" * 100000: 2,
    '[{"braid": "2: 1", "p": 3.7, "k": 1.9, "group": "cyclic:2"}]': 2,
    '[{"braid": "2: 1", "p": "3", "k": 1, "group": "cyclic:2"}]': 2,
    '[{"braid": "2: 1", "p": 3, "k": true, "group": "cyclic:2"}]': 2,
    '[{"braid": "2: 1", "p": 1e999, "k": 1, "group": "cyclic:2"}]': 2,
    # malformed entries, refused before any braid or group is built
    '["2: 1"]': 2,
    '[{"braid": "2: 1", "p": 3, "k": 1}]': 2,
    '[{"braid": 21, "p": 3, "k": 1, "group": "cyclic:2"}]': 2,
    '[{"braid": "2: 1", "p": "3", "k": 1, "group": "symmetric:7"}]': 2,
}
CATALOGS = st.one_of(
    st.lists(CATALOG_ENTRY, max_size=3).map(json.dumps),
    st.sampled_from(list(FIXED_CATALOGS)),
)


@st.composite
def argvs(draw, catalog_path):
    """A command with each of its options missing one time in ten and
    malformed one time in ten, some of its flags, and now and then a flag
    it does not take."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for opt, (good, bad) in OPTIONS[command].items():
        kind = draw(st.sampled_from(["good"] * 8 + ["bad", "missing"]))
        if kind != "missing":
            argv += [opt, draw(good if kind == "good" else bad)]
    if command == "sweep":
        argv += ["--catalog", catalog_path]
    for flag in draw(st.lists(st.sampled_from(FLAGS.get(command, ["--pretty"])), max_size=2)):
        if flag == "--x":
            argv += [flag, *draw(ELEMENT_NAMES)]
        elif flag == "--threads":
            argv += [flag, draw(st.one_of(numbers(-1, 2), NOT_NUMBERS))]
        else:
            argv.append(flag)
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append(draw(st.sampled_from(["--pretty", "--count", "--exact", "--bogus"])))
    return argv


def violation_reported(command, out):
    """Whether out, the stdout of command, reports a failed identity."""
    if command == "verify":
        return json.loads(out)["violations"] != []
    if command == "sweep":
        return any(e["status"] == "violations" for e in json.loads(out)["entries"])
    if command == "frobcheck":
        return json.loads(out)["failures"] != []
    return False


class TestExitCodes:
    def test_exit1_only_for_a_violation(self, tmp_path):
        catalog = tmp_path / "catalog.json"

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def exit_codes(data):
            catalog.write_text(data.draw(CATALOGS))
            argv = data.draw(argvs(str(catalog)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            if code == 1:
                assert violation_reported(argv[0], out.getvalue()), argv

        exit_codes()

    # the property meets these only when hypothesis happens to draw them
    @pytest.mark.parametrize(
        "text, expected", FIXED_CATALOGS.items(), ids=range(len(FIXED_CATALOGS))
    )
    def test_fixed_catalogs(self, tmp_path, text, expected):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["sweep", "--catalog", str(catalog)]) == expected


class TestHomsCount:
    """homs --count sums the scan's weights and builds no record; it must
    print the count of the full listing."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_count_is_the_listing_count(self, data):
        braid = data.draw(small_braids())
        spec = data.draw(st.sampled_from(SMALL_GROUPS))
        argv = ["homs", "--braid", braid, "--group", spec]
        if data.draw(st.booleans()):
            # argparse reads a name such as "-i" as an option
            names = [g for g in groups.from_group_spec(spec).names if g[0] != "-"]
            n = braids.components(braids.parse_braid(braid)).count
            argv += ["--x", *(data.draw(st.sampled_from(names)) for _ in range(n))]
        outs = []
        for extra in ([], ["--count"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + extra) == 0
            outs.append(json.loads(out.getvalue()))
        listing, count = outs
        assert count == {"count": listing["count"]} == {"count": len(listing["homs"])}
