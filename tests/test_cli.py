import json

import pytest

from dwlink import arith, braids, gf, groups
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

    def test_duplicate_names_exit2(self, capsys, tmp_path):
        spec = _file_group(tmp_path, {"mul": [[0, 1], [1, 0]], "names": ["a", "a"]})
        assert main(["homs", "--braid", "2: 1", "--group", spec, "--x", "a"]) == 2


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

    def test_dimension_over_work_cap_exit3(self, capsys, monkeypatch):
        # 10^15 entry products per trial: refused before any matrix is drawn
        def no_draw(field, dim, rng):
            raise AssertionError("matrix drawn past the work cap")

        monkeypatch.setattr(gf, "random_matrix", no_draw)
        assert main(["frobcheck", "-p", "3", "-e", "5", "-n", "100000"]) == 3
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
