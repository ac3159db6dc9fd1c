"""Tests of the benchmark itself: golden checks, span arithmetic, tracing,
and a quick mode on tiny instances."""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

VERIFY_S6 = WORKLOADS["verify-classes"].full


def _verify_output(violations, elapsed=True):
    out = {
        "braid": "3: 1 1 -2", "cases_checked": 8464, "ok": not violations,
        "violations": [{"x": [], "h_class": [], "lhs_count": 1, "rhs_count": 0}]
        * violations,
    }
    if elapsed:
        out["elapsed"] = 3.2
    return json.dumps(out)


def test_checker_accepts_golden_with_or_without_elapsed():
    assert check(VERIFY_S6, 1, _verify_output(19)) == []
    assert check(VERIFY_S6, 1, _verify_output(19, elapsed=False)) == []


@pytest.mark.parametrize(
    "exit_code, stdout",
    [
        (0, _verify_output(19)),  # tampered exit code
        (1, _verify_output(18)),  # tampered violation count
        (1, _verify_output(19).replace("8464", "8463")),  # tampered case count
        (1, "not json"),
    ],
)
def test_checker_rejects_tampered_verify(exit_code, stdout):
    assert check(VERIFY_S6, exit_code, stdout)


def test_checker_rejects_tampered_count():
    homs = WORKLOADS["homs-scan"].full
    assert check(homs, 0, '{"count":600}') == []
    assert check(homs, 0, '{"count":601}')
    assert check(homs, 2, '{"count":600}')


def test_seed_rotates_the_braid_word():
    w = WORKLOADS["verify-classes"]
    braids = [w.argv(seed)[2] for seed in range(4)]
    assert braids == ["3: 1 1 -2", "3: 1 -2 1", "3: -2 1 1", "3: 1 1 -2"]
    assert "--threads" in w.argv(0) and w.argv(0)[-1] == "1"
    assert WORKLOADS["frobcheck"].argv(7)[-2:] == ["--seed", "7"]


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the root's children cover 1..6
        ["a.child", 2.0, 3.0, 1],
        ["leaf", 7.0, 7.5, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 3.0, 1.0, 0.5])


def test_tracer_wraps_every_binding_and_restores_them():
    import dwlink
    from dwlink import congruence, dw, holonomy

    original = holonomy.enumerate_homs
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (dwlink, congruence, dw, holonomy):
            assert module.enumerate_homs is not original
        G = dwlink.symmetric(3)
        assert dwlink.count_homs(dwlink.parse_braid("2: 1 1 1"), G) == 12
        G.class_in_subgroup(G.centralizer(1), 1)
    finally:
        tracer.uninstall()
    for module in (dwlink, congruence, dw, holonomy):
        assert module.enumerate_homs is original
    m = spans.layer_metrics(tracer)
    assert m["holonomy.enumerate.calls"] == 1
    assert m["holonomy.candidates"] == 36
    assert m["holonomy.letter_steps"] == 108
    assert m["holonomy.fixed_points"] == 12
    assert m["holonomy.longitude.calls"] == 12
    assert m["groups.class_in_subgroup.calls"] == 1
    assert m["gf.mat_mul.calls"] == 0


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "gf.mat_mul", ("dwlink.gf", "no_such_function"))
    tracer = spans.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gf.mat_mul"]
    assert any("no_such_function" in str(w.message) for w in caught)
    m = spans.layer_metrics(tracer)
    assert "gf.mat_mul.calls" not in m and "gf.ns_per_field_op" not in m
    assert m["gf.field_build_s"] == 0


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_quick_end_to_end(capsys):
    assert run.main(["--workload", "verify-classes", "--quick", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_traced(capsys, workload):
    assert run.main(["--workload", workload, "--quick", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["attempted"] >= 3
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homs-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
