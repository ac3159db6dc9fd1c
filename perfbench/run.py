"""Benchmark of dwlink's CLI on four fixed workloads, end to end and per layer.

    python3 perfbench/run.py --workload homs-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, both modes

--trace 0 runs the workload's dwlink command in fresh processes until
--seconds have passed.  Before each command it starts a fresh set-up process
that imports dwlink.cli and builds the workload's group or field, so both are
sampled under the same machine load.  It reports the medians of wall_s and
setup_s, scaled to a reference machine speed (see calibrate()), and of
peak_rss_mb.

--trace 1 runs the same command inside this process instead.  It alternates
untraced and traced passes until --seconds have passed, and reports per-layer
self times and work counts (see spans.py), plus cli.import_s,
trace.overhead and, on homs-scan, holonomy.threads_speedup.

Every run's exit code and checked output are compared with the workload's
golden.  --quick swaps in tiny instances of the same commands.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Raw samples, the environment and (traced) the spans of the last
pass are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans  # noqa: E402
from workloads import WORKLOADS, Workload, check  # noqa: E402

MIN_SAMPLES = 3  # command runs per measurement, however long they take
IMPORT_SAMPLES = 5  # fresh processes timing `import dwlink.cli` in a traced run

# A fresh process that imports the CLI and builds the workload's group or
# field; prints its own import time.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import dwlink.cli
print(time.perf_counter() - t0)
{setup}
"""


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    out: str
    err: str


def run_child(args: list[str]) -> Child:
    """Run `python args...` from the checkout with dwlink from src; wall time
    and peak RSS are those of this child alone (wait4)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with proc.stdout, proc.stderr:
        out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode, out, err)


def setup_child(setup: str) -> Child:
    return run_child(["-c", SETUP_CHILD.format(setup=setup)])


def exit_problems(child: Child) -> list[str]:
    return [] if child.code == 0 else [f"exit {child.code}: {child.err[-500:]}"]


def run_in_process(main, argv: list[str]):
    """dwlink.cli.main(argv) with its output captured; (exit code, stdout, wall)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


class Attempts:
    """Runs attempted and the ones that differed from the golden."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append({"run": what, "problems": problems})
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def keep_going(start: float, done: int, seconds: float) -> bool:
    """Another iteration fits: it is expected to end within --seconds, or
    fewer than MIN_SAMPLES have been taken."""
    elapsed = time.perf_counter() - start
    return done < MIN_SAMPLES or elapsed + elapsed / done <= seconds


# On a shared host the CPU's speed drifts by up to 2x within seconds, and
# unscaled run medians of the same command spread by 0.12 to 0.36
# (IQR/median over 5 to 10 seeds on a 2-vCPU sandbox).  So every timed child
# is bracketed by a fixed pure-Python loop over a table of lists, the kind of
# work dwlink's hot loops do, and its time is reported at reference speed:
#     time * CALIBRATION_REFERENCE_S / mean(loop time before, loop time after)
# The loop does not depend on dwlink, so a change to dwlink moves the scaled
# time as it moves the raw one.
_TABLE = [[(i * j + 7) % 120 for j in range(120)] for i in range(120)]
_INVERSE = [(120 - i) % 120 for i in range(120)]
CALIBRATION_STEPS = 2_500_000
CALIBRATION_REFERENCE_S = 0.15  # the loop's median time on a 2-vCPU sandbox


def calibrate() -> float:
    mul, inv = _TABLE, _INVERSE
    x, y = 1, 2
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x, y = mul[mul[x][y]][inv[x]], x
    return time.perf_counter() - start


def measure_end_to_end(w: Workload, seed: int, seconds: float, quick: bool):
    inst = w.instance(quick)
    cli = ["-m", "dwlink", *w.argv(seed, quick)]
    attempts = Attempts()
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    raw = {"wall_s": [], "setup_s": [], "calibration_s": [calibrate()]}

    def timed(metric, child):
        before, after = raw["calibration_s"][-1], calibrate()
        raw["calibration_s"].append(after)
        raw[metric].append(child.wall)
        samples[metric].append(child.wall * 2 * CALIBRATION_REFERENCE_S / (before + after))

    start = time.perf_counter()
    while not samples["wall_s"] or keep_going(start, len(samples["wall_s"]), seconds):
        s = setup_child(inst.setup)
        timed("setup_s", s)
        attempts.add("setup", exit_problems(s))
        c = run_child(cli)
        timed("wall_s", c)
        samples["peak_rss_mb"].append(c.rss_mb)
        attempts.add("command", check(inst, c.code, c.out))
    return samples, attempts, {"raw": raw}


def measure_layers(w: Workload, seed: int, seconds: float, quick: bool):
    sys.path.insert(0, str(SRC))
    import dwlink.cli

    inst = w.instance(quick)
    argv = w.argv(seed, quick)
    threaded = list(argv)
    if w.threads_speedup:
        threaded[threaded.index("--threads") + 1] = str(os.cpu_count() or 1)
    attempts = Attempts()
    passes, shares, untraced, traced, threads = [], [], [], [], []
    start = time.perf_counter()
    while not passes or keep_going(start, len(passes), seconds):
        code, out, wall = run_in_process(dwlink.cli.main, argv)
        attempts.add("untraced pass", check(inst, code, out))
        untraced.append(wall)

        tracer = spans.Tracer()
        tracer.install()
        try:
            code, out, wall = tracer.record(
                "cli.main", run_in_process, dwlink.cli.main, argv
            )
        finally:
            tracer.uninstall()
        attempts.add("traced pass", check(inst, code, out))
        traced.append(wall)
        passes.append(spans.layer_metrics(tracer))
        share = sum(passes[-1].get(m, 0) for m in w.dominant)
        shares.append(share / (tracer.spans[0][2] - tracer.spans[0][1]))

        if w.threads_speedup:
            code, out, wall = run_in_process(dwlink.cli.main, threaded)
            attempts.add("threaded pass", check(inst, code, out))
            threads.append(wall)

    imports = []
    for _ in range(IMPORT_SAMPLES):
        s = setup_child("")
        attempts.add("import", exit_problems(s))
        if s.code == 0:
            imports.append(float(s.out))

    samples = {name: [p[name] for p in passes] for name in passes[0]}
    samples["cli.import_s"] = imports
    samples["trace.overhead"] = [t / u for t, u in zip(traced, untraced)]
    samples["holonomy.threads_speedup"] = (
        [u / t for u, t in zip(untraced, threads)] if threads else [0.0]
    )
    share = statistics.median(shares)
    prediction = {
        "layers": list(w.dominant),
        "share_of_traced_pass": share,
        "holds": share > 0.5,
    }
    print(f"prediction for {w.name}: {' + '.join(w.dominant)} = {share:.3f} of "
          f"the traced pass; {'holds' if share > 0.5 else 'FAILS'}")
    spans_out = {"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}
    return samples, attempts, {"prediction": prediction, "spans": spans_out}


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 units: dict) -> dict:
    w = WORKLOADS[name]
    load_before = os.getloadavg()
    measure = measure_layers if trace else measure_end_to_end
    samples, attempts, extra = measure(w, seed, seconds, quick)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "argv": w.argv(seed, quick),
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": os.getloadavg()},
        "samples": samples, "failures": attempts.failures,
        **{k: v for k, v in extra.items() if k != "spans"},
    }
    print("environment: " + json.dumps(record["environment"]))
    metrics = {}
    for metric, unit in units.items():
        values = samples.get(metric)
        if not values:
            print(f"warning: {metric} is absent", file=sys.stderr)
            continue
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
        q1, _, q3 = quartiles(values)
        print(f"{name} {metric} {metrics[metric]['value']:.6g} {unit} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    for metric, values in extra.get("raw", {}).items():
        print(f"{name} unscaled {metric} {statistics.median(values):.6g} "
              f"(median of {len(values)})")
    failed = len(attempts.failures)
    print(f"{name} error_rate {failed / attempts.attempted:.6g} "
          f"({failed} of {attempts.attempted} runs differ from the golden)")
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if "spans" in extra:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(extra["spans"]))
    return {
        "correct": failed == 0,
        "attempted": attempts.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny instances")
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "dwlink" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from a dwlink checkout; {SRC / 'dwlink'} or "
              f"{spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    units = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (False, True)
    }

    if args.workload != "all":
        trace = bool(args.trace)
        result = run_workload(args.workload, args.seed, args.seconds, trace,
                              args.quick, units[trace])
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace, args.quick,
                                  units[trace])
            results[f"{name} trace{int(trace)}"] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k} {m}": v for k, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
