"""The benchmark's fixed CLI workloads, their seeded inputs and golden outputs.

Each workload puts most of its work in one layer of dwlink and little in the
others, so a change to one layer should move one workload and leave the rest
unchanged.  The seed picks a cyclic rotation of the braid word (a conjugate
braid with the same closure, so every checked field stays the same) and sets
frobcheck's --seed.  Every CLI argv passes --threads 1 explicitly where the
command takes it: the CLI default is os.cpu_count(), which would make the
figures depend on the machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One concrete CLI call and the output it must reproduce."""

    command: tuple[str, ...]  # dwlink argv; "{braid}" stands for the braid word
    setup: str  # Python expression over `dwlink` that builds the group or field
    golden: dict  # "exit" plus the checked fields of the JSON output
    braid: str | None = None  # "<m>: l1 l2 ..." before rotation


@dataclass(frozen=True)
class Workload:
    name: str
    full: Instance
    quick: Instance
    # per-layer metrics whose sum should exceed half of the traced pass
    dominant: tuple[str, ...]
    # the traced run also times the command at --threads nproc
    threads_speedup: bool = False

    def instance(self, quick: bool) -> Instance:
        return self.quick if quick else self.full

    def argv(self, seed: int, quick: bool = False) -> list[str]:
        """The dwlink argv for this seed: the braid word rotated by
        seed mod its length, and frobcheck's --seed set to the seed."""
        inst = self.instance(quick)
        if inst.braid is None:
            return [*inst.command, "--seed", str(seed)]
        strands, _, word = inst.braid.partition(":")
        letters = word.split()
        r = seed % len(letters)
        braid = f"{strands}: " + " ".join(letters[r:] + letters[:r])
        return [braid if a == "{braid}" else a for a in inst.command]


def checked_fields(command: str, out: dict) -> dict:
    """The fields of a command's JSON output that the golden pins down.

    verify's `elapsed` is ignored, and so are the braid string and the
    violations' x / h lists, which follow the rotation of the word."""
    if command == "homs":
        return {"count": out["count"]}
    if command == "verify":
        return {
            "cases_checked": out["cases_checked"],
            "violations": len(out["violations"]),
            "ok": out["ok"],
        }
    if command == "frobcheck":
        return {"ok": out["ok"], "failures": len(out["failures"])}
    raise ValueError(f"no checked fields for command {command!r}")


def check(inst: Instance, exit_code: int, stdout: str) -> list[str]:
    """Differences between one run and the golden; empty when it matches."""
    problems = []
    if exit_code != inst.golden["exit"]:
        problems.append(f"exit code {exit_code} != golden {inst.golden['exit']}")
    try:
        got = checked_fields(inst.command[0], json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc}"]
    for key, value in got.items():
        if value != inst.golden[key]:
            problems.append(f"{key} = {value!r} != golden {inst.golden[key]!r}")
    return problems


HOMS_SCAN = Workload(
    name="homs-scan",
    full=Instance(
        ("homs", "--braid", "{braid}", "--group", "symmetric:5", "--count",
         "--threads", "1"),
        "dwlink.from_group_spec('symmetric:5')",
        {"exit": 0, "count": 600},
        braid="3: 1 -2 1 -2",
    ),
    quick=Instance(
        ("homs", "--braid", "{braid}", "--group", "symmetric:3", "--count",
         "--threads", "1"),
        "dwlink.from_group_spec('symmetric:3')",
        {"exit": 0, "count": 6},
        braid="3: 1 -2 1 -2",
    ),
    dominant=("holonomy.scan.self_s",),
    threads_speedup=True,
)

# On the seed, this instance exits 1 with 19 violations (lhs > 0, rhs = 0);
# see NOTES.md.  The golden keeps that output until a fix refreshes it.
VERIFY_CLASSES = Workload(
    name="verify-classes",
    full=Instance(
        ("verify", "--braid", "{braid}", "--group", "symmetric:6", "-p", "7",
         "-k", "1", "--threads", "1"),
        "dwlink.from_group_spec('symmetric:6')",
        {"exit": 1, "cases_checked": 8464, "violations": 19, "ok": False},
        braid="3: 1 1 -2",
    ),
    quick=Instance(
        ("verify", "--braid", "{braid}", "--group", "symmetric:5", "-p", "7",
         "-k", "1", "--threads", "1"),
        "dwlink.from_group_spec('symmetric:5')",
        {"exit": 1, "cases_checked": 1521, "violations": 4, "ok": False},
        braid="3: 1 1 -2",
    ),
    dominant=("dw.cen_class_rep.self_s", "groups.class_in_subgroup.self_s"),
)

VERIFY_PERIODIC = Workload(
    name="verify-periodic",
    full=Instance(
        ("verify", "--braid", "{braid}", "--group", "symmetric:5", "-p", "7",
         "-k", "4", "--threads", "1"),
        "dwlink.from_group_spec('symmetric:5')",
        {"exit": 0, "cases_checked": 39, "violations": 0, "ok": True},
        braid="3: 1 2",
    ),
    quick=Instance(
        ("verify", "--braid", "{braid}", "--group", "symmetric:3", "-p", "5",
         "-k", "2", "--threads", "1"),
        "dwlink.from_group_spec('symmetric:3')",
        {"exit": 0, "cases_checked": 8, "violations": 0, "ok": True},
        braid="3: 1 2",
    ),
    dominant=("holonomy.scan.self_s",),
)

FROBCHECK = Workload(
    name="frobcheck",
    full=Instance(
        ("frobcheck", "-p", "3", "-e", "5", "-n", "6", "--trials", "1500"),
        "dwlink.field_make(3, 5)",
        {"exit": 0, "ok": True, "failures": 0},
    ),
    quick=Instance(
        ("frobcheck", "-p", "3", "-e", "2", "-n", "3", "--trials", "20"),
        "dwlink.field_make(3, 2)",
        {"exit": 0, "ok": True, "failures": 0},
    ),
    dominant=("gf.field_build_s", "gf.mat_mul.self_s"),
)

WORKLOADS = {w.name: w for w in (HOMS_SCAN, VERIFY_CLASSES, VERIFY_PERIODIC, FROBCHECK)}
