"""Spans around calls into dwlink's layers, recorded from outside the program.

A Tracer replaces public functions of dwlink with timing wrappers at every
module attribute their callers look them up by: a function imported by name
into another module is a separate binding there and is wrapped there too.
FiniteGroup.class_in_subgroup is looked up on the class, so it is wrapped on
the class.  Spans (name, start, end, parent) are kept in memory; a span's
self time is its duration minus what its child spans cover.  A target that
no longer exists is reported as absent, with a warning, and the metrics
derived from it are left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import defaultdict

# span name -> (module that defines the target, attribute path in it)
TARGETS = {
    "groups.build": ("dwlink.groups", "from_group_spec"),
    "groups.class_in_subgroup": ("dwlink.groups", "FiniteGroup.class_in_subgroup"),
    "dw.cen_class_rep": ("dwlink.dw", "cen_class_rep"),
    "congruence.verify": ("dwlink.congruence", "verify"),
    "braids.braid_power": ("dwlink.braids", "braid_power"),
    "braids.components": ("dwlink.braids", "components"),
    "holonomy.enumerate": ("dwlink.holonomy", "enumerate_homs"),
    "holonomy.longitude": ("dwlink.holonomy", "longitude_image"),
    "gf.field_make": ("dwlink.gf", "field_make"),
    "gf.mat_mul": ("dwlink.gf", "mat_mul"),
}


def _enumerate_counts(tracer, args, kwargs, result):
    """Search-space size after pruning, computed the way enumerate_homs
    prunes: with meridians prescribed, a component's basepoint is fixed and
    its other positions range over the conjugacy class of its meridian."""
    beta, G = args[0], args[1]
    counts = {"fixed_points": len(result)}
    x = kwargs.get("x_constraint", args[2] if len(args) > 2 else None)
    components = tracer.originals.get("braids.components")
    if x is None:
        candidates = G.order**beta.strands
    elif components is not None:
        candidates = 1
        for t, cyc in enumerate(components(beta).cycles):
            candidates *= len(G.classes[G.class_of[x[t]]].members) ** (len(cyc) - 1)
    else:
        return counts
    counts["candidates"] = candidates
    counts["letter_steps"] = candidates * len(beta.letters)
    return counts


# span name -> counts taken from a call's arguments and result
COUNTERS = {
    "holonomy.enumerate": _enumerate_counts,
    "congruence.verify": lambda tracer, args, kwargs, report: {
        "cases_checked": report.cases_checked,
        "violations": len(report.violations),
    },
    "braids.braid_power": lambda tracer, args, kwargs, word: {
        "power_letters": len(word.letters)
    },
    "gf.mat_mul": lambda tracer, args, kwargs, product: {
        "field_ops": 2 * product.dim**3
    },
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.originals = {}  # span name -> the unwrapped target
        self.absent = []  # span names whose target was not found
        self._stack = []
        self._undo = []

    def record(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[index][2] = time.perf_counter()
            stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(self, args, kwargs, result).items():
                self.counts[key] += value
        return result

    def install(self):
        """Wrap every target, at its bindings in every dwlink module loaded now."""
        for module, _ in TARGETS.values():
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # reported as absent below
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "dwlink" or n.startswith("dwlink."))
        ]
        for name, (module, path) in TARGETS.items():
            *owners, attr = path.split(".")
            owner = sys.modules.get(module)
            for part in owners:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None)
            if target is None:
                warnings.warn(f"trace target {module}.{path} not found; "
                              f"metrics of {name} are absent")
                self.absent.append(name)
                continue
            self.originals[name] = target
            wrapper = self._wrapper(name, target)
            if owners:  # a method, looked up on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def _wrapper(self, name, target):
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return self.record(name, target, *args, **kwargs)

        return wrapper

    def _patch(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children[index]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


# metric -> (aggregate, span name); the aggregate is calls, self_s or
# total_s of the span, or a count that the span's counter records
AGGREGATES = {
    "groups.build_s": ("total_s", "groups.build"),
    "groups.class_in_subgroup.calls": ("calls", "groups.class_in_subgroup"),
    "groups.class_in_subgroup.self_s": ("self_s", "groups.class_in_subgroup"),
    "dw.cen_class_rep.calls": ("calls", "dw.cen_class_rep"),
    "dw.cen_class_rep.self_s": ("self_s", "dw.cen_class_rep"),
    "congruence.verify.self_s": ("self_s", "congruence.verify"),
    "congruence.cases_checked": ("cases_checked", "congruence.verify"),
    "congruence.violations": ("violations", "congruence.verify"),
    "braids.power_letters": ("power_letters", "braids.braid_power"),
    "braids.components.calls": ("calls", "braids.components"),
    "braids.components.self_s": ("self_s", "braids.components"),
    "holonomy.enumerate.calls": ("calls", "holonomy.enumerate"),
    # enumerate_homs minus its components and longitude_image child spans
    "holonomy.scan.self_s": ("self_s", "holonomy.enumerate"),
    "holonomy.candidates": ("candidates", "holonomy.enumerate"),
    "holonomy.letter_steps": ("letter_steps", "holonomy.enumerate"),
    "holonomy.fixed_points": ("fixed_points", "holonomy.enumerate"),
    "holonomy.longitude.calls": ("calls", "holonomy.longitude"),
    "holonomy.longitude.self_s": ("self_s", "holonomy.longitude"),
    "gf.field_build_s": ("total_s", "gf.field_make"),
    "gf.mat_mul.calls": ("calls", "gf.mat_mul"),
    "gf.mat_mul.self_s": ("self_s", "gf.mat_mul"),
    "gf.mat_mul.field_ops": ("field_ops", "gf.mat_mul"),
}

# metric -> (numerator, denominator, scale); 0 when the denominator is 0
RATIOS = {
    "holonomy.scan.ns_per_letter_step": (
        "holonomy.scan.self_s", "holonomy.letter_steps", 1e9),
    "holonomy.hit_ratio": ("holonomy.fixed_points", "holonomy.candidates", 1),
    "gf.ns_per_field_op": ("gf.mat_mul.self_s", "gf.mat_mul.field_ops", 1e9),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything the tracer recorded.  A layer the pass
    never called reads 0; a metric whose target is absent, or whose count
    could not be taken, is left out."""
    stats = {"calls": defaultdict(int), "self_s": defaultdict(float),
             "total_s": defaultdict(float)}
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        stats["calls"][name] += 1
        stats["self_s"][name] += own
        stats["total_s"][name] += end - start
    out = {}
    for metric, (aggregate, span) in AGGREGATES.items():
        if span in tracer.absent:
            continue
        if aggregate in stats:
            out[metric] = stats[aggregate][span]
        elif aggregate in tracer.counts or not stats["calls"][span]:
            out[metric] = tracer.counts.get(aggregate, 0)
    for metric, (num, den, scale) in RATIOS.items():
        if num in out and den in out:
            out[metric] = scale * out[num] / out[den] if out[den] else 0.0
    return out
