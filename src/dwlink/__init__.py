"""Exact counting invariants of braid closures over finite groups, with a
machine check of the mod-p congruence relating a periodic link to its
quotient, and finite-field trace/Frobenius checks.

The public names load their home module on first use (PEP 562), so that
`import dwlink` and each CLI command import only the modules they run.
Each name is looked up in its module at every access, never copied here,
so a wrapper set on the module is what `dwlink.<name>` returns."""

import importlib

# public name -> the submodule that defines it
_HOMES = {
    "BraidWord": "braids",
    "braid_power": "braids",
    "components": "braids",
    "compose": "braids",
    "parse_braid": "braids",
    "permutation": "braids",
    "check_preconditions": "congruence",
    "sweep": "congruence",
    "verify": "congruence",
    "dw_class": "dw",
    "dw_exact": "dw",
    "dw_table": "dw",
    "field_make": "gf",
    "frobenius_trace_check": "gf",
    "mat_mul": "gf",
    "mat_pow": "gf",
    "trace": "gf",
    "FiniteGroup": "groups",
    "cyclic": "groups",
    "dihedral": "groups",
    "from_cayley_table": "groups",
    "from_group_spec": "groups",
    "from_permutation_generators": "groups",
    "quaternion8": "groups",
    "symmetric": "groups",
    "artin_action": "holonomy",
    "count_homs": "holonomy",
    "enumerate_homs": "holonomy",
    "longitude_image": "holonomy",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
