"""Comparison of a pass's outputs with the reference outputs.

Tolerance is 1e-9 relative.  A scalar is compared relative to its
reference magnitude.  A list of numbers (channel gains as [re, im] pairs,
per-antenna powers and phases) is compared element by element relative to
the largest reference magnitude in the list, so a component near zero
inside a vector does not demand agreement beyond the vector's precision.
Integers, strings, booleans and non-finite values must match exactly.
Keys the reference lacks are ignored, so the program may add outputs.
"""

from __future__ import annotations

import copy
import math

REL_TOL = 1e-9


def _numeric(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flatten(values):
    for v in values:
        if isinstance(v, list):
            yield from _flatten(v)
        else:
            yield v


def _numeric_list(x) -> bool:
    return isinstance(x, list) and all(_numeric(v) for v in _flatten(x))


def _close(got: float, ref: float, scale: float) -> bool:
    if not (math.isfinite(ref) and math.isfinite(got)):
        return got == ref
    return abs(got - ref) <= REL_TOL * scale


def mismatches(ref, got, path: str = "") -> list:
    """Paths at which ``got`` differs from ``ref``; empty when they agree."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(mismatches(value, got[key], f"{path}/{key}"))
        return out
    if _numeric_list(ref) and ref:
        flat_ref = list(_flatten(ref))
        flat_got = list(_flatten(got)) if _numeric_list(got) else None
        if flat_got is None or len(flat_got) != len(flat_ref):
            return [f"{path}: expected {len(flat_ref)} numbers"]
        scale = max((abs(v) for v in flat_ref if math.isfinite(v)),
                    default=0.0)
        bad = [i for i, (g, r) in enumerate(zip(flat_got, flat_ref))
               if not _close(g, r, scale)]
        if not bad:
            return []
        i = bad[0]
        return [f"{path}[{i}]: {flat_got[i]!r} != {flat_ref[i]!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(mismatches(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, float) and _numeric(got):
        return [] if _close(float(got), ref, abs(ref)) \
            else [f"{path}: {got!r} != {ref!r}"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def perturbed(outputs, rel: float = 1e-8):
    """Copy of ``outputs`` with every float scaled by (1 + rel)."""
    def scale(x):
        if isinstance(x, dict):
            return {k: scale(v) for k, v in x.items()}
        if isinstance(x, list):
            return [scale(v) for v in x]
        if isinstance(x, float) and math.isfinite(x) and x != 0.0:
            return x * (1.0 + rel)
        return x
    return scale(copy.deepcopy(outputs))


def compared_groups(ref) -> int:
    """Number of float scalars and float vectors ``mismatches`` compares."""
    if isinstance(ref, dict):
        return sum(compared_groups(v) for v in ref.values())
    if _numeric_list(ref) and ref:
        return int(any(isinstance(v, float) and math.isfinite(v) and v != 0.0
                       for v in _flatten(ref)))
    if isinstance(ref, list):
        return sum(compared_groups(v) for v in ref)
    return int(isinstance(ref, float) and math.isfinite(ref) and ref != 0.0)


def self_check(ref) -> list:
    """Problems found when the comparator is run on known cases: the
    reference against itself must agree, and a copy with every float moved
    by 1e-8 relative (ten times the tolerance) must be flagged at every
    compared scalar and vector."""
    problems = []
    if mismatches(ref, ref):
        problems.append("reference does not match itself")
    expected = compared_groups(ref)
    found = len(mismatches(ref, perturbed(ref)))
    if expected == 0 or found != expected:
        problems.append(f"perturbed outputs flagged at {found} of "
                        f"{expected} compared values")
    return problems
