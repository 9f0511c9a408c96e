"""Comparison of an operation's outputs with the outputs recorded for its replicate."""

from __future__ import annotations

import math


def mismatches(got, want, rtol: float, atol: float, path: str = "") -> list[str]:
    """Differences between an output and its reference.

    Floats may differ by ``atol + rtol * |want|``; strings, integers, lists
    and key sets must match exactly.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        out = []
        for k in want:
            out += mismatches(got[k], want[k], rtol, atol, f"{path}/{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, rtol, atol, f"{path}[{i}]")
        return out
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and math.isfinite(got) and (
            abs(got - want) <= atol + rtol * abs(want)
        )
        return [] if ok else [f"{path}: {got!r} != {want!r} (rtol {rtol}, atol {atol})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
