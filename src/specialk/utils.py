"""Shared plumbing: reproducible PRNG and deterministic JSON emission."""

from __future__ import annotations

import math

__all__ = ["XorShift", "stable_json"]

_MASK = (1 << 64) - 1


class XorShift:
    """xorshift64* generator.

    Pure 64-bit integer arithmetic, so streams are identical on every
    platform; reports seeded with the same value are byte-reproducible.
    Step: x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output x * 2685821657736338717.
    """

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * 2685821657736338717) & _MASK

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (rejection-free modulo bias is fine
        for test-data purposes at these ranges)."""
        span = hi - lo + 1
        return lo + self.next_u64() % span


def _fmt(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # JSON has no NaN or infinity
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        out = ["\""]
        for ch in value:
            if ch == "\"":
                out.append("\\\"")
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append("\"")
        return "".join(out)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        body = ",".join(f"{_fmt(str(k))}:{_fmt(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    non-finite floats as null."""
    return _fmt(obj)
