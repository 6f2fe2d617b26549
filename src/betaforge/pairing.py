"""Self-delimiting pairing codec: a bitstring x is written 1^|x| 0 x (Li and
Vitanyi, *An Introduction to Kolmogorov Complexity*), and a list of bitstrings
folds left into one prefix-free code.
"""

from __future__ import annotations

from typing import Optional

from .numerics import BetaForgeError, DomainError, SizeGuardError

__all__ = ["PAIRING_CAP", "MalformedEncodingError", "encode_pairing", "decode_pairing"]

PAIRING_CAP = 1 << 24  # longest pairing code, in characters, that encode_pairing builds


class MalformedEncodingError(BetaForgeError):
    """A pairing-encoded string failed to decode."""


def _bar(x: str) -> str:
    return "1" * len(x) + "0" + x


def encode_pairing(items: list[str]) -> str:
    """Left-nested self-delimiting encoding of a nonempty list of bitstrings.

    A single item is emitted in its prefix-free form 1^|x| 0 x; longer lists
    fold left, each level prefixing the previous encoding.  The two-item code
    has length 2|x| + |y| + 1.
    """
    if not items:
        raise DomainError("cannot encode an empty list")
    for it in items:
        if it.strip("01"):
            raise DomainError(f"items must be bitstrings, got {it!r}")
    # the code's length, folded like the code itself and saturated past the cap
    length = 2 * len(items[0]) + 1 + sum(len(it) for it in items[1:2])
    for it in items[2:]:
        length = min(2 * length + 1 + len(it), PAIRING_CAP + 1)
    if length > PAIRING_CAP:
        raise SizeGuardError(f"pairing code of {len(items)} items exceeds the {PAIRING_CAP}-character cap")
    if len(items) == 1:
        return _bar(items[0])
    enc = _bar(items[0]) + items[1]
    for it in items[2:]:
        enc = _bar(enc) + it
    return enc


def _split_bar(raw: str):
    m = 0
    while m < len(raw) and raw[m] == "1":
        m += 1
    if m >= len(raw) or raw[m] != "0":
        return None
    body = raw[m + 1 : m + 1 + m]
    if len(body) != m:
        return None
    return body, raw[2 * m + 1 :]


def _try_decode(raw: str, arity: int, item_length: Optional[int]):
    if arity == 1:
        parts = _split_bar(raw)
        if parts is None or parts[1]:
            return None
        if item_length is not None and len(parts[0]) != item_length:
            return None
        return [parts[0]]
    parts = _split_bar(raw)
    if parts is None:
        return None
    inner, last = parts
    if item_length is not None and len(last) != item_length:
        return None
    if arity == 2:
        if item_length is not None and len(inner) != item_length:
            return None
        return [inner, last]
    head = _try_decode(inner, arity - 1, item_length)
    return None if head is None else head + [last]


def decode_pairing(raw: str, arity: Optional[int] = None, item_length: Optional[int] = None) -> list[str]:
    """Inverse of encode_pairing.

    With `arity` given, the left-nested structure is unfolded exactly that
    many times.  Without it, the arity is inferred by requiring all items to
    share one length (the canonical use for encoded prefix sets); for
    nonempty items this parse is unique, and the degenerate collisions caused
    by empty items resolve to the fewest items.
    """
    if raw.strip("01"):
        raise MalformedEncodingError("encoding must be a bitstring")
    if arity is not None:
        got = _try_decode(raw, arity, item_length)
        if got is None:
            raise MalformedEncodingError(f"{raw!r} is not a valid {arity}-item encoding")
        return got
    if item_length is not None and item_length < 0:
        raise MalformedEncodingError(f"item length must be nonnegative, got {item_length}")
    total = len(raw)
    parses = []
    lengths = [item_length] if item_length is not None else range(total + 1)
    for ln in lengths:
        # total lengths: 2L+1 for one item, (2^k - 1)L + 2^(k-1) - 1 for k >= 2
        if total == 2 * ln + 1:
            got = _try_decode(raw, 1, ln)
            if got is not None:
                parses.append(got)
        k = 2
        while ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 <= total:
            if ((1 << k) - 1) * ln + (1 << (k - 1)) - 1 == total:
                got = _try_decode(raw, k, ln)
                if got is not None:
                    parses.append(got)
            k += 1
            if ln == 0 and k > total + 2:
                break
    unique = {tuple(p) for p in parses}
    if not unique:
        raise MalformedEncodingError(f"{raw!r} does not decode as an equal-length pairing")
    if len(unique) > 1:
        nonempty = {p for p in unique if all(p)}
        if len(nonempty) == 1:
            return list(nonempty.pop())
        min_arity = min(len(p) for p in unique)
        shortest = {p for p in unique if len(p) == min_arity}
        if len(shortest) == 1:
            return list(shortest.pop())
        raise MalformedEncodingError(f"{raw!r} is ambiguous; pass an explicit arity")
    return list(unique.pop())
