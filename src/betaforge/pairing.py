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

    A single item is emitted in its prefix-free form 1^|x| 0 x, the fold of
    [x, ""]; longer lists fold left, each level prefixing the previous
    encoding.  The two-item code has length 2|x| + |y| + 1.  Each fold step
    checks its length against PAIRING_CAP before it builds the string.
    """
    if not items:
        raise DomainError("cannot encode an empty list")
    for it in items:
        if it.strip("01"):
            raise DomainError(f"items must be bitstrings, got {it!r}")
    enc = items[0]
    for it in items[1:] or [""]:
        if 2 * len(enc) + 1 + len(it) > PAIRING_CAP:
            raise SizeGuardError(f"pairing code of {len(items)} items exceeds the {PAIRING_CAP}-character cap")
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


def decode_pairing(raw: str, arity: Optional[int] = None, item_length: Optional[int] = None) -> list[str]:
    """Inverse of encode_pairing.

    Every left-nested parse lies on the one chain of peels of the code:
    after j peels it is [inner] plus the j peeled items, and a first peel
    that leaves nothing also gives the single item [inner].  With `arity`
    given, the parse of exactly that many items is returned.  Without it,
    the arity is inferred by requiring all items to share one length (the
    canonical use for encoded prefix sets); for nonempty items this parse is
    unique, and the degenerate collisions caused by empty items resolve to
    the fewest items.
    """
    if raw.strip("01"):
        raise MalformedEncodingError("encoding must be a bitstring")
    if arity is None and item_length is not None and item_length < 0:
        raise MalformedEncodingError(f"item length must be nonnegative, got {item_length}")
    parses = []  # in increasing arity, one parse per arity
    peeled = []
    parts = _split_bar(raw)
    if parts is not None and not parts[1]:
        parses.append([parts[0]])
    while parts is not None:
        inner, last = parts
        peeled.insert(0, last)
        parses.append([inner] + peeled)
        parts = _split_bar(inner)
    if item_length is not None:
        parses = [p for p in parses if all(len(x) == item_length for x in p)]
    if arity is not None:
        got = [p for p in parses if len(p) == arity]
        if not got:
            raise MalformedEncodingError(f"{raw!r} is not a valid {arity}-item encoding")
        return got[0]
    parses = [p for p in parses if len(set(map(len, p))) == 1]
    if not parses:
        raise MalformedEncodingError(f"{raw!r} does not decode as an equal-length pairing")
    # at most two parses remain: the single item [inner] and one of two or
    # more items (two of those share their last item's length L, and the
    # shorter one's first item is 3L + 1 or more characters long).  Where
    # [inner] is [""], raw is "0" and the other is ["", ""], so the fewest
    # items is also the one all-nonempty parse wherever there is one
    return parses[0]
