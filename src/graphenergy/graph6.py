"""Encoder/decoder for the standard graph6 text format (single-byte sizes).

The layout is the usual one: a size byte (n + 63), then the upper triangle
of the adjacency matrix read column by column, packed into 6-bit groups,
each group offset by 63. Decoding is strict: bad characters and non-zero
padding bits raise with the byte offset.
"""

from __future__ import annotations

from .errors import Graph6ParseError, ScaleError
from .graphs import MAX_VERTICES, Graph, bit_indices

_HEADER = ">>graph6<<"


# graph6 puts the first bit of each 6-bit group in its most significant place;
# the integers below keep it in the least, so groups go through this table
_REVERSED6 = [int(f"{v:06b}"[::-1], 2) for v in range(64)]
_GROUP_CHARS = [chr(63 + r) for r in _REVERSED6]


def encode_rows(n: int, rows) -> str:
    """graph6 encoding straight from adjacency bitmask rows."""
    # bit k of ``stream`` is bit k of the column-major upper triangle
    stream = 0
    nbits = 0
    for j in range(1, n):
        stream |= (rows[j] & ((1 << j) - 1)) << nbits
        nbits += j
    return chr(63 + n) + "".join(
        _GROUP_CHARS[stream >> k & 63] for k in range(0, nbits, 6)
    )


def graph6_encode(g: Graph) -> str:
    return encode_rows(g.n, g.adj)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :].strip()
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    head = ord(s[0])
    if head == 126:
        raise ScaleError(
            f"multi-byte graph6 sizes exceed the {MAX_VERTICES}-vertex limit"
        )
    if not 63 <= head <= 125:
        raise Graph6ParseError(f"invalid size character {s[0]!r}", 0)
    n = head - 63  # head <= 125, so n <= 62 = MAX_VERTICES
    if n == 0:
        raise Graph6ParseError("graph6 order 0 not representable", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data characters for n={n}, got {len(s) - 1}",
            min(len(s), 1 + nbytes),
        )
    stream = 0
    for k, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid data character {ch!r}", k)
        stream |= _REVERSED6[val] << 6 * (k - 1)
    padding = stream >> nbits
    if padding:
        first = nbits + (padding & -padding).bit_length() - 1
        raise Graph6ParseError("non-zero padding bits", 1 + first // 6)
    rows = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)
        stream >>= j
        rows[j] = col
        for i in bit_indices(col):
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))
