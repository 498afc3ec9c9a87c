import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import (
    Graph,
    GraphEnergyError,
    Graph6ParseError,
    ScaleError,
    graph6_decode,
    graph6_encode,
    make_complete,
    make_cycle,
    make_star,
)
from graphenergy.census import enumerate_connected
from graphenergy.graph6 import encode_rows
from graphenergy.spectral import _graph6_stack

from test_graphs import graph_strategy


def test_k4_hand_encoding():
    # n=4 -> chr(63+4)='C'; upper triangle column-major is six 1-bits,
    # one 6-bit group 0b111111 = 63 -> chr(63+63) = '~'
    assert graph6_encode(make_complete(4)) == "C~"


def test_k1():
    g = Graph(1, (0,))
    assert graph6_encode(g) == "@"
    assert graph6_decode("@").adj == (0,)


@given(graph_strategy(min_n=1, max_n=12))
@settings(max_examples=150, deadline=None)
def test_roundtrip_identity(g):
    assert graph6_decode(graph6_encode(g)).adj == g.adj


def reference_encode(n, rows):
    """graph6 the plain way: one list of bits, cut into 6-bit groups."""
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [bits[k : k + 6] for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(
        chr(63 + int("".join(map(str, g)), 2)) for g in groups
    )


@given(graph_strategy(min_n=1, max_n=62))
@settings(max_examples=150, deadline=None)
def test_shift_packing_matches_the_bit_list_reference(g):
    s = reference_encode(g.n, g.adj)
    assert encode_rows(g.n, g.adj) == s
    assert graph6_decode(s).adj == g.adj


def test_roundtrip_on_census():
    for s in enumerate_connected(7, 10).graphs:
        assert graph6_encode(graph6_decode(s)) == s


def test_header_stripping():
    s = ">>graph6<<" + graph6_encode(make_cycle(5))
    assert graph6_decode(s).adj == make_cycle(5).adj


@pytest.mark.parametrize(
    "bad",
    ["", "C", "C~~", "C\x1f", "?A"],
)
def test_malformed_inputs(bad):
    with pytest.raises(Graph6ParseError):
        graph6_decode(bad)


def test_parse_error_carries_offset():
    with pytest.raises(Graph6ParseError) as err:
        graph6_decode("")
    assert err.value.offset == 0


def test_nonzero_padding_rejected():
    # C5 uses 10 of 12 bits; flip the final padding bit of the last data byte
    good = graph6_encode(make_cycle(5))
    bad = good[:-1] + chr(ord(good[-1]) ^ 1)
    with pytest.raises(Graph6ParseError):
        graph6_decode(bad)


PARSE_ERRORS = [
    ("", 0, "empty"),
    ("C", 1, "expected 1 data characters"),
    ("C~~", 2, "expected 1 data characters"),
    ("D~>", 2, "invalid data character"),
    ("?A", 0, "order 0"),
    ("\x7fA", 0, "invalid size character"),
    ("Dq" + chr(63 + 0b000001), 2, "padding"),
    ("J" + "?" * 9 + chr(63 + 0b000100), 10, "padding"),
]


@pytest.mark.parametrize("bad,offset,message", PARSE_ERRORS)
def test_parse_errors_keep_message_and_offset(bad, offset, message):
    with pytest.raises(Graph6ParseError, match=message) as err:
        graph6_decode(bad)
    assert err.value.offset == offset


def decoded_matrix(s):
    g = graph6_decode(s)
    return [[row >> c & 1 for c in range(g.n)] for row in g.adj]


@given(st.integers(1, 62).flatmap(
    lambda n: st.lists(graph_strategy(min_n=n, max_n=n), min_size=2, max_size=5)
))
@example([Graph(1, (0,))] * 3)  # n = 1 has no data bytes
@example([Graph(2, (0, 0)), Graph(2, (2, 1))])
@settings(max_examples=150, deadline=None)
def test_census_stack_equals_graph6_decode(graphs):
    strings = [graph6_encode(g) for g in graphs]
    stack = _graph6_stack(graphs[0].n, strings)
    assert stack.dtype == np.float64
    assert stack.tolist() == [decoded_matrix(s) for s in strings]


# strings of an order-7 string's width, 1 + 4 data bytes, that fail only the
# size byte, a data byte below 63 or above 126, and the padding
SAME_WIDTH_ERRORS = ["E????", "F??>?", "F???\x7f", "F???@"]


@pytest.mark.parametrize(
    "bad", [bad for bad, _, _ in PARSE_ERRORS] + SAME_WIDTH_ERRORS + ["F\u00e9???"]
)
def test_census_stack_raises_what_graph6_decode_raises(bad):
    # the bad string sits in the middle of a chunk of valid (7,10) strings
    good = list(enumerate_connected(7, 10).graphs[:10])
    with pytest.raises(GraphEnergyError) as want:
        graph6_decode(bad)
    with pytest.raises(GraphEnergyError) as got:
        _graph6_stack(7, good[:5] + [bad] + good[5:])
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "offset", None) == getattr(want.value, "offset", None)


@pytest.mark.parametrize("n,s", [(0, "?"), (63, "~" + "?" * 326)], ids=["order-0", "order-63"])
def test_census_stack_keeps_the_order_range(n, s):
    # order 0 and a size byte of 126 are well-formed bytes that graph6_decode rejects
    with pytest.raises(GraphEnergyError) as want:
        graph6_decode(s)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _graph6_stack(n, [s])


@pytest.mark.parametrize(
    "n,strings",
    [
        (5, ["Dhc", ">>graph6<<Dhc"]),
        (5, ["Dhc", " Dhc "]),
        (4, ["C~", "Bw"]),  # K3 has K4's width
    ],
)
def test_census_stack_rejects_what_graph6_decode_accepts(n, strings):
    for s in strings:
        graph6_decode(s)
    with pytest.raises(GraphEnergyError) as err:
        _graph6_stack(n, strings)
    assert type(err.value) is GraphEnergyError


def test_order_beyond_limit():
    with pytest.raises(ScaleError):
        graph6_decode(chr(63 + 63))  # long-form marker
    with pytest.raises(Graph6ParseError):
        graph6_decode(chr(62))  # below the size range


def test_star_roundtrip_large():
    g = make_star(40)
    assert graph6_decode(graph6_encode(g)).adj == g.adj
