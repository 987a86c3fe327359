import itertools

import pytest
from hypothesis import given, settings, strategies as st

from modbench.algebras import (AlgebraError, AlgebraFormatError,
                               FiniteAlgebra, Signature, parse_algebra,
                               serialize_algebra)

LATTICE2 = """\
algebra lattice2
size 2
op meet 2
0 0
0 1
op join 2
0 1
1 1
"""

Z2 = """\
algebra z2
size 2
op plus 2
0 1
1 0
"""


def test_parse_lattice2():
    a = parse_algebra(LATTICE2)
    assert a.name == "lattice2"
    assert a.size == 2
    assert a.signature.ops == (("meet", 2), ("join", 2))


def test_parse_z2():
    a = parse_algebra(Z2)
    assert a.size == 2
    assert a.apply("plus", (1, 1)) == 0


def test_apply_op_examples():
    lat = parse_algebra(LATTICE2)
    assert lat.apply("meet", (0, 1)) == 0
    assert lat.apply("join", (0, 1)) == 1


def test_apply_op_errors():
    lat = parse_algebra(LATTICE2)
    with pytest.raises(AlgebraError):
        lat.apply("nope", (0, 1))
    with pytest.raises(AlgebraError):
        lat.apply("meet", (0,))
    with pytest.raises(AlgebraError):
        lat.apply("meet", (0, 5))


def test_entry_out_of_range_reports_line():
    bad = "algebra x\nsize 2\nop meet 2\n0 0\n0 2\n"
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra(bad)
    assert "out of range" in str(err.value)
    assert err.value.line == 5


def test_short_table():
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra("algebra x\nsize 2\nop meet 2\n0 0 0\nop join 2\n"
                      "0 1 1 1\n")
    assert "too short" in str(err.value)


def test_malformed_header():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("algbra x\nsize 2\n")
    with pytest.raises(AlgebraFormatError):
        parse_algebra("algebra x\nsize nope\n")


def test_comments_ignored():
    a = parse_algebra("# a comment\nalgebra c\nsize 1\n# another\nop e 0\n0\n")
    assert a.apply("e", ()) == 0


def test_duplicate_op_rejected():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("algebra x\nsize 2\nop f 1\n0 0\nop f 1\n0 0\n")


def test_serialize_round_trip_byte_identical(corpus):
    for a in corpus.values():
        once = serialize_algebra(a)
        again = serialize_algebra(parse_algebra(once))
        assert once == again


def test_apply_agrees_with_raw_table(corpus):
    for a in corpus.values():
        for opname, arity in a.signature.ops:
            flat = a.tables[opname]
            for i, args in enumerate(itertools.product(range(a.size),
                                                       repeat=arity)):
                assert a.apply(opname, args) == int(flat[i])


def test_signature_validation():
    with pytest.raises(AlgebraError):
        Signature((("f", 1), ("f", 2)))
    with pytest.raises(AlgebraError):
        Signature((("f", -1),))
    with pytest.raises(AlgebraError):
        FiniteAlgebra("x", 2, Signature((("f", 1),)), {"f": [0, 2]})


def test_size_beyond_16_bit_tables_rejected():
    # entries are stored as uint16; a larger universe would be truncated
    # or overflow the int64 conversion
    for size, entry in ((70_000, 69_999), (10 ** 30, 10 ** 25)):
        with pytest.raises(AlgebraError, match="exceeds 65536"):
            parse_algebra(f"algebra x\nsize {size}\nop c 0\n{entry}\n")
    assert parse_algebra("algebra x\nsize 65536\nop c 0\n65535\n"
                         ).apply("c", ()) == 65535


_ALG_TOKENS = st.one_of(
    st.sampled_from(["algebra", "size", "op", "x", "f", "#", "\n", "-1"]),
    st.integers(0, 4).map(str), st.integers(0, 10 ** 30).map(str))
_ALG_TEXTS = st.one_of(
    st.text(max_size=60),
    st.builds(lambda size, rest: f"algebra x\nsize {size}\n" + " ".join(rest),
              st.integers(-1, 10 ** 30), st.lists(_ALG_TOKENS, max_size=30)))


@settings(max_examples=300, deadline=None)
@given(text=_ALG_TEXTS)
def test_parse_algebra_raises_only_algebra_errors(text):
    try:
        parse_algebra(text)
    except AlgebraError:
        pass
