"""The polynomial parser: caps on `^`, a token fuzz and the print/parse round trip."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from splitrad.cli import main
from splitrad.dynamics import ParseError, Poly, parse_poly, print_poly
from splitrad.exact import DomainError
from splitrad.places import FIELD_Q, FIELD_QT
from splitrad.qpoly import QPoly, RatFunc


@pytest.mark.parametrize("text, field, cap", [
    ("z^8000", FIELD_Q, "a power of degree 8000 in z has up to 8001 terms, above the cap of 257"),
    ("z^2 + 7^99999999", FIELD_Q, "exponent 99999999 exceeds the cap of 10000"),
    ("z^2 + 2^-100000", FIELD_Q, "exponent -100000 exceeds the cap of 10000"),
    ("z^2 + ((7^9999)^9999)^9999", FIELD_Q, "above the cap of 100000 bits"),
    ("(3^5000*z + 1)^40", FIELD_Q, "above the cap of 100000 bits"),
    ("z^2 + (t + 1)^300", FIELD_QT, "degree 0 in z and 300 in t has up to 301 terms"),
    ("(z + 1/t)^16", FIELD_QT, "degree 16 in z and 16 in t has up to 289 terms"),
])
def test_power_past_a_cap_is_a_parse_error(text, field, cap):
    start = time.monotonic()
    with pytest.raises(ParseError, match=cap):
        parse_poly(text, field)
    assert time.monotonic() - start < 1.0


def test_powers_at_the_caps_parse():
    assert parse_poly("z^256").degree == 256
    assert parse_poly("(z + 1)^256")[128] == math.comb(256, 128)
    assert parse_poly("(z + 1/t)^15", FIELD_QT).degree == 15
    assert parse_poly("z^2 + 2^-10000")[0] == F(1, 2 ** 10000)


def test_cli_exits_2_on_a_power_past_the_cap(capsys):
    assert main(["analyze", "--poly", "z^8000"]) == 2
    assert "cap of 257" in capsys.readouterr().err


def test_nesting_past_the_cap_is_a_parse_error(capsys):
    assert parse_poly("(" * 100 + "z^2" + ")" * 100) == Poly([0, 0, 1])
    for depth in (101, 200, 5000):
        with pytest.raises(ParseError, match="nest deeper than the cap of 100"):
            parse_poly("(" * depth + "z^2" + ")" * depth)
    assert main(["hcrit", "--poly", "(" * 200 + "z^2" + ")" * 200]) == 2
    assert "cap of 100" in capsys.readouterr().err


def test_constant_powers_equal_repeated_products():
    for base, field in (("(2/3)", FIELD_Q), ("(-5)", FIELD_Q), ("(t + 1/t)", FIELD_QT),
                        ("((t^2 - 3)/(2*t + 1))", FIELD_QT)):
        for e in range(-4, 6):
            if e < 0:
                product = "1/(" + "*".join([base] * -e) + ")"
            else:
                product = "*".join([base] * e) or "1"
            assert (parse_poly(f"z^2 + {base}^{e}", field)
                    == parse_poly(f"z^2 + {product}", field)), (base, e)


# random token strings: every one must end, in a Poly or a ParseError/DomainError
_tokens = st.one_of(st.sampled_from(list("zt+-*/^() ")),
                    st.integers(0, 12).map(str),
                    st.integers(0, 10 ** 30).map(str))


@settings(max_examples=400, deadline=None)
@given(st.lists(_tokens, max_size=14).map("".join), st.sampled_from([FIELD_Q, FIELD_QT]))
def test_random_token_strings_end_in_a_poly_or_a_domain_error(text, field):
    try:
        f = parse_poly(text, field)
    except DomainError:
        return
    assert isinstance(f, Poly) and f.degree >= 2


_q = st.fractions(min_value=-50, max_value=50, max_denominator=30)
_q_coeffs = st.lists(_q, min_size=3, max_size=7).filter(lambda cs: cs[-1] != 0)


def _qpoly(coeffs):
    return QPoly([F(c) for c in coeffs])


_tpoly = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(_qpoly)
_ratfunc = st.builds(RatFunc, _tpoly, _tpoly.filter(lambda p: not p.is_zero()))
_qt_coeffs = st.lists(_ratfunc, min_size=3, max_size=5).filter(lambda cs: not cs[-1].is_zero())


@settings(max_examples=200, deadline=None)
@given(_q_coeffs)
def test_print_parse_roundtrip_over_q(coeffs):
    f = Poly(coeffs)
    assert parse_poly(print_poly(f)) == f


@settings(max_examples=100, deadline=None)
@given(_qt_coeffs)
def test_print_parse_roundtrip_over_qt(coeffs):
    f = Poly(coeffs, FIELD_QT)
    assert parse_poly(print_poly(f), FIELD_QT) == f

