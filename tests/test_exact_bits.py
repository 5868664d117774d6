"""The exact layer bit for bit: SHA-256 digests of every (exponent key, coefficient
bits) pair, in storage order, of the catalog's U and a, of moutard_exact's W, a and
K, and of the halved V, recorded before the kernel lost its interpreter overhead
(BiPoly.const without per-key validation, one items() of the second factor per
product, RationalFn.__add__ comparing denominators by their coefficients, a
product by the constant 1 that copies the other factor) and
ExactSolution its expanded V.  The kernel's earlier operations stay here as
oracles: the current ones must give the same keys, in the same order, with the
same bits."""
import hashlib
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import (BiPoly, RationalFn, catalog, dsii_residual_exact, moutard_exact,
                      to_halved_v_form)
from spinsurf.exactpoly import _ZERO_KEY


def _digest(*polys) -> str:
    h = hashlib.sha256()
    for p in polys:
        h.update(struct.pack("<q", len(p.coef)))
        for k, v in p.coef.items():
            h.update(struct.pack("<5q2d", *k, v.real, v.imag))
    return h.hexdigest()


_CATALOG_SHA256 = {
    ("s1", 1): "db1f5ad3e4875425477ffa3586e0ba5f96fb5ef1bcde266b04718ba03e598cb6",
    ("s1", 12): "1a937fe896299321550a0447384781608639ff36d762b81acc1fa1489e74c6ab",
    ("s1", 1.1 + 0.3j): "0848b823765c81d381cab3739dd4b2e3b3601fa5f12d80e6f8b5c535e3875226",
    ("s1", 1j): "c08b931c76e82526d3895cdc08f3d01b04bfc5b33623ae2ce4531bde57450440",
    ("s1", "symbolic"): "596f6ae1baf8a521c9e492f151e50959b128b9b67049c6ed74e5f648ab6fef57",
    ("s2", 1): "4042c23e86d9ae9eedfa348e8f4e27cee72b3a891b3f80bde9f8db79a5223abb",
    ("s2", 12): "a9a14b29ce07769d8e0e7143bd965811c14a6db82e561368a876dd5a00d5f132",
    ("s2", 1.1 + 0.3j): "df61e2dc6724809461ca29361700f02a893149d37a6fdfe30c093d6d085c6708",
    ("s2", 1j): "0f027b94a32f06f438c1f94ca856f42486ff28ba53cd7a78e181f37b3582093f",
    ("s2", "symbolic"): "d38835bb2df6d0b3f194a7114c20a7cecbf6cefd2dec5c87a4c5d2b91f912913",
}

_MOUTARD_SHA256 = {
    ("s1", 1.1 + 0.3j): "5a0004180a0149f46bf10fc30b7fb43924b5cb3489ea90c6c8d7570616f4fbed",
    ("s1", "symbolic"): "358c0ca991c646ccad7be3bea54a868e041e6d1fcbc4ce8fce2342fd0d906969",
    ("s2", 1.1 + 0.3j): "46c1d192bd39bdfbc3bdb286af0d6b528fe1fbd8db4268bf4a075193c8fc7536",
    ("s2", "symbolic"): "126157f7cb8ca25413e240b9ab9ae0924506e007c5c6cc031363fd07dbbc9f55",
}

# sol.V * 0.5, with V = 2i a_z as ExactSolution once stored it
_HALVED_V_SHA256 = {
    ("s1", "symbolic"): "087e1ae5c03b163b7f5a7a517b2d98eec1a159379e16971addf4e4cc37867ed8",
    ("s2", 12): "4142028877d0351f3c733555ea01eaee98f4f0a8cedd0d044caeec392aa17862",
    ("s2", 1.1 + 0.3j): "8a648eb3f1fd82ed8eb662d4971e2fa86c32368c755846b9195caf0a862396ae",
}


@pytest.mark.parametrize("name, c", list(_CATALOG_SHA256))
def test_catalog_u_and_a_are_bitwise_pinned(name, c):
    sol = catalog(name, c)
    got = _digest(sol.U.num, sol.U.den, sol.a.num, sol.a.den)
    assert got == _CATALOG_SHA256[name, c]


@pytest.mark.parametrize("name, c", list(_MOUTARD_SHA256))
def test_moutard_exact_chain_is_bitwise_pinned(name, c):
    m = moutard_exact(catalog(name, c).f)
    got = _digest(m.W.num, m.W.den, m.a.num, m.a.den,
                  m.K.a.num, m.K.a.den, m.K.b.num, m.K.b.den)
    assert got == _MOUTARD_SHA256[name, c]


@pytest.mark.parametrize("name, c", [("s1", 1.1 + 0.3j), ("s1", "symbolic"),
                                     ("s2", 12), ("s2", "symbolic")])
def test_catalog_forms_no_v(monkeypatch, name, c):
    def refuse(self, var):
        raise AssertionError("catalog expanded a derivative of a RationalFn")

    monkeypatch.setattr(RationalFn, "wirtinger", refuse)
    sol = catalog(name, c)
    monkeypatch.undo()
    assert not hasattr(sol, "V")
    assert _digest(sol.U.num, sol.U.den, sol.a.num, sol.a.den) == _CATALOG_SHA256[name, c]


@pytest.mark.parametrize("name, c", list(_HALVED_V_SHA256))
def test_halved_v_is_the_stored_v_halved_term_for_term(name, c):
    h = to_halved_v_form(catalog(name, c))
    assert _digest(h.num, h.den) == _HALVED_V_SHA256[name, c]


# -- the kernel's earlier operations, as oracles ------------------------------------


def _poly(coef: dict) -> BiPoly:
    res = BiPoly()
    res.coef = coef
    return res


def _const_ref(value) -> BiPoly:
    return BiPoly({_ZERO_KEY: value})


def _as_poly_ref(x) -> BiPoly:
    return x if isinstance(x, BiPoly) else _const_ref(complex(x))


def _add_ref(p: BiPoly, q) -> BiPoly:
    out = dict(p.coef)
    for k, v in _as_poly_ref(q).coef.items():
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return _poly(out)


def _sub_ref(p: BiPoly, q) -> BiPoly:
    return _add_ref(p, -_as_poly_ref(q))


def _mul_ref(p: BiPoly, q: BiPoly) -> BiPoly:
    out = {}
    for k1, v1 in p.coef.items():
        for k2, v2 in q.coef.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3], k1[4] + k2[4])
            s = out.get(k, 0) + v1 * v2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return _poly(out)


def _eq_ref(p: BiPoly, q) -> bool:
    return _sub_ref(p, q).nterms == 0


def _rational_add_ref(r: RationalFn, s: RationalFn) -> RationalFn:
    if _eq_ref(r.den, s.den):
        return RationalFn(_add_ref(r.num, s.num), r.den)
    return RationalFn(_add_ref(_mul_ref(r.num, s.den), _mul_ref(s.num, r.den)),
                      _mul_ref(r.den, s.den))


def _bits(p: BiPoly) -> list:
    """Keys in storage order with each coefficient's bits (signed zeros count)."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in p.coef.items()]


# exponents over all five variables, so c and cbar stay symbolic; small ranges and
# unit coefficients make exact cancellation to zero common
_keys = st.tuples(*[st.integers(0, 2)] * 5)
_gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_floats = st.builds(complex, st.floats(-4, 4, width=32),
                    st.sampled_from([0.0, -0.0, 0.7, -1.3]))
_units = st.sampled_from([1, -1, 1j, -1j, complex(1, -0.0), complex(-0.0, 1)])
_coefs = st.one_of(_gaussian, _floats, _units)
_polys = st.dictionaries(_keys, _coefs, max_size=6).map(BiPoly)
_bit_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_bit_settings
@given(value=st.one_of(_coefs, st.integers(-3, 3), st.floats(-4, 4), st.sampled_from(
    [0, 0.0, -0.0, 0j, complex(-0.0, -0.0), complex(2, -0.0), complex(-0.0, 3)])))
def test_const_gives_the_constructors_bits(value):
    assert _bits(BiPoly.const(value)) == _bits(_const_ref(value))


@_bit_settings
@given(p=_polys, q=_polys, r=_polys, scale=_coefs)
def test_ring_operations_give_the_earlier_bits(p, q, r, scale):
    cancel = _add_ref(q, _mul_ref(p, _const_ref(-1)))       # p + cancel = q exactly
    one = BiPoly.const(1.0)
    for a, b in ((p, q), (q, p), (p, p), (p, cancel), (p, -p), (p, r), (_poly({}), p),
                 (p, one), (one, p)):
        assert _bits(a * b) == _bits(_mul_ref(a, b))
        assert _bits(a + b) == _bits(_add_ref(a, b))
        assert _bits(a - b) == _bits(_sub_ref(a, b))
        assert (a == b) == _eq_ref(a, b)
    for a in (p, q):
        assert _bits(a + scale) == _bits(_add_ref(a, scale))
        assert _bits(a - scale) == _bits(_sub_ref(a, scale))
        assert (a == scale) == _eq_ref(a, scale)


def _reordered(p: BiPoly) -> BiPoly:
    return _poly(dict(reversed(list(p.coef.items()))))


def _flip_zero_signs(p: BiPoly) -> BiPoly:
    return _poly({k: complex(v.real if v.real else -v.real, v.imag if v.imag else -v.imag)
                  for k, v in p.coef.items()})


@_bit_settings
@given(n1=_polys, n2=_polys, d1=_polys.filter(lambda p: p.nterms),
       d2=_polys.filter(lambda p: p.nterms), pick=st.integers(0, 4))
def test_rational_add_gives_the_earlier_bits(n1, n2, d1, d2, pick):
    den = (d1, _reordered(d1), _flip_zero_signs(d1), d2, _add_ref(d1, d2))[pick]
    if not den.nterms:
        den = d1
    r, s = RationalFn(n1, d1), RationalFn(n2, den)
    for a, b in ((r, s), (s, r), (r, r)):
        got, ref = a + b, _rational_add_ref(a, b)
        assert _bits(got.num) == _bits(ref.num) and _bits(got.den) == _bits(ref.den)


def test_a_factor_one_with_a_non_finite_coefficient_takes_the_loop():
    # v * (1 + 0j) is not v when a part of v is infinite: inf * 0 is nan
    one = BiPoly.const(1.0)
    for v in (complex(math.inf, 2.0), complex(-0.0, -math.inf), complex(math.nan, 0.0)):
        p = _poly({(1, 0, 0, 0, 0): v, (0, 2, 0, 0, 0): complex(-0.0, 3.0)})
        assert _bits(p * one) == _bits(_mul_ref(p, one))
        assert _bits(one * p) == _bits(_mul_ref(one, p))
    assert _bits(p * one) != _bits(p)


def _mul_by_the_loop(self, other, _mul=BiPoly.__mul__):
    return _mul_ref(self, other) if isinstance(other, BiPoly) else _mul(self, other)


def _chain_polys(name, c) -> list:
    """Every BiPoly of catalog(name, c), of moutard_exact on its f with the
    transformed and inverted spinors, and of dsii_residual_exact."""
    sol = catalog(name, c)
    m = moutard_exact(sol.f)
    quats = (m.S0, m.K, m.Psi0, m.Phi0, m.tilde_psi_for_linear_datum(),
             m.tilde_phi_for_identity_datum(), *m.inverted_surface_spinors())
    fns = (sol.U, sol.a, m.W, m.a, *(r for q in quats for r in (q.a, q.b)))
    return [sol.f, *(p for r in fns for p in (r.num, r.den)), *dsii_residual_exact(sol)]


@pytest.mark.parametrize("name, c", [("s1", 1.1 + 0.3j), ("s1", 1j), ("s1", "symbolic"),
                                     ("s2", 12), ("s2", 1.1 + 0.3j), ("s2", "symbolic")])
def test_exact_chain_multiplies_by_one_as_the_loop_does(monkeypatch, name, c):
    by_one, mul = [], BiPoly.__mul__

    def counted(self, other):
        by_one.append(isinstance(other, BiPoly) and {_ZERO_KEY: 1} in (self.coef, other.coef))
        return mul(self, other)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    got = _chain_polys(name, c)
    assert sum(by_one) >= 80          # about half of the chain's 161-171 products
    monkeypatch.setattr(BiPoly, "__mul__", _mul_by_the_loop)
    ref = _chain_polys(name, c)
    assert len(got) == len(ref) == 43
    assert [_bits(p) for p in got] == [_bits(p) for p in ref]
