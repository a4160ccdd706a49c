import numpy as np
import pytest

from gausslab import build_tower, digits
from gausslab.chars import MultChar, ring_for
from gausslab.errors import ArgumentError
from gausslab.ff import smallest_irreducible
from gausslab.gauss import gauss_S
from gausslab.padic import (
    PadicEmbedding,
    RamifiedContext,
    embedding_for,
    gross_koblitz_check,
    stickelberger_check,
    teichmuller,
    zeta_p_lift,
)


@pytest.fixture(scope="module")
def emb9(f9):
    return embedding_for(f9)


def test_teichmuller_basics(f9, emb9):
    ctx = emb9.ctx
    one = teichmuller(ctx, (1, 0))
    assert one == ctx.one()
    with pytest.raises(ArgumentError):
        teichmuller(ctx, (0, 0))
    # p=3, n=1: the lift of 2 is -1
    T1 = build_tower(3, 1, 1)
    e1 = embedding_for(T1)
    assert teichmuller(e1.ctx, (2,)) == e1.ctx.from_int(-1)
    # defining property at full precision for all of F_9^x
    for x in range(1, 9):
        t = teichmuller(ctx, f9.vec(x).astype(int))
        assert (t ** 8 - ctx.one()).valuation() is None
        assert t.residue() == tuple(int(c) for c in f9.vec(x))


def test_zeta_p_lift(emb9):
    ctx = emb9.ctx
    z = emb9.zeta_p
    phi = ctx.one() + z + z * z
    assert phi.valuation() is None  # Phi_3 vanishes at working precision
    assert (z ** 3 - ctx.one()).valuation() is None
    assert (z - ctx.one()).valuation() == 1
    # Dwork pinning: zeta = 1 + pi mod pi^2
    assert (z - ctx.one() - ctx.pi_power(1)).valuation() >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_zeta_p_lift_is_the_dwork_root(p, n):
    modulus = tuple(int(c) for c in smallest_irreducible(p, n))
    for K in (2, 4) + tuple(range(n * (p - 1) + 8, n * (p - 1) + 12)):
        ctx = RamifiedContext(p, n, modulus, K)
        z = zeta_p_lift(ctx)
        phi, power = ctx.one(), z
        for _ in range(1, p):
            phi, power = phi + power, power * z
        assert phi.is_zero(), (p, n, K)  # Phi_p(z) = 0 mod p^K
        assert z**p == ctx.one()
        assert (z - ctx.one()).div_by_pi().residue() == (1,) + (0,) * (n - 1)  # z = 1 + pi mod pi^2


def test_zeta_2_is_minus_one():
    T = build_tower(2, 1, 3)
    e = embedding_for(T)
    assert e.zeta_p == e.ctx.from_int(-1)


def test_valuations(emb9):
    ctx = emb9.ctx
    assert ctx.from_int(3).valuation() == 2  # v(p) = p-1
    assert ctx.from_int(1).valuation() == 0
    assert ctx.zero().valuation() is None
    assert ctx.pi_power(5).valuation() == 5


def test_embed_is_morphism(f9, emb9):
    rng = np.random.default_rng(0)
    ring = ring_for(f9)
    for _ in range(50):
        a = ring.element(rng.integers(-9, 9, ring.phi))
        b = ring.element(rng.integers(-9, 9, ring.phi))
        lhs = emb9.embed(a * b)
        rhs = emb9.embed(a) * emb9.embed(b)
        diff = lhs - rhs
        assert diff.is_zero() or diff.valuation() is None
        dsum = emb9.embed(a + b) - (emb9.embed(a) + emb9.embed(b))
        assert dsum.is_zero()


def _embed_by_terms(emb, elt):
    """Reference: sum of c_k * img(zeta_m)^k, one ring call per term."""
    ctx = emb.ctx
    pows = [ctx.one()]
    while len(pows) < elt.ring.phi:
        pows.append(pows[-1] * emb.img_zeta_m)
    out = ctx.zero()
    for k, c in enumerate(elt.coeffs):
        c = int(c)
        if c:
            out = out + pows[k].scale_int(c)
    return out


@pytest.mark.parametrize("p,n", [(3, 2), (2, 5), (5, 2), (7, 3)])
def test_embed_matches_per_term_sum(p, n):
    T = build_tower(p, 1, n)
    emb = embedding_for(T)
    ring = ring_for(T)
    rng = np.random.default_rng(p * 100 + n)
    elts = [gauss_S(MultChar(T, e)) for e in (1, 2, T.mult_order - 1)]
    for bound in (9, 2**40, 2**60):
        elts += [ring.element(rng.integers(-bound, bound, ring.phi)) for _ in range(3)]
    # the int64 product is certified only while sum|c_k| * (p^K - 1) < 2^63;
    # the last elements break that bound, so they take the Python-int product
    assert sum(abs(int(c)) for c in elts[-1].coeffs) * (emb.ctx.pK - 1) >= 2**63
    for elt in elts:
        got = emb.embed(elt)
        assert got.coeffs == _embed_by_terms(emb, elt).coeffs
        assert all(type(c) is int for w in got.coeffs for c in w)
    # p^K = 7^26 > 2^62: the image matrix holds Python ints
    assert (emb._images.dtype == object) == (emb.ctx.pK >= 2**62)
    # one input on both routes: int64 coefficients against the same values as objects
    elt = elts[3]
    as_objects = ring.element(elt.coeffs.astype(object))
    assert as_objects.coeffs.dtype == object
    assert emb.embed(as_objects).coeffs == emb.embed(elt).coeffs


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
def test_pi_shift_gives_the_residue_over_zeta_p_minus_one(p, n):
    # the Stickelberger residue is read off x / pi^s; it is the residue of
    # x / (zeta_p - 1)^s exactly when x - r * (zeta_p - 1)^s has valuation > s
    T = build_tower(p, 1, n)
    emb = embedding_for(T)
    pi_unit = emb.zeta_p - emb.ctx.one()
    for e in range(1, T.mult_order):
        s = digits.digit_sum(digits.expand(p, n, e))
        x = emb.embed(gauss_S(MultChar(T, -e)))
        assert x.valuation() == s
        r = emb.ctx.from_w(x.div_by_pi_power(s).residue())
        rest = x - r * pi_unit**s
        assert rest.is_zero() or rest.valuation() > s


def test_embed_examples(f9, emb9):
    ring = ring_for(f9)
    assert emb9.embed(ring.one()) == emb9.ctx.one()
    zeta_p = ring.zeta_pow(8)  # zeta_m^(m/p) = zeta_p
    assert emb9.embed(zeta_p - ring.one()).valuation() == 1
    assert emb9.embed(ring.from_int(3)).valuation() == 2
    with pytest.raises(ArgumentError):
        from gausslab.cyclo import get_ring

        emb9.embed(get_ring(8).one())


def test_division(emb9):
    ctx = emb9.ctx
    assert ctx.pi_power(3).div_by_pi_power(1) == ctx.pi_power(2)
    with pytest.raises(ArgumentError):
        ctx.pi_power(1).div_by_pi().div_by_pi()


def test_valuation_symmetry(f9):
    # v(S(chi)) + v(S(chi^-1)) = n(p-1) for nontrivial chi
    emb = embedding_for(f9)
    for e in range(1, 8):
        v1 = emb.embed(gauss_S(MultChar(f9, e))).valuation()
        v2 = emb.embed(gauss_S(MultChar(f9, -e))).valuation()
        assert v1 + v2 == 2 * 2


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 4)])
def test_stickelberger_examples(p, n):
    T = build_tower(p, 1, n)
    for e in range(1, T.mult_order):
        r = stickelberger_check(T, e)
        assert r.ok, (p, n, e, r)


def test_stickelberger_specific_values(f9):
    r = stickelberger_check(f9, 1)
    assert r.s == 1 and r.measured_valuation == 1
    r = stickelberger_check(f9, 4)  # digits (1,1)
    assert r.s == 2 and r.measured_valuation == 2
    with pytest.raises(ArgumentError):
        stickelberger_check(f9, 0)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_gross_koblitz_windows(p, n):
    T = build_tower(p, 1, n)
    for w in (0, 1, 2):
        for e in range(1, T.mult_order):
            r = gross_koblitz_check(T, e, w)
            assert r.ok, (p, n, e, w)


def test_gross_koblitz_p2_degenerate():
    T = build_tower(2, 1, 3)
    for e in range(1, 7):
        assert gross_koblitz_check(T, e, 0).ok
    with pytest.raises(ArgumentError):
        gross_koblitz_check(T, 1, 1)


def test_quadratic_gauss_sum_is_minus_pi():
    # F_3: S(omega) = -pi exactly under the Dwork pinning
    T1 = build_tower(3, 1, 1)
    emb = embedding_for(T1)
    s = emb.embed(gauss_S(MultChar(T1, 1)))
    assert (s + emb.ctx.pi_power(1)).valuation() is None


def test_context_rejects_bad_modulus():
    with pytest.raises(ArgumentError):
        RamifiedContext(3, 2, (1, 0, 2), 8)  # not monic
    with pytest.raises(ArgumentError):
        PadicEmbedding(build_tower(2, 2, 2))  # f != 1
