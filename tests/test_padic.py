import numpy as np
import pytest

from gausslab import _accel, build_tower, digits, numth, padic
from gausslab.chars import MultChar, orbit_minima, ring_for
from gausslab.errors import ArgumentError
from gausslab.ff import smallest_irreducible
from gausslab.gauss import gauss_S, gauss_table
from gausslab.padic import (
    MAX_WINDOW_MODULUS,
    PadicEmbedding,
    RamifiedContext,
    _matmul_mod,
    _matpow_mod,
    _sweep_precision,
    embedding_for,
    gross_koblitz_check,
    stickelberger_check,
    teichmuller,
    zeta_p_lift,
)
from reference import (
    div_by_pi,
    div_by_pi_power,
    embed_by_terms,
    from_w,
    gross_koblitz_one,
    image_powers,
    mul,
    power,
    residue,
    ring_embed_rows,
    ring_image_matrix,
    ring_step_matrix,
    scalar,
    stickelberger_one,
    teich_element,
    valuation,
    zeta_p_element,
)


@pytest.fixture(scope="module")
def emb9(f9):
    return embedding_for(f9)


def test_teichmuller_basics(f9, emb9):
    ctx = emb9.ctx
    assert teichmuller(ctx, (1, 0)).tolist() == [[1, 0], [0, 1]]  # the lift of 1 multiplies by 1
    with pytest.raises(ArgumentError):
        teichmuller(ctx, (0, 0))
    # p=3, n=1: the lift of 2 is -1
    T1 = build_tower(3, 1, 1)
    e1 = embedding_for(T1)
    assert teichmuller(e1.ctx, (2,)).tolist() == [[e1.ctx.pK - 1]]
    # defining property at full precision for all of F_9^x, on row 0 of the
    # matrix; row j is x^j times it
    for x in range(1, 9):
        T = teichmuller(ctx, f9.vec(x).astype(int))
        t = from_w(ctx, T[0])
        assert valuation(ctx, (power(ctx, t, 8) - scalar(ctx, 1)) % ctx.pK) is None
        assert residue(ctx, t) == tuple(int(c) for c in f9.vec(x))
        assert T[1].tolist() == mul(ctx, from_w(ctx, (0, 1)), t)[0].tolist()


@pytest.mark.parametrize("p,n,K", [(3, 6, 20), (5, 3, 21), (2, 5, 30), (7, 1, 9), (3, 2, 4)])
def test_teichmuller_fixes_n_digits_a_step(monkeypatch, p, n, K):
    # each step T <- T^(p^n) fixes n more p-adic digits, so the lift of x is
    # right mod p^(1 + n k) after k steps, and the loop ends at the step
    # that first finds T stable, by step ceil((K-1)/n) + 1 (at step 1 where
    # x is a root of unity in Z[x]/(M~) already, as at (3, 2))
    ctx = RamifiedContext(p, n, tuple(int(c) for c in smallest_irreducible(p, n)), K)
    steps = []
    matpow = padic._matpow_mod

    def recording(A, k, modulus):
        steps.append(A.copy())
        return matpow(A, k, modulus)

    monkeypatch.setattr(padic, "_matpow_mod", recording)
    T = teichmuller(ctx, (0, 1) + (0,) * (n - 2) if n > 1 else (2,))
    assert len(steps) <= -(-(K - 1) // n) + 1
    right = [max(j for j in range(K + 1) if (S % p**j == T % p**j).all()) for S in steps]
    assert all(r >= min(K, 1 + n * k) for k, r in enumerate(right)), right
    assert right[-1] == K


def test_zeta_p_lift(emb9):
    ctx = emb9.ctx
    z, one = zeta_p_element(emb9), scalar(ctx, 1)
    phi = (one + z + mul(ctx, z, z)) % ctx.pK
    assert valuation(ctx, phi) is None  # Phi_3 vanishes at working precision
    assert valuation(ctx, (power(ctx, z, 3) - one) % ctx.pK) is None
    assert valuation(ctx, (z - one) % ctx.pK) == 1
    # Dwork pinning: zeta = 1 + pi mod pi^2
    assert valuation(ctx, (z - one - scalar(ctx, 1, 1)) % ctx.pK) >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_zeta_p_lift_is_the_dwork_root(p, n):
    modulus = tuple(int(c) for c in smallest_irreducible(p, n))
    for K in (2, 4) + tuple(range(n * (p - 1) + 8, n * (p - 1) + 12)):
        ctx = RamifiedContext(p, n, modulus, K)
        Z = zeta_p_lift(ctx)
        z, one = scalar(ctx, 0), scalar(ctx, 1)
        z[:, 0] = Z[0].tolist()  # zeta_p lies in Z_p[pi]
        phi, z_power = one, z
        for _ in range(1, p):
            phi, z_power = (phi + z_power) % ctx.pK, mul(ctx, z_power, z)
        assert not phi.any(), (p, n, K)  # Phi_p(z) = 0 mod p^K
        assert z_power.tolist() == one.tolist()  # z^p = 1
        assert residue(ctx, div_by_pi(ctx, (z - one) % ctx.pK)) == (1,) + (0,) * (n - 1)  # z = 1 + pi mod pi^2


def test_zeta_2_is_minus_one():
    T = build_tower(2, 1, 3)
    e = embedding_for(T)
    assert e.zeta_p.tolist() == [[e.ctx.pK - 1]]


def _rows(*elts):
    return np.array(elts, dtype=object)


def test_valuations(emb9):
    ctx = emb9.ctx
    elts = [scalar(ctx, 3), scalar(ctx, 1), scalar(ctx, 0), scalar(ctx, 1, 5)]
    assert [valuation(ctx, x) for x in elts] == [2, 0, None, 5]  # v(p) = p-1
    assert ctx.valuations(_rows(*elts)) == [2, 0, None, 5]
    assert ctx.valuations(_rows(*elts).astype(np.int64)) == [2, 0, None, 5]
    # the array valuations agree with the per-element reference on every kind of row
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = scalar(ctx, 0)
        for s in rng.integers(0, ctx.prec_floor + 2, 3):
            x = (x + mul(ctx, scalar(ctx, 1, int(s)), from_w(ctx, rng.integers(0, 9, ctx.n)))) % ctx.pK
        assert ctx.valuations(_rows(x)) == [valuation(ctx, x)], x


def test_embed_is_morphism(f9, emb9):
    rng = np.random.default_rng(0)
    ring = ring_for(f9)
    for _ in range(50):
        a = ring.element(rng.integers(-9, 9, ring.phi))
        b = ring.element(rng.integers(-9, 9, ring.phi))
        pK = emb9.ctx.pK
        lhs = emb9.embed(a * b)
        rhs = mul(emb9.ctx, emb9.embed(a), emb9.embed(b))
        diff = (lhs - rhs) % pK
        assert not diff.any() or valuation(emb9.ctx, diff) is None
        dsum = (emb9.embed(a + b) - (emb9.embed(a) + emb9.embed(b))) % pK
        assert not dsum.any()


def _past_2_62(p):
    """The least K with p^K >= 2^62, where the power tables hold Python ints."""
    return next(K for K in range(1, 63) if p**K >= 2**62)


# (2, 1), (3, 1) and (2, 4) are the doubling's edge cases: phi = 1,
# phi = 2 = 2^0 + 1 and phi = 8, a power of two
@pytest.mark.parametrize("p,n", [(3, 2), (2, 5), (5, 2), (7, 3), (2, 1), (3, 1), (2, 4)])
def test_embed_matches_per_term_sum(p, n):
    # at the default precision and at the least K with p^K >= 2^62 (7^23 at p = 7)
    T = build_tower(p, 1, n)
    ring = ring_for(T)
    rng = np.random.default_rng(p * 100 + n)
    elts = [gauss_S(MultChar(T, e)) for e in (1, 2, T.mult_order - 1)]
    for bound in (9, 2**40, 2**60):
        elts += [ring.element(rng.integers(-bound, bound, ring.phi)) for _ in range(3)]
    wide = PadicEmbedding(T, _past_2_62(p))
    # the int64 product is certified only while sum|c_k| * (p^K - 1) < 2^63;
    # the last elements break that bound, so they take the Python-int product
    assert sum(abs(int(c)) for c in elts[-1].coeffs) * (wide.ctx.pK - 1) >= 2**63
    for emb in (embedding_for(T), wide):
        for elt in elts:
            got = emb.embed(elt)
            assert got.tolist() == embed_by_terms(emb, elt).tolist()
            assert got.shape == (p - 1, n) and 0 <= got.min() and got.max() < emb.ctx.pK
        # past 2^62 the power tables hold Python ints
        assert (emb.teich_powers.dtype == object) == (emb is wide)
        # one input on both routes: int64 coefficients against the same values as objects
        elt = elts[3]
        as_objects = ring.element(elt.coeffs.astype(object))
        assert as_objects.coeffs.dtype == object
        assert emb.embed(as_objects).tolist() == emb.embed(elt).tolist()


def test_matmul_mod_certifies_every_partial_sum():
    # int64 only where the row sums of |A| times max |B| stay below 2^63:
    # rows of 2^60 with max |B| = 3 leave it though each product fits, and
    # one 2^58 per row with max |B| = 16 stays inside it though
    # max |A| * columns * max |B| does not; both against Python ints
    modulus = 2**61 - 1
    for A, B in [(np.full((2, 8), 2**60), np.full((8, 2), 3)),
                 (np.eye(2, 8, dtype=np.int64) * 2**58 + 1, np.full((8, 2), -16))]:
        A, B = A.astype(np.int64), B.astype(np.int64)
        want = A.astype(object) @ B.astype(object) % modulus
        assert _matmul_mod(A, B, modulus).tolist() == want.tolist()


@pytest.mark.parametrize("p,n", [(3, 2), (2, 5), (5, 2), (7, 2), (2, 1), (13, 1)])
def test_image_matrix_is_the_sequential_powers(p, n):
    # the oracle's doubled image matrix: row k is img(zeta_m)^k, entry for
    # entry in [0, p^K), for the tower's phi and for counts that stop the
    # doubling at every kind of step: 1, powers of two and 2^k + 1; at the
    # default precision, and past 2^62, where the rows hold Python ints
    T = build_tower(p, 1, n)
    for emb in (embedding_for(T), PadicEmbedding(T, _past_2_62(p))):
        for count in sorted({ring_for(T).phi, 1, 2, 3, 4, 8, 9, 16, 17, 33}):
            got = ring_image_matrix(emb, count)
            assert got.tolist() == image_powers(emb, count).tolist(), count
            assert got.dtype == (object if emb.ctx.pK >= 2**62 else np.int64)


# (2, 1) has N = 1, (3, 1) N = 2 and (2, 2) N = 3 = 2^1 + 1; (2, 5) has
# N = 31 = 2^5 - 1, one short of a power of two
@pytest.mark.parametrize("p,n", [(3, 2), (2, 5), (5, 2), (7, 3), (2, 1), (3, 1), (2, 2), (13, 1)])
def test_power_tables_are_the_sequential_powers(p, n):
    # row k of `teich_powers` holds the W-coordinates of teich(g)^k, k < N,
    # and row t of `zeta_powers` the pi-coordinates of zeta_p^t, t < p,
    # entry for entry in [0, p^K), each power one schoolbook product after
    # the last; at the default precision, and past 2^62, where the tables
    # hold Python ints
    T = build_tower(p, 1, n)
    for emb in (embedding_for(T), PadicEmbedding(T, _past_2_62(p))):
        ctx = emb.ctx
        for table, x, count, coordinates in [(emb.teich_powers, teich_element(emb), T.mult_order, lambda y: y[0]),
                                             (emb.zeta_powers, zeta_p_element(emb), p, lambda y: y[:, 0])]:
            want, y = [], scalar(ctx, 1)
            for _ in range(count):
                want.append(coordinates(y).tolist())
                y = mul(ctx, y, x)
            assert table.tolist() == want
            assert table.dtype == (object if ctx.pK >= 2**62 else np.int64)


def _ring_route_fields():
    """Every prime-base field (p, n) whose ring Z[zeta_m], m = p (p^n - 1),
    is under the 8192 conductor cap, for p < 48: that is every one with
    n >= 2, and n = 1 up to p = 47.  The n = 1 fields from p = 53 to 89 are
    left out for time: `zeta_p_lift` multiplies (p-1) x (p-1) matrices, and
    p = 89 takes about 1.3 s an embedding."""
    return [(p, n) for p in range(2, 48) if numth.is_prime(p)
            for n in range(1, 14) if p * (p**n - 1) <= 8192]


@pytest.mark.parametrize("p,n", _ring_route_fields(), ids=lambda v: str(v))
def test_gauss_sums_match_the_ring_route(p, n):
    # the embedded sum of every orbit, read from its (zeta_p, teich) histogram,
    # equals its Gauss-table row embedded through Z[zeta_m], at every sweep
    # precision of windows 0..3 that the window cap allows (window 0 reads
    # the default, Stickelberger's precision), and at (5, 2) also past 2^62;
    # the oracle runs once, at the highest precision, and is read mod p^K
    # below it: teich(g) and zeta_p mod p^K are the reductions of their lifts
    # at any higher precision
    T = build_tower(p, 1, n)
    reps = np.unique(orbit_minima(T.mult_order, p, n))
    Ks = [_sweep_precision(n, w + 1) for w in range(1, 4) if p ** (w + 1) <= MAX_WINDOW_MODULUS]
    if (p, n) == (5, 2):
        Ks.append(_past_2_62(p))
    embs = [PadicEmbedding(T)] + [PadicEmbedding(T, K) for K in Ks]
    assert embs[0].ctx.K == _sweep_precision(n, 1)
    want = ring_embed_rows(embs[-1], gauss_table(T).rows(reps))
    for emb in embs:
        got = emb.gauss_sums(reps)
        assert got.tolist() == (want % emb.ctx.pK).tolist(), emb.ctx.K
        assert emb.teich_powers.dtype == (object if emb.ctx.pK >= 2**62 else np.int64)


@pytest.mark.parametrize("wide", [False, True], ids=["below-2^62", "past-2^62"])
@pytest.mark.parametrize("p,n,Ks", [(2, 3, (11, 63)), (3, 2, (12, 40)), (7, 3, (20, 26)), (13, 1, (16, 20))],
                         ids=["2-3", "3-2", "7-3", "13-1"])
def test_kronecker_matrices_match_the_schoolbook_product(p, n, Ks, wide):
    # v @ kron(A, B) must be the coordinates of v times a * b, for a in
    # Z/p^K[pi] and b in W: the generators pi and x, zeta_p^a * teich(g)^b
    # at random exponents and the step matrix's img(zeta_m); the first K of
    # each field keeps p^K below 2^62, the second takes it past
    T = build_tower(p, 1, n)
    emb = PadicEmbedding(T, Ks[wide])
    ctx = emb.ctx
    assert (ctx.pK >= 2**62) == wide
    z, t = zeta_p_element(emb), teich_element(emb)
    pi = scalar(ctx, 1, 1)
    x = from_w(ctx, [int(j == 1) for j in range(n)]) if n > 1 else scalar(ctx, -ctx.modulus[0])
    rng = np.random.default_rng(p * 1000 + ctx.K)
    N = T.mult_order
    cases = [(np.kron(ctx.pi, np.identity(n, dtype=int)), pi),
             (np.kron(np.identity(p - 1, dtype=int), ctx.x), x),
             (ring_step_matrix(emb), mul(ctx, power(ctx, z, pow(N, -1, p)), power(ctx, t, pow(p, -1, N))))]
    for a, b in [(0, 0), (1, 1)] + [tuple(int(c) for c in rng.integers(0, 50, 2)) for _ in range(3)]:
        M = np.kron(_matpow_mod(emb.zeta_p, a, ctx.pK), _matpow_mod(emb.teich_g, b, ctx.pK))
        cases.append((M, mul(ctx, power(ctx, z, a), power(ctx, t, b))))
    for M, y in cases:
        for _ in range(4):
            v = np.array([[int(c) for c in rng.integers(0, 2**62, n)] for _ in range(p - 1)], dtype=object) % ctx.pK
            got = v.ravel() @ M.astype(object) % ctx.pK
            assert got.tolist() == mul(ctx, v, y).ravel().tolist()


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
def test_pi_shift_gives_the_residue_over_zeta_p_minus_one(p, n):
    # the Stickelberger residue is read off x / pi^s; it is the residue of
    # x / (zeta_p - 1)^s exactly when x - r * (zeta_p - 1)^s has valuation > s
    T = build_tower(p, 1, n)
    emb = embedding_for(T)
    ctx = emb.ctx
    pi_unit = (zeta_p_element(emb) - scalar(ctx, 1)) % ctx.pK
    for e in range(1, T.mult_order):
        s = digits.digit_sum(digits.expand(p, n, e))
        x = emb.embed(gauss_S(MultChar(T, -e)))
        assert ctx.valuations(_rows(x)) == [s]
        r = from_w(ctx, ctx.shift_down(_rows(x), [s])[0, 0] % p)
        rest = (x - mul(ctx, r, power(ctx, pi_unit, s))) % ctx.pK
        assert not rest.any() or valuation(ctx, rest) > s


@pytest.mark.parametrize("p,n", [(3, 6), (5, 3), (2, 10)])
def test_unit_residues_are_the_gross_koblitz_unit(p, n):
    # S(chi_{-a}) = -pi^s(a) U(a) in the embedding, so the embedded sum
    # shifted down by s(a) reads -U(a) mod pi, and mod pi^2 = 4 at p = 2,
    # where the twist keys read U mod 4
    T = build_tower(p, 1, n)
    emb = embedding_for(T)
    a = np.arange(T.mult_order)
    s = [digits.digit_sum(digits.expand(p, n, int(x))) for x in a]
    head = emb.ctx.shift_down(emb.gauss_sums(-a), s)[:, 0, :]
    mod = 4 if p == 2 else p
    want = np.zeros((len(a), n), dtype=np.int64)
    want[:, 0] = -digits.unit_residues(p, n, a) % mod
    assert (head % mod == want).all()


def test_embed_examples(f9, emb9):
    ring = ring_for(f9)
    ctx = emb9.ctx
    assert emb9.embed(ring.one()).tolist() == scalar(ctx, 1).tolist()
    zeta_p = ring.zeta_pow(8)  # zeta_m^(m/p) = zeta_p
    assert valuation(ctx, emb9.embed(zeta_p - ring.one())) == 1
    assert valuation(ctx, emb9.embed(ring.from_int(3))) == 2
    with pytest.raises(ArgumentError):
        from gausslab.cyclo import get_ring

        emb9.embed(get_ring(8).one())


def test_division():
    # x / pi^s in one shift equals s single pi-divisions, up to the top
    # p-adic digits that each wrap of pi^(p-1) = -p leaves undetermined; at
    # the default precision and at n(p-1) + 8, for every s < 3(p-1) + 2
    # whose wraps leave a digit
    for p, n in [(3, 2), (5, 1), (2, 3)]:
        T = build_tower(p, 1, n)
        for ctx in (embedding_for(T).ctx, PadicEmbedding(T, n * (p - 1) + 8).ctx):
            rng = np.random.default_rng(p + n)
            xs, shifts = [], []
            for s in range(min(3 * ctx.e + 2, ctx.e * (ctx.K - 1) + 1)):
                for a in (s, s + 1, s + ctx.e):
                    y = from_w(ctx, rng.integers(0, p**3, n))
                    xs += [scalar(ctx, 1, a), mul(ctx, mul(ctx, scalar(ctx, 1, s), y), scalar(ctx, 1, a - s))]
                    shifts += [s, s]
            got = ctx.shift_down(_rows(*xs), shifts)
            for x, s, row in zip(xs, shifts, got.tolist()):
                prec = p ** (ctx.K - -(-s // ctx.e))
                want = div_by_pi_power(ctx, x, s)
                assert [[c % prec for c in w] for w in row] == (want % prec).tolist()
            # pi^(p-1) = -p: -p / pi^(p-1) is one, to the p^(K-1) the wrap leaves
            one = ctx.shift_down(_rows(scalar(ctx, -p)), [ctx.e]) % p ** (ctx.K - 1)
            assert one.tolist() == _rows(scalar(ctx, 1)).tolist()


def test_valuation_symmetry(f9):
    # v(S(chi)) + v(S(chi^-1)) = n(p-1) for nontrivial chi
    emb = embedding_for(f9)
    for e in range(1, 8):
        v1 = valuation(emb.ctx, emb.embed(gauss_S(MultChar(f9, e))))
        v2 = valuation(emb.ctx, emb.embed(gauss_S(MultChar(f9, -e))))
        assert v1 + v2 == 2 * 2


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 4)])
def test_stickelberger_examples(p, n):
    T = build_tower(p, 1, n)
    reports = stickelberger_check(T, range(1, T.mult_order))
    assert [r.e for r in reports] == list(range(1, T.mult_order))
    assert all(r.ok for r in reports), [r for r in reports if not r.ok]


def test_stickelberger_specific_values(f9):
    r1, r4 = stickelberger_check(f9, [1, 4])  # digits (1,0) and (1,1)
    assert r1.s == 1 and r1.measured_valuation == 1
    assert r4.s == 2 and r4.measured_valuation == 2
    assert stickelberger_check(f9, []) == []
    with pytest.raises(ArgumentError):
        stickelberger_check(f9, [1, 0])


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_gross_koblitz_windows(p, n):
    T = build_tower(p, 1, n)
    for w in (0, 1, 2):
        reports = gross_koblitz_check(T, range(1, T.mult_order), w)
        assert len(reports) == T.mult_order - 1
        assert all(r.ok for r in reports), (p, n, w)


@pytest.mark.parametrize("p,n,window", [(3, 2, 1), (5, 2, 1), (5, 2, 2), (7, 2, 0), (3, 3, 2)])
def test_gross_koblitz_reads_the_top_compared_digit(monkeypatch, p, n, window):
    # adding p^(n+window) at pi-degree 0 keeps a sum's valuation, and moves
    # its quotient by pi^(n(p-1) - s(e)) by (-1)^n p^window at pi-degree s(e),
    # where a true quotient is 0; for 1 <= s(e) <= p-2 the sweep's precision
    # must keep that digit, so the identity fails.  p^(n+window+1) moves the
    # quotient by p^(window+1), past the compared digits, and it holds
    T = build_tower(p, 1, n)
    es = [e for e in range(1, T.mult_order) if digits.digit_sum(digits.expand(p, n, e)) <= p - 2]
    gauss_sums = PadicEmbedding.gauss_sums
    for k, holds in ((n + window, False), (n + window + 1, True)):
        def perturbed(self, exps, k=k):
            X = gauss_sums(self, exps)
            X[:, 0, 0] = (X[:, 0, 0] + p**k) % self.ctx.pK
            return X

        monkeypatch.setattr(PadicEmbedding, "gauss_sums", perturbed)
        reports = gross_koblitz_check(T, es, window)
        assert reports and all(r.valuation_ok and r.identity_ok == holds for r in reports), k


def test_gross_koblitz_p2_degenerate():
    T = build_tower(2, 1, 3)
    assert all(r.ok for r in gross_koblitz_check(T, range(1, 7), 0))
    for exponents in ([1], []):
        with pytest.raises(ArgumentError):
            gross_koblitz_check(T, exponents, 1)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (2, 5), (7, 2), (13, 2)])
def test_batched_reports_match_the_per_element_route(p, n):
    # one embedding product, array valuations and one closed-form shift per
    # sweep, against one embedding, tuple valuation and s single pi-divisions
    # per exponent on the sequential image powers
    T = build_tower(p, 1, n)
    N = T.mult_order
    exponents = list(range(1, N))
    assert stickelberger_check(T, exponents) == [stickelberger_one(T, e) for e in exponents]
    for w in (0,) if p == 2 else (0, 1, 2):
        assert gross_koblitz_check(T, exponents, w) == [gross_koblitz_one(T, e, w) for e in exponents]
    # order, repeats and unreduced exponents are kept exponent by exponent
    mixed = [N - 1, 1, 1 + N, p, -1, 2]
    assert stickelberger_check(T, mixed) == [stickelberger_one(T, e) for e in mixed]
    assert gross_koblitz_check(T, mixed, 0) == [gross_koblitz_one(T, e, 0) for e in mixed]


@pytest.mark.parametrize("p,n", [(3, 3), (2, 5)])
def test_full_sweeps_embed_each_needed_row_once(monkeypatch, p, n):
    # a sweep over every nontrivial exponent computes the histogram of each
    # orbit its exponents read, once, at the orbit minimum, in ascending
    # order: one histogram row per orbit, not one per exponent
    T = build_tower(p, 1, n)
    want = np.unique(orbit_minima(T.mult_order, p, n)[1:])
    counted = []
    gauss_counts = _accel.gauss_counts

    def recording(*args, exps, **kwargs):
        counted.append(exps.copy())
        return gauss_counts(*args, exps=exps, **kwargs)

    monkeypatch.setattr(_accel, "gauss_counts", recording)
    exponents = range(1, T.mult_order)
    stickelberger_check(T, exponents)
    gross_koblitz_check(T, exponents, 0)
    assert len(counted) == 2  # one row block per sweep at these sizes
    for got in counted:
        assert got.tolist() == want.tolist()


def test_quadratic_gauss_sum_is_minus_pi():
    # F_3: S(omega) = -pi exactly under the Dwork pinning
    T1 = build_tower(3, 1, 1)
    emb = embedding_for(T1)
    s = emb.embed(gauss_S(MultChar(T1, 1)))
    assert valuation(emb.ctx, (s + scalar(emb.ctx, 1, 1)) % emb.ctx.pK) is None


def test_context_rejects_bad_modulus():
    with pytest.raises(ArgumentError):
        RamifiedContext(3, 2, (1, 0, 2), 8)  # not monic
    with pytest.raises(ArgumentError):
        PadicEmbedding(build_tower(2, 2, 2))  # f != 1
