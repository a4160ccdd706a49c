import itertools
import math
import tracemalloc

import numpy as np
import pytest

import reference
from gausslab import _accel, build_tower, gauss
from gausslab.chars import MultChar, ring_for, twist_offset
from gausslab.cyclo import canonical_key
from gausslab.errors import ArgumentError, ResourceCapError
from reference import absolute_traces, etale_gauss, ring_value_ids, value_at, value_ids
from gausslab.gauss import (
    GaussTable,
    ScaledCyclo,
    gamma_n_by_1,
    gauss_S,
    gauss_table,
    hasse_davenport_check,
    sigma_fixing_psi,
    subfield_gauss_sum,
    tensor_gamma_rhs,
)


def naive_gauss_sum(tower, e):
    """Independent oracle: literal term-by-term summation in the shared ring."""
    ring = ring_for(tower)
    traces = absolute_traces(tower)
    acc = ring.zero()
    for j in range(tower.mult_order):
        x = tower.exp(j)
        acc = acc + value_at(tower, e, x) * ring.zeta_pow(tower.mult_order * int(traces[j]))
    return acc


def _single_sum(tower, e):
    """Reference: one histogram of the literal index p*e*j + N*Tr(g^j) mod m."""
    ring = ring_for(tower)
    N, p, m = tower.mult_order, tower.p, ring.m
    j = np.arange(N, dtype=np.int64)
    idx = (p * e * j + N * absolute_traces(tower)) % m
    return ring.element(np.bincount(idx, minlength=m))


def _subfield_trace(tower, y, d_abs):
    # y + y^p + ... + y^(p^(d_abs-1)) in field arithmetic
    t = 0
    for i in range(d_abs):
        t = tower.add(t, tower.frobenius(y, i))
    assert t < tower.p  # the trace lands in the prime field
    return t


def _subfield_sum_loop(tower, d, c):
    """Reference: the subfield sum as a loop over the elements h^l,
    h = Nr_{n:d}(g)."""
    ring = ring_for(tower)
    N, p, m = tower.mult_order, tower.p, ring.m
    Nd = tower.q**d - 1
    step = N // Nd
    counts = np.zeros(m, dtype=np.int64)
    for l in range(Nd):
        t = _subfield_trace(tower, tower.exp(l * step), tower.f * d)
        counts[(p * c * l * step + N * t) % m] += 1
    return ring.element(counts)


def test_trivial_character_sums():
    for p, f, n in [(3, 1, 2), (2, 1, 5), (5, 1, 2), (5, 2, 1)]:
        T = build_tower(p, f, n)
        assert gauss_S(MultChar(T, 0)).int_value() == -1


def test_quadratic_sum_squared_is_5():
    T = build_tower(5, 1, 1)
    S = gauss_S(MultChar(T, 2))
    assert (S * S).int_value() == 5  # chi(-1) = +1 since -1 is a square mod 5


def test_table_matches_naive_oracle(f9, f32):
    for T in (f9, f32):
        tab = gauss_table(T)
        for e in range(T.mult_order):
            assert tab.element(e) == naive_gauss_sum(T, e)


def test_order_28_sums_are_minus_27(f729):
    tab = gauss_table(f729)
    found = 0
    for e in range(728):
        if 728 // math.gcd(e, 728) == 28:
            found += 1
            assert tab.element(e).int_value() == -27
    assert found == 12  # phi(28) exponents of exact order 28


def test_G_is_S_of_inverse(f9):
    # G(chi) = sum_a chi(a) psi(Tr a^-1), summed literally, is S(chi^-1)
    ring = ring_for(f9)
    traces = absolute_traces(f9)
    for e in range(8):
        direct = ring.zero()
        for j in range(8):
            x = f9.exp(j)
            xinv = f9.inv(x)
            direct = direct + value_at(f9, e, x) * ring.zeta_pow(8 * int(traces[f9.dlog(xinv)]))
        assert direct == gauss_S(MultChar(f9, (8 - e) % 8))


def test_conjugation_law(f9):
    # S(omega^-a) = omega^a(-1) * complex-conjugate of S(omega^a)
    for a in range(8):
        c = MultChar(f9, a)
        rhs = gauss_S(c).conj()
        if c.value_at_minus_one() < 0:
            rhs = -rhs
        assert gauss_S(MultChar(f9, -a)) == rhs


def test_modulus_identity_both_forms(f9, f25):
    for T in (f9, f25):
        qn = T.order
        for e in range(1, T.mult_order):
            c = MultChar(T, e)
            S = gauss_S(c)
            assert (S * sigma_fixing_psi(S, -1, T)).int_value() == c.value_at_minus_one() * qn
            assert (S * S.conj()).int_value() == qn


def test_table_conductor_cap_binds_on_cache_hit():
    # F_{3^8}: conductor 3 * 6560 = 19680 is over the 8192 cap, and a refused
    # table is never cached, so the second call is refused the same way
    T = build_tower(3, 1, 8)
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="conductor 19680 exceeds max_conductor cap 8192"):
            gauss_table(T)


def test_galois_equivariance(f9, f25):
    # S(chi^p) equals the sigma_p image; over the base q = p it is S(chi) itself
    for T in (f9, f25):
        tab = gauss_table(T)
        for e in range(T.mult_order):
            assert tab.element(e * T.p % T.mult_order) == sigma_fixing_psi(
                tab.element(e), T.p, T
            )


def test_gamma_against_brute_force(f9):
    ring = ring_for(f9)
    traces = absolute_traces(f9)

    def gamma_direct(c, k):
        acc = ring.zero()
        N, p = 8, 3
        for j in range(N):
            expo = (
                p * ((c.e * j) % N)
                + p * ((k * twist_offset(f9, 1) * j) % N)
                + N * int(traces[(-j) % N])
            )
            acc = acc + ring.zeta_pow(expo)
        sign = ((-1) * ((-1) ** k)) ** (f9.n - 1)
        return ScaledCyclo(acc if sign > 0 else -acc, f9.n - 1, f9.q)

    for e in (1, 2, 5, 7):
        for k in (0, 1):
            assert gamma_n_by_1(MultChar(f9, e), k) == gamma_direct(MultChar(f9, e), k)


def test_gamma_orbit_invariance(f9, f25):
    for T in (f9, f25):
        for e in range(T.mult_order):
            c = MultChar(T, e)
            if not c.is_regular():
                continue
            for k in range(T.q - 1):
                assert gamma_n_by_1(c, k) == gamma_n_by_1(
                    MultChar(T, e * T.q % T.mult_order), k
                )


def test_gamma_rejects_non_regular(f9):
    with pytest.raises(ArgumentError):
        gamma_n_by_1(MultChar(f9, 0), 0)
    with pytest.raises(ArgumentError):
        gamma_n_by_1(MultChar(build_tower(3, 1, 1), 1), 0)


def test_scaled_cyclo_canonical(f9):
    ring = ring_for(f9)
    a = ScaledCyclo(ring.from_int(27), 2, 3)
    b = ScaledCyclo(ring.from_int(3), 0, 3)
    assert a.power == -1 and a.num.int_value() == 1
    assert a == ScaledCyclo(ring.from_int(9), 1, 3) * ScaledCyclo(ring.one(), 0, 3)  # 9/3 * 1
    assert a * b == ScaledCyclo(ring.from_int(81), 2, 3)  # 3 * 3 = 81/9
    assert a * b != a
    assert ScaledCyclo(ring.zero(), 5, 3).power == 0


# ---------------------------------------------------------------------------
# etale sums


def test_etale_single_factor(f81):
    # one factor F_{q^d} is a row of the subfield table, signed by (-1)^(d-1)
    tables = {}
    for d in (1, 2, 4):
        tab = GaussTable(f81, d)
        for c in range(3**d - 1):
            got = etale_gauss(f81, tables, [d], [c])
            assert got == (tab.element(c) if d % 2 else -tab.element(c))
    assert sorted(tables) == [1, 2, 4]  # built on demand, once per degree


def test_etale_signs(f81):
    # epsilon_A = (-1)^(n - r): read off the trivial character, whose factor
    # sums are each -1, so the product is epsilon_A * (-1)^r = (-1)^n
    for parts, n in [((4,), 4), ((1, 1, 1), 3), ((2, 1), 3), ((2, 2), 4), ((1,), 1)]:
        got = etale_gauss(f81, {}, parts, [0] * len(parts))
        assert got.int_value() == (-1) ** n


def test_etale_trivial_product(f9):
    assert etale_gauss(f9, {}, [1, 1], [0, 0]).int_value() == 1  # (-1)*(-1), epsilon = +1
    assert etale_gauss(f9, {}, [], []).int_value() == 1  # n = 0: the empty product


def _subfield_elements(tower, d):
    """(l, absolute trace of h^l) for the subfield F_{q^d}, h = Nr_{n:d}(g)."""
    step = tower.mult_order // (tower.q**d - 1)
    return [(l, _subfield_trace(tower, tower.exp(l * step), tower.f * d))
            for l in range(tower.q**d - 1)]


def test_etale_sign_and_direct_summation(f9):
    # literal sum over A^x = prod F_{q^d}^x, the factors taken as the
    # subfields of F_9 with chi_c(h^l) = zeta_{q^d-1}^(c*l)
    ring = ring_for(f9)
    N, p = f9.mult_order, f9.p
    for parts, exps in [((1, 1), (1, 0)), ((1, 1), (1, 1)), ((2, 1), (3, 1)), ((2,), (5,))]:
        acc = ring.zero()
        for points in itertools.product(*(_subfield_elements(f9, d) for d in parts)):
            expo = 0
            for d, c, (l, t) in zip(parts, exps, points):
                expo += p * c * l * (N // (f9.q**d - 1)) + N * t
            acc = acc + ring.zeta_pow(expo)
        sign = (-1) ** (sum(parts) - len(parts))
        assert etale_gauss(f9, {}, parts, exps) == (acc if sign > 0 else -acc)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_etale_field_equals_split(p, f):
    # A = F_{q^2} and A' = F_q x F_q inside one degree-2 tower: the
    # character chi_c o Nr of A and (chi_c, chi_c) of A' have the same
    # divisor, and their signed sums agree for every c and every twist k
    T = build_tower(p, f, 2)
    q = T.q
    tables = {}
    for c in range(q - 1):
        for k in range(q - 1):
            field = etale_gauss(T, tables, [2], [(c + k) * (q + 1)])
            split = etale_gauss(T, tables, [1, 1], [c + k, c + k])
            assert field == split


def test_etale_arity_mismatch(f9):
    with pytest.raises(ArgumentError, match="one exponent per factor"):
        etale_gauss(f9, {}, [1, 1], [0])
    with pytest.raises(ArgumentError):
        etale_gauss(f9, {}, [3], [0])  # 3 does not divide n = 2


# ---------------------------------------------------------------------------
# Hasse-Davenport and the tensor RHS


@pytest.mark.parametrize("p,f,m", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 1, 2), (3, 1, 4)])
def test_hasse_davenport(p, f, m):
    T = build_tower(p, f, m)
    assert hasse_davenport_check(T, range(T.q - 1)) == []


def test_hasse_davenport_builds_one_base_table(monkeypatch):
    built = []
    init = GaussTable.__init__

    def counting_init(self, tower, d=None, **kw):
        built.append(d)
        init(self, tower, d, **kw)

    monkeypatch.setattr(GaussTable, "__init__", counting_init)
    T = build_tower(13, 1, 2)
    assert hasse_davenport_check(T, range(T.q - 1)) == []
    assert built.count(1) == 1  # one subfield table, not one per exponent


def test_hasse_davenport_trivial_any_degree():
    for m in (2, 3, 4, 5):
        T = build_tower(2, 1, m)
        assert hasse_davenport_check(T, [0]) == []


def test_subfield_sum_matches_whole_field(f9):
    # degree-n subfield sum with h = g reproduces the plain table
    tab = gauss_table(f9)
    for c in range(8):
        assert subfield_gauss_sum(f9, 2, c) == tab.element(c)


@pytest.mark.parametrize("p,f,n,d", [
    (3, 1, 2, 1),
    (2, 1, 4, 1),
    (2, 1, 4, 2),
    (3, 1, 3, 1),  # p divides n/d
    (2, 2, 2, 1),  # f > 1
    (2, 1, 6, 2),
    (2, 1, 6, 3),
])
def test_subfield_table_matches_element_loop(p, f, n, d):
    T = build_tower(p, f, n)
    Nd = T.q**d - 1
    tab = GaussTable(T, d)
    orbits = {frozenset(c * p**k % Nd for k in range(f * d)) for c in range(Nd)}
    assert tab.S.shape[0] == len(orbits)  # one row per p-orbit of Z/(q^d - 1)
    for c in range(Nd):
        expected = _subfield_sum_loop(T, d, c)
        assert tab.element(c) == expected
        assert subfield_gauss_sum(T, d, c) == expected


def test_subfield_table_rejects_non_divisor(f9):
    with pytest.raises(ArgumentError):
        GaussTable(f9, 3)
    with pytest.raises(ArgumentError):
        subfield_gauss_sum(f9, 0, 1)


def test_tensor_rhs_m1_consistency(f9, f25):
    for T in (f9, f25):
        for e in range(T.mult_order):
            c = MultChar(T, e)
            if not c.is_regular():
                continue
            for k in range(T.q - 1):
                assert tensor_gamma_rhs(T, T.n, 1, e, k) == gamma_n_by_1(c, k)


def test_tensor_rhs_q2_single_case():
    T = build_tower(2, 1, 2)
    assert tensor_gamma_rhs(T, 2, 1, 1, 0) == gamma_n_by_1(MultChar(T, 1), 0)


def test_tensor_rhs_reads_exponents_on_the_one_tower():
    # (n, m) = (3, 2) over F_3: chi_c o Nr_{6:3} * eta_k o Nr_{6:2} has the
    # exponent c*(q^6-1)/(q^3-1) + k*(q^6-1)/(q^2-1) on the degree-6 tower
    T = build_tower(3, 1, 6)
    NN = T.mult_order
    for c, k in [(1, 1), (2, 5), (25, 0)]:
        E = c * (NN // 26) + k * (NN // 8)
        sign = (-1) ** (2 * 2) * (-1) ** (c * 1 + k * 2)
        want = gauss_S(MultChar(T, -E))
        assert tensor_gamma_rhs(T, 3, 2, c, k) == ScaledCyclo(want if sign > 0 else -want, 3, 3)


def test_tensor_rhs_rejects_bad_degrees(f9):
    with pytest.raises(ArgumentError):
        tensor_gamma_rhs(f9, 1, 2, 1, 1)  # n <= m
    with pytest.raises(ArgumentError):
        tensor_gamma_rhs(f9, 3, 1, 1, 1)  # tower degree 2 is not 3*1


def test_composed_exponent_identity(f81):
    # chi_e on F_9, indexed against h = Nr_{4:2}(g), composed with the norm
    # is the exponent e * (q^4 - 1)/(q^2 - 1) on F_81: check it at every x,
    # with Nr(x) = x * x^9 and its log against h found by walking h's powers
    h = f81.norm_rel(f81.g, 2)
    log_h, y = {}, 1
    for l in range(8):
        log_h[y] = l
        y = f81.mul(y, h)
    assert len(log_h) == 8  # h generates F_9^x
    ring = ring_for(f81)
    scale = f81.mult_order // 8
    for e in range(8):
        for x in range(1, f81.order):
            l = log_h[f81.mul(x, f81.pow(x, 9))]
            assert value_at(f81, e * scale, x) == ring.zeta_pow(ring.m // 8 * e * l)


@pytest.mark.parametrize("p,f,n", [(3, 1, 4), (2, 1, 6), (5, 2, 2), (2, 2, 3)])
def test_orbit_table_matches_single_sums(p, f, n):
    T = build_tower(p, f, n)
    N = T.mult_order
    tab = GaussTable(T)
    orbits = {frozenset(e * p**k % N for k in range(f * n)) for e in range(N)}
    assert tab.S.shape[0] == len(orbits)  # one row per p-orbit
    for e in range(N):
        assert tab.row_of[e] == tab.row_of[p * e % N]
        assert tab.element(e) == _single_sum(T, e)
    es = [N - 1, -1, 0, 7 % N]
    assert [tab.key(a) == tab.key(b) for a in es for b in es] == \
        [tab.element(a) == tab.element(b) for a in es for b in es]


def _ids_match_keys(ids, keys):
    """value ids number the keys: equal ids exactly when equal keys, first seen first."""
    ids = list(ids)
    assert all((ids[i] == ids[j]) == (keys[i] == keys[j])
               for i in range(len(keys)) for j in range(len(keys)))
    assert ids == [ids[keys.index(k)] for k in keys]
    firsts = [ids.index(i) for i in range(len(set(ids)))]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("p,f,n", [(3, 1, 4), (2, 1, 8), (3, 1, 6), (5, 2, 2)])
def test_value_ids_are_exact(p, f, n):
    tab = GaussTable(build_tower(p, f, n))
    keys = [canonical_key(row) for row in tab.S]
    _ids_match_keys(tab.value_id.tolist(), keys)
    assert np.array_equal(tab.value_id, ring_value_ids(tab))
    # distinct orbits share sums here, so the ids are not just row numbers
    assert len(set(keys)) < len(keys)
    N = tab.mult_order
    assert [tab.key(e) for e in range(N)] == \
        [tab.value_id[keys.index(canonical_key(tab.element(e).coeffs))] for e in range(N)]


def test_value_ids_take_the_tuple_tier_past_2_62():
    big = 1 << 63
    rows = np.array([[big, 1], [1, big], [big, 1], [3, 1], [3, 1], [-big, 1], [big + 1, 1]],
                    dtype=object)
    keys = [canonical_key(row) for row in rows]
    assert isinstance(keys[0], tuple) and isinstance(keys[3], bytes)
    ids = {}
    assert value_ids(rows, ids).tolist() == [0, 1, 0, 2, 2, 3, 4]
    _ids_match_keys(value_ids(rows).tolist(), keys)
    # a shared dict numbers equal values alike whatever their dtype or tier
    assert value_ids(np.array([[3, 1], [5, 5]], dtype=np.int64), ids).tolist() == [2, 5]
    assert value_ids(np.array([[-big, 1]], dtype=object), ids).tolist() == [3]
    assert value_ids(np.zeros((0, 2), dtype=np.int64)).tolist() == []


# the scan-ladder fields, a subfield table (d < n) on each side of p | n/d,
# and f = 2
ROUTE_FIELDS = [
    (2, 1, 10, 10), (3, 1, 6, 6), (5, 1, 4, 4), (7, 1, 3, 3), (2, 1, 11, 11), (3, 1, 7, 7),
    (2, 1, 12, 12), (2, 1, 12, 4), (3, 1, 6, 2), (5, 2, 2, 2), (2, 2, 3, 1),
]


def _recomputed(T, d, tab, position):
    """The histograms of GaussTable(T, d), one row per orbit minimum, with
    the count of zeta^e in column position[e]."""
    ring, N, Nd = tab.ring, T.mult_order, tab.mult_order
    reps = np.unique(tab.row_of, return_index=True)[1]  # the orbit minima
    offsets = N * T.subfield_traces(T.f * d) % ring.m
    return _accel.gauss_counts(T.p, ring.m, offsets, position=position, exps=reps * (N // Nd))


def _row_arrays(tab):
    """The names of the table's attributes that hold a matrix of rows."""
    return sorted(k for k, v in vars(tab).items() if isinstance(v, np.ndarray) and v.ndim > 1)


@pytest.mark.parametrize("p,f,n,d", ROUTE_FIELDS)
def test_table_matches_the_power_basis_route(p, f, n, d):
    """The integer ids, and those of the Z[zeta_m] oracle, number the rows
    exactly as the keys of their recomputed tensor coordinates and of the
    power-basis rows do, and S, built on first read, is those rows: the
    plain-order histograms reduced by one `reduce_matrix` call.  The table
    holds no matrix of rows but S."""
    T = build_tower(p, f, n)
    tab = GaussTable(T, d)
    ring = tab.ring
    want = ring.reduce_matrix(_recomputed(T, d, tab, np.arange(ring.m)))
    coords = ring.reduce_tensor(_recomputed(T, d, tab, ring.tensor_position))
    assert np.array_equal(ring.from_powerful(coords), want)
    assert np.array_equal(ring_value_ids(tab), value_ids(coords))
    assert np.array_equal(tab.value_id, value_ids(coords))
    assert np.array_equal(tab.value_id, value_ids(want))
    assert _row_arrays(tab) == []
    assert tab.S.dtype == want.dtype and np.array_equal(tab.S, want)
    assert _row_arrays(tab) == ["S"]


def _counting_gauss_counts(monkeypatch):
    """Wrap `_accel.gauss_counts`; the list returned collects the number of
    rows of each call."""
    calls, counts = [], _accel.gauss_counts

    def counting(*args, exps, **kwargs):
        calls.append(len(exps))
        return counts(*args, exps=exps, **kwargs)

    monkeypatch.setattr(_accel, "gauss_counts", counting)
    return calls


def test_tables_compute_only_what_is_read(monkeypatch):
    """A table computes no row until it is read; readers of sums never build
    ids, and `key` computes no row at all."""
    calls = _counting_gauss_counts(monkeypatch)
    T = build_tower(3, 1, 6)
    tab = GaussTable(T)
    assert calls == [] and "value_id" not in vars(tab) and "S" not in vars(tab)
    tab.rows([5, 7])
    assert "value_id" not in vars(tab) and "S" not in vars(tab)
    tab.element(5)
    assert "S" in vars(tab) and "value_id" not in vars(tab)
    calls.clear()
    tab = GaussTable(T)
    tab.key(5)
    assert calls == [] and "value_id" in vars(tab) and "S" not in vars(tab)


@pytest.mark.parametrize("p,f,n,d", [(3, 1, 6, 6), (2, 1, 12, 4), (5, 2, 2, 2), (2, 2, 3, 1)])
def test_rows_are_the_rows_of_S(monkeypatch, p, f, n, d):
    """`rows(exps)` is S[row_of[exps]] in values and dtype, for any exponents
    (repeated, negative, past q^d - 1, sharing orbits), and computes each
    orbit it reads once."""
    T = build_tower(p, f, n)
    want = GaussTable(T, d)
    Nd = want.mult_order
    exps = [1, 5, 1, -1, Nd + 5, 0, p % Nd, Nd - 2]
    calls = _counting_gauss_counts(monkeypatch)
    got = want.rows(exps)
    assert sum(calls) == len(set(want.row_of[np.array(exps) % Nd].tolist()))
    assert got.dtype == want.S.dtype and np.array_equal(got, want.S[want.row_of[np.array(exps) % Nd]])
    assert want.rows([]).shape == (0, want.ring.phi)


def _scaling_coordinates(monkeypatch, scaled_rows):
    """Make GaussTable._coordinates return Python ints, times 2^62, on the
    given rows: the blocks that hold them come back as object arrays."""
    coordinates = GaussTable._coordinates

    def scaled(self, rows):
        out = coordinates(self, rows)
        hit = np.isin(rows, scaled_rows)
        if hit.any():
            out = out.astype(object)
            out[hit] *= 2**62
        return out

    monkeypatch.setattr(GaussTable, "_coordinates", scaled)


@pytest.mark.parametrize("p,f,n,d", [(2, 1, 10, 10), (2, 1, 12, 4), (5, 2, 2, 2)])
def test_row_blocks_match_one_block(monkeypatch, p, f, n, d):
    """Tables read in one-row blocks and in blocks of three rows (a ragged
    last block) have the value ids, S and rows of the default build, in
    values and dtype, and so has the Z[zeta_m] oracle of the ids.  One
    block of Python ints (rows 3 to 5) turns S and every rows() call that
    reads it into Python ints, exactly, and the oracle's ids still number
    the exact values."""
    T = build_tower(p, f, n)
    want = GaussTable(T, d)
    R = len(want.value_id)
    assert R % 3 != 0
    exps = np.flatnonzero(np.isin(want.row_of, [0, 4, R - 1]))
    scaled = want.S.astype(object)
    scaled[3:6] *= 2**62
    for rows in (None, 1, 3):
        if rows is not None:
            monkeypatch.setattr(gauss, "_BLOCK_BYTES", rows * 8 * want.ring.m)
            tab = GaussTable(T, d)
            assert tab.value_id.dtype == want.value_id.dtype
            assert np.array_equal(tab.value_id, want.value_id)
            assert np.array_equal(ring_value_ids(tab), want.value_id)
            assert tab.S.dtype == want.S.dtype and np.array_equal(tab.S, want.S)
            got = GaussTable(T, d).rows(exps)
            assert got.dtype == want.S.dtype and np.array_equal(got, want.S[want.row_of[exps]])
        with monkeypatch.context() as patched:
            _scaling_coordinates(patched, [3, 4, 5])
            tab = GaussTable(T, d)
            assert tab.S.dtype == object and np.array_equal(tab.S, scaled)
            assert np.array_equal(ring_value_ids(tab), value_ids(scaled))
            got = GaussTable(T, d).rows(exps)
            assert got.dtype == object and np.array_equal(got, scaled[want.row_of[exps]])
            got = GaussTable(T, d).rows(exps[want.row_of[exps] != 4])  # no scaled row read
            assert got.dtype == np.int64


@pytest.mark.parametrize("digest", [lambda key: 0, lambda key: hash(key) & 0xFF],
                         ids=["constant", "low-byte"])
@pytest.mark.parametrize("p,f,n,d", ROUTE_FIELDS + [(3, 1, 4, 4), (2, 1, 8, 8), (2, 3, 2, 2),
                                     (2, 3, 2, 1), (2, 1, 6, 1)])
def test_value_ids_survive_digest_collisions(monkeypatch, p, f, n, d, digest):
    """In the Z[zeta_m] oracle, rows whose digests meet are compared exactly,
    so a digest that collides on every row, or on most of them, changes
    neither the id partition nor the first-seen numbering: the oracle still
    reads the table's integer ids, at f = 1, 2 and 3 and on subfields of
    one element (q^d - 1 = 1) too."""
    T = build_tower(p, f, n)
    want = GaussTable(T, d).value_id
    monkeypatch.setattr(reference, "_digest", digest)
    assert np.array_equal(ring_value_ids(GaussTable(T, d)), want)


def _peak_above_kept(build):
    """build(), the traced heap it left allocated, and how far the heap
    peaked, during it, above that."""
    tracemalloc.start()
    try:
        out = build()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, now, peak - now


def test_table_transient_is_bounded():
    """At (2,12), a table and its ids keep under 256 KiB and peak less than
    4 MiB above that, so they hold neither the (R, m) histograms nor the
    (R, phi) coordinates of all R rows, nor the keys of all their values.
    The first read of S peaks less than 4 MiB above the S it keeps."""
    T = build_tower(2, 1, 12)
    GaussTable(T).S  # the ring's maps and table, which every later table shares
    tab, kept, over = _peak_above_kept(lambda: GaussTable(T))
    assert "value_id" not in vars(tab)
    _, ids_kept, ids_over = _peak_above_kept(lambda: tab.value_id)
    assert len(tab.value_id) * tab.ring.m * 8 > 16 << 20  # whole histograms: 22 MiB
    assert len(tab.value_id) * tab.ring.phi * 8 > 4 << 20  # whole coordinates: 4.6 MiB
    assert kept + ids_kept < 256 << 10
    assert max(over, kept + ids_over) < 4 << 20
    S, kept, over = _peak_above_kept(lambda: tab.S)
    assert kept >= S.nbytes and over < 4 << 20
