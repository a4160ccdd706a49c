import numpy as np
import pytest

import gausslab.gl2 as gl2
from gausslab.chars import MultChar
from gausslab.cyclo import canonical_key
from gausslab.errors import ArgumentError, FormulaValidationError, ResourceCapError
from gausslab.gauss import gamma_n_by_1
from gausslab.gl2 import (
    CuspidalCharacter,
    bessel,
    bessel_vector,
    gamma_via_bessel,
    gl2_group,
)
from reference import frobenius_orbit, value_at


@pytest.fixture(scope="module")
def G3():
    return gl2_group(3)


@pytest.fixture(scope="module")
def G5():
    return gl2_group(5)


def regular_reps(group):
    out = []
    for e in range(group.tower.mult_order):
        c = MultChar(group.tower, e)
        if c.is_regular() and frobenius_orbit(group.tower, e)[0] == e:
            out.append(c)
    return out


def test_class_structure(G3, G5):
    for G in (G3, G5):
        q = G.q
        assert len(G.classes) == q * q - 1
        assert sum(c.size for c in G.classes) == G.order


def test_class_lookup(G3):
    assert G3.class_of((2, 0, 0, 2)).label == "central"
    assert G3.class_of((2, 1, 0, 2)).label == "central-unipotent"
    assert G3.class_of((1, 0, 0, 2)).label == "split"
    # trace 0, det 1: x^2 + 1 irreducible mod 3
    assert G3.class_of((0, 1, 2, 0)).label == "elliptic"
    with pytest.raises(ArgumentError):
        G3.class_of((1, 1, 1, 1))


def test_q_constraints():
    with pytest.raises(ArgumentError):
        gl2_group(2)
    with pytest.raises(ArgumentError):
        gl2_group(9, max_q=9)  # under its cap: 9 is not prime
    with pytest.raises(ResourceCapError):
        gl2_group(11)
    gl2_group(11, max_q=11)


def test_q_cap_binds_on_cache_hit():
    gl2_group(11, max_q=11)
    with pytest.raises(ResourceCapError, match="max_q = 7"):
        gl2_group(11)
    gl2_group(5)
    with pytest.raises(ResourceCapError, match="max_elements cap 24"):
        gl2_group(5, max_elements=24)


def test_a_raised_max_elements_reaches_the_tower(monkeypatch):
    # F_{1031^2} has 1,062,961 elements, past the default cap; a spy in place
    # of build_tower records the cap the group's tower is built under
    class Stop(Exception):
        pass

    seen = []

    def spy(p, f, n, *, max_elements):
        seen.append((p, f, n, max_elements))
        raise Stop

    monkeypatch.setattr(gl2, "build_tower", spy)
    with pytest.raises(Stop):
        gl2_group(1031, max_q=1031, max_elements=2_000_000)
    assert seen == [(1031, 1, 2, 2_000_000)]


def test_validation_gates_all_regular(G3):
    for c in regular_reps(G3):
        CuspidalCharacter(G3, c)  # raises on any gate failure


def test_rejects_non_regular(G3):
    with pytest.raises(ArgumentError):
        CuspidalCharacter(G3, MultChar(G3.tower, 0))
    with pytest.raises(ArgumentError):
        CuspidalCharacter(G3, MultChar(G3.tower, 4))  # 4 = (q^2-1)/2: chi = chi^q


def test_wrong_table_trips_gate(G3):
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    pi.values[1] = -pi.values[1]
    with pytest.raises(FormulaValidationError):
        pi._validate()


def test_dimension_and_central_values(G3):
    q = G3.q
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    idm = pi.value_at((1, 0, 0, 1))
    assert idm.int_value() == q - 1
    # central character: chi_pi(zI)/chi_pi(I) = chi(z)
    for z in (1, 2):
        ratio_lhs = pi.value_at((z, 0, 0, z))
        rhs = value_at(G3.tower, 1, z).scale(q - 1)
        assert ratio_lhs == rhs


def test_bessel_identity_is_one(G3, G5):
    for G in (G3, G5):
        for c in regular_reps(G)[:3]:
            b = bessel(CuspidalCharacter(G, c), (1, 0, 0, 1))
            assert b.int_value() == G.q  # q * B(I) = q


def test_bessel_left_right_equivariance(G3):
    # B(u1 g u2) = psi(u1 u2) B(g) on random unipotent triples
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    q, N = G3.q, G3.tower.mult_order
    base = (0, 1, 2, 0)
    for x1 in range(q):
        for x2 in range(q):
            a, b, c, d = base
            left = (a + x1 * c, b + x1 * d, c, d)
            both = (left[0], (left[0] * x2 + left[1]) % q, left[2], (left[2] * x2 + left[3]) % q)
            lhs = bessel(pi, tuple(v % q for v in both))
            rhs = G3.ring.zeta_pow(N * (x1 + x2)) * bessel(pi, base)
            assert lhs == rhs


def test_bessel_direct_average_oracle(G3):
    # recompute B on antidiag(1, a) by the literal 3-term average
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 2))
    q, N = G3.q, G3.tower.mult_order
    for a in (1, 2):
        acc = G3.ring.zero()
        for x in range(q):
            gu = (0, 1, a, (a * x) % q)
            acc = acc + G3.ring.zeta_pow(-N * x) * pi.value_at(gu)
        assert bessel(pi, (0, 1, a, 0)) == acc


def test_gamma_cross_check_q3(G3):
    for c in regular_reps(G3):
        pi = CuspidalCharacter(G3, c)
        for k in range(G3.q - 1):
            assert gamma_via_bessel(pi, k) == gamma_n_by_1(c, k)


def test_equivalent_characters_same_representation(G3):
    a = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    b = CuspidalCharacter(G3, MultChar(G3.tower, 3))
    assert all(x == y for x, y in zip(a.values, b.values))
    assert bessel_vector(a) == bessel_vector(b)


def test_bessel_vectors_separate(G3, G5):
    for G in (G3, G5):
        seen = {}
        for c in regular_reps(G):
            v = bessel_vector(CuspidalCharacter(G, c))
            assert v not in seen
            seen[v] = c.e


def test_bessel_mirabolic_support(G3):
    # B vanishes on mirabolic elements [[a, b], [0, 1]] with a != 1
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    for a in (2,):
        for b in range(3):
            assert bessel(pi, (a, b, 0, 1)).is_zero()


def test_fourier_duality(G3):
    # gamma values and the restricted Bessel vector determine each other:
    # sum_k gamma(pi, k) tau_k^{-1}(a) = (q-1) * B([[0,1],[a,0]]) exactly
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    q = G3.q
    for a in (1, 2):
        acc = G3.ring.zero()
        for k in range(q - 1):
            g = gamma_via_bessel(pi, k)
            # g = num / q^{1 - (-power)}: reconstruct numerator at scale q
            scaled = g.num
            for _ in range(1 - g.power):
                scaled = scaled.scale(q)
            acc = acc + scaled * G3.tau((q - 1 - k) % (q - 1), a)
        expect = bessel(pi, (0, 1, a, 0)).scale(q - 1)
        assert acc == expect


# -- gate strength: the batched products against the per-class loop ----------


def reference_inner(G, mine, theirs):
    """|G| <mine, theirs>, one ring product per class."""
    acc = G.ring.zero()
    for c, a, b in zip(G.classes, mine, theirs):
        acc = acc + (a * b.conj()).scale(c.size)
    return acc


def reference_borel(G, c1, c2):
    """Character of Ind from the Borel of the torus character (c1, c2)."""
    q = G.q
    out = []
    for c in G.classes:
        if c.label == "central":
            z = c.params[0]
            out.append((G.tau(c1, z) * G.tau(c2, z)).scale(q + 1))
        elif c.label == "central-unipotent":
            z = c.params[0]
            out.append(G.tau(c1, z) * G.tau(c2, z))
        elif c.label == "split":
            a, b = c.params
            out.append(G.tau(c1, a) * G.tau(c2, b) + G.tau(c1, b) * G.tau(c2, a))
        else:
            out.append(G.ring.zero())
    return out


def assert_products_match_reference(G, pi):
    others = [pi.values, [G.ring.one()] * len(G.classes)]
    got = pi._gate_products()
    assert got.shape == (len(others), G.ring.phi)
    for row, other in zip(got, others):
        assert canonical_key(row) == reference_inner(G, pi.values, other).key


@pytest.mark.parametrize("q", [3, 5])
def test_batched_gate_products_match_per_class_loop(q):
    G = gl2_group(q)
    rng = np.random.default_rng(q)
    for c in regular_reps(G):
        pi = CuspidalCharacter(G, c)
        assert_products_match_reference(G, pi)
    # a table of random ring elements: every product is generic, none vanishes
    pi.values = [G.ring.element(rng.integers(-3, 4, G.ring.m)) for _ in G.classes]
    assert_products_match_reference(G, pi)
    got = pi._gate_products()
    assert np.all(np.any(got != 0, axis=1))


def jacquet_tables(G, rng):
    """(name, class-ordered table, whether every Jacquet sum vanishes)."""
    ring = G.ring
    labels = [c.label for c in G.classes]
    tables = [(f"cuspidal {c.e}", CuspidalCharacter(G, c).values, True) for c in regular_reps(G)]
    tables.append(("random", [ring.element(rng.integers(-3, 4, ring.m)) for _ in labels], False))
    tables += [(f"principal series {c}", reference_borel(G, *c), False) for c in [(0, 1), (1, 1)]]
    tampered = list(tables[0][1])
    i = labels.index("central-unipotent")
    tampered[i] = -tampered[i]
    tables.append(("tampered central-unipotent", tampered, False))
    # passes the Jacquet gate without being a character: J(a, a) =
    # (q-1) z + (q-1) * (-z) = 0 and split values 0, whatever the elliptic values
    z = [ring.element(rng.integers(-3, 4, ring.m)) for _ in range(G.q - 1)]
    impostor = []
    for c in G.classes:
        if c.label == "central":
            impostor.append(z[c.params[0] - 1].scale(G.q - 1))
        elif c.label == "central-unipotent":
            impostor.append(-z[c.params[0] - 1])
        elif c.label == "split":
            impostor.append(ring.zero())
        else:
            impostor.append(ring.element(rng.integers(-3, 4, ring.m)))
    tables.append(("impostor", impostor, True))
    return tables


@pytest.mark.parametrize("q", [3, 5])
def test_jacquet_sums_are_borel_orthogonality(q):
    # Frobenius reciprocity for any class function chi, value by value:
    # |G| <chi, Ind(c1, c2)> = (q+1) sum_{a,b} J(a, b) conj(tau_c1(a) tau_c2(b))
    G = gl2_group(q)
    ring = G.ring
    pi = CuspidalCharacter(G, regular_reps(G)[0], validate=False)
    diag = [(a, b) for a in range(1, q) for b in range(1, q)]
    for name, values, vanishes in jacquet_tables(G, np.random.default_rng(q)):
        pi.values = values
        J = pi._jacquet_sums()
        assert J.shape == (len(diag), ring.phi), name
        assert (not np.any(J)) == vanishes, name
        for c1 in range(q - 1):
            for c2 in range(q - 1):
                acc = ring.zero()
                for (a, b), row in zip(diag, J):
                    acc = acc + ring.element(row) * (G.tau(c1, a) * G.tau(c2, b)).conj()
                want = reference_inner(G, values, reference_borel(G, c1, c2))
                assert acc.scale(q + 1) == want, (name, c1, c2)
        if name == "impostor":
            with pytest.raises(FormulaValidationError, match="self-inner-product"):
                pi._validate()


def test_bessel_takes_python_ints_above_the_int64_bound(G3):
    # values scaled by 2^60 push every Bessel accumulator past 2^62
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    s = 2**60
    big = CuspidalCharacter(G3, pi.chi, validate=False)
    big.values = [v.scale(s) for v in pi.values]
    for mat in [(1, 0, 0, 1), (0, 1, 2, 0), (2, 1, 0, 1), (1, 2, 1, 0)]:
        small, got = bessel(pi, mat), bessel(big, mat)
        assert small.coeffs.dtype == np.int64 and got.coeffs.dtype == object
        assert got.coeffs.tolist() == (small.coeffs.astype(object) * s).tolist()
    for k in range(G3.q - 1):
        small, got = gamma_via_bessel(pi, k), gamma_via_bessel(big, k)
        assert small.num.coeffs.dtype == np.int64 and got.num.coeffs.dtype == object
        assert got.power == small.power
        assert got.num.coeffs.tolist() == (small.num.coeffs.astype(object) * s).tolist()


def test_gate_products_take_python_ints_above_the_int64_bound(G3):
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    small = pi._gate_products()
    s = 2**40
    pi.values = [v.scale(s) for v in pi.values]
    big = pi._gate_products()  # entries reach |G| * s^2 = 48 * 2^80
    assert big.dtype == object
    assert big.tolist() == (small.astype(object) * s * s).tolist()
    with pytest.raises(FormulaValidationError, match="self-inner-product"):
        pi._validate()


@pytest.mark.parametrize("q", [3, 5])
def test_principal_series_table_trips_cuspidality_gate(q):
    # Ind(theta_0 x theta_1) is irreducible of dimension q + 1, has unit norm
    # and is orthogonal to the trivial character: only the cuspidality gate
    # sees it, at J(1, 1) = (q+1) + (q-1) * 1
    G = gl2_group(q)
    pi = CuspidalCharacter(G, regular_reps(G)[0], validate=False)
    pi.values = reference_borel(G, 0, 1)
    assert pi.value_at((1, 0, 0, 1)).int_value() == q + 1
    got = pi._gate_products()
    assert got[0].tolist() == [G.order] + [0] * (G.ring.phi - 1)
    assert not np.any(got[1])
    with pytest.raises(FormulaValidationError, match=r"cuspidality gate failed at diag\(1,1\)"):
        pi._validate()


@pytest.mark.parametrize("label", ["central", "central-unipotent", "split", "elliptic"])
def test_tampering_one_class_of_each_label_trips_a_gate(G3, G5, label):
    for G in (G3, G5):
        i = next(i for i, c in enumerate(G.classes) if c.label == label)
        zeta = G.ring.zeta_pow(G.tower.mult_order)  # psi(1), a unit of norm 1
        base = CuspidalCharacter(G, regular_reps(G)[0])
        for tamper in (lambda v: -v, lambda v: v * zeta, lambda v: v + G.ring.one()):
            new = tamper(base.values[i])
            if new == base.values[i]:  # split values are 0: only the shift moves them
                continue
            pi = CuspidalCharacter(G, base.chi, validate=False)
            pi.values[i] = new
            with pytest.raises(FormulaValidationError):
                pi._validate()
