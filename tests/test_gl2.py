import numpy as np
import pytest

from gausslab.chars import MultChar
from gausslab.cyclo import canonical_key
from gausslab.errors import ArgumentError, FormulaValidationError, ResourceCapError
from gausslab.gauss import gamma_n_by_1
from gausslab.gl2 import (
    CuspidalCharacter,
    bessel,
    bessel_at_identity,
    bessel_vector,
    gamma_via_bessel,
    gl2_group,
)


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
        if c.is_regular() and c.orbit_rep() == e:
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
        gl2_group(9)
    with pytest.raises(ResourceCapError):
        gl2_group(11)
    gl2_group(11, max_q=11)


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
        rhs = MultChar(G3.tower, 1).value_at(z).scale(q - 1)
        assert ratio_lhs == rhs


def test_bessel_identity_is_one(G3, G5):
    for G in (G3, G5):
        for c in regular_reps(G)[:3]:
            b = bessel_at_identity(CuspidalCharacter(G, c))
            assert b.num.int_value() == G.q  # q * B(I) = q


def test_bessel_left_right_equivariance(G3):
    # B(u1 g u2) = psi(u1 u2) B(g) on random unipotent triples
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 1))
    q = G3.q
    base = (0, 1, 2, 0)
    for x1 in range(q):
        for x2 in range(q):
            a, b, c, d = base
            left = (a + x1 * c, b + x1 * d, c, d)
            both = (left[0], (left[0] * x2 + left[1]) % q, left[2], (left[2] * x2 + left[3]) % q)
            lhs = bessel(pi, tuple(v % q for v in both)).num
            rhs = G3.psi(x1 + x2) * bessel(pi, base).num
            assert lhs == rhs


def test_bessel_direct_average_oracle(G3):
    # recompute B on antidiag(1, a) by the literal 3-term average
    pi = CuspidalCharacter(G3, MultChar(G3.tower, 2))
    q = G3.q
    for a in (1, 2):
        acc = G3.ring.zero()
        for x in range(q):
            gu = (0, 1, a, (a * x) % q)
            acc = acc + G3.psi(-x) * pi.value_at(gu)
        assert bessel(pi, (0, 1, a, 0)).num == acc


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
            assert bessel(pi, (a, b, 0, 1)).num.is_zero()


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
        expect = bessel(pi, (0, 1, a, 0)).num.scale(q - 1)
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
    q = G.q
    others = [pi.values, [G.ring.one()] * len(G.classes)]
    others += [reference_borel(G, c1, c2) for c1 in range(q - 1) for c2 in range(q - 1)]
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
    # and is orthogonal to the trivial character: only the Borel gate sees it
    G = gl2_group(q)
    pi = CuspidalCharacter(G, regular_reps(G)[0], validate=False)
    pi.values = reference_borel(G, 0, 1)
    assert pi.value_at((1, 0, 0, 1)).int_value() == q + 1
    got = pi._gate_products()
    assert got[0].tolist() == [G.order] + [0] * (G.ring.phi - 1)
    assert not np.any(got[1])
    with pytest.raises(FormulaValidationError, match=r"cuspidality gate failed against Borel character \(0,1\)"):
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
