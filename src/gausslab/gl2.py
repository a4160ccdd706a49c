"""GL2(F_q) oracle: cuspidal characters, Bessel functions, gamma factors.

Everything here is independent of the Gauss-sum machinery except the shared
cyclotomic ring, so the exact agreement of `gamma_via_bessel` with
`gauss.gamma_n_by_1` is a genuine two-route check of the n x 1 gamma-factor
formula at n = 2.

The cuspidal character values are an external classical input (the q - 1
dimensional discrete series attached to a regular character chi of
F_{q^2}^x):

    chi_pi(z I)              = (q-1) chi(z)
    chi_pi(z * unipotent)    = -chi(z)
    chi_pi(diag(a,b), a!=b)  = 0
    chi_pi(elliptic t)       = -(chi(t) + chi(t)^q)

Because this table is imported knowledge, a constructed character is gated
before use: dimension, unit self-inner-product, orthogonality to the
trivial character, and cuspidality.  A character is cuspidal when its
Jacquet sums J(a, b) = sum_x chi_pi([[a, x], [0, b]]) over the unipotent
radical of the Borel all vanish; by Frobenius reciprocity
|G| <chi_pi, Ind(c1, c2)> = (q+1) sum_{a,b} J(a, b) conj(tau_c1(a) tau_c2(b)),
so that is orthogonality to every Borel-induced character.  A wrong table
cannot silently poison the cross-check; it raises FormulaValidationError.

q is restricted to odd primes (default cap 7): conjugacy classes of 2x2
matrices are resolved by the discriminant of the characteristic polynomial,
and group sums stay exhaustive and exact.

Every value here is a sum of canonical rows times monomials zeta_m^s
(characters of F_q, F_{q^2} and psi are all monomials).  Sums therefore
accumulate as exponent histograms in the group ring Z[x]/(x^m - 1), where a
monomial factor is a cyclic shift, and are reduced mod Phi_m once per batch;
accumulators are int64 only under a certified bound and Python ints above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chars import MultChar, ring_for
from .cyclo import _I64_SAFE, CycloElement, canonical_key
from .errors import ArgumentError, FormulaValidationError, ResourceCapError
from .ff import DEFAULT_MAX_ELEMENTS, build_tower, check_field
from .gauss import ScaledCyclo

DEFAULT_MAX_Q = 7


def _acc_dtype(bound: int):
    """int64 when `bound` caps every partial sum of an accumulator, else
    Python ints."""
    return np.int64 if bound < _I64_SAFE else object


def _add_shifted(acc: np.ndarray, rows: np.ndarray, shifts: np.ndarray) -> None:
    """acc[b] += rows[b] * x^shifts[b] in Z[x]/(x^m - 1), m = acc.shape[1].

    `acc` is C-contiguous (a fresh array or a slice of whole rows of one);
    `rows` is (B, L) with L <= m.  Within one row the target
    positions are distinct, so the fancy-indexed add is exact.
    """
    B, m = acc.shape
    idx = (np.arange(rows.shape[1]) + np.asarray(shifts)[:, None]) % m
    idx += np.arange(0, B * m, m)[:, None]
    flat = acc.view()
    flat.shape = (B * m,)  # raises rather than copy a non-contiguous acc
    flat[idx] += rows


@dataclass(frozen=True)
class GL2Class:
    """One conjugacy class of GL2(F_q)."""

    label: str  # "central" | "central-unipotent" | "split" | "elliptic"
    params: tuple  # (z,) | (z,) | (a, b) with a < b | (dlog t,)
    size: int


class GL2Group:
    """Conjugacy data of GL2(F_q) for odd prime q, with class lookup by
    (trace, det) and the quadratic-residue table of F_q.

    The class tables the batched sums read (sizes, the classes of the
    Borel elements [[a,x],[0,b]], the cuspidal formula as sparse group-ring
    terms) are built once per group, on first use.  Build through
    `gl2_group`, which validates q.
    """

    def __init__(self, q: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS):
        self.q = q
        self.tower = build_tower(q, 1, 2, max_elements=max_elements)
        self.ring = ring_for(self.tower)  # the conductor cap, before any O(q^2) work
        self.order = (q * q - 1) * (q * q - q)
        self.classes: list[GL2Class] = []
        for z in range(1, q):
            self.classes.append(GL2Class("central", (z,), 1))
        for z in range(1, q):
            self.classes.append(GL2Class("central-unipotent", (z,), q * q - 1))
        for a in range(1, q):
            for b in range(a + 1, q):
                self.classes.append(GL2Class("split", (a, b), q * (q + 1)))
        N = self.tower.mult_order
        elliptic_seen = set()
        self._elliptic_by_trdet: dict[tuple[int, int], int] = {}
        for d in range(1, N):
            if d % (q + 1) == 0:  # t lies in F_q
                continue
            if d in elliptic_seen:
                continue
            dq = d * q % N
            elliptic_seen.update({d, dq})
            t = self.tower.exp(d)
            tr = self.tower.add(t, self.tower.frobenius(t))
            det = self.tower.exp(d * (q + 1))
            self.classes.append(GL2Class("elliptic", (d,), q * q - q))
            self._elliptic_by_trdet[(tr, det)] = d
        assert len(self.classes) == q * q - 1
        assert sum(c.size for c in self.classes) == self.order
        self._sqrt = {x * x % q: x for x in range(q)}
        self._index = {(c.label, c.params): i for i, c in enumerate(self.classes)}
        # base-field discrete logs against h = Nr(g), the pinned generator
        h = self.tower.norm_rel(self.tower.g, 1)
        self.h = h
        self._dlog_base = np.zeros(q, dtype=np.int64)  # entry 0 unused
        acc = 1
        for i in range(q - 1):
            self._dlog_base[acc] = i
            acc = acc * h % q

    def class_index(self, mat: tuple[int, int, int, int]) -> int:
        """Index into `classes` of (a, b, c, d) = [[a, b], [c, d]] over Z/q."""
        q = self.q
        a, b, c, d = (x % q for x in mat)
        det = (a * d - b * c) % q
        if det == 0:
            raise ArgumentError("matrix is singular")
        tr = (a + d) % q
        disc = (tr * tr - 4 * det) % q
        if disc == 0:
            z = tr * pow(2, q - 2, q) % q
            if b == 0 and c == 0 and a == d:
                return self._index["central", (z,)]
            return self._index["central-unipotent", (z,)]
        if disc in self._sqrt:
            s = self._sqrt[disc]
            inv2 = pow(2, q - 2, q)
            x, y = (tr + s) * inv2 % q, (tr - s) * inv2 % q
            return self._index["split", (min(x, y), max(x, y))]
        return self._index["elliptic", (self._elliptic_by_trdet[(tr, det)],)]

    def class_of(self, mat: tuple[int, int, int, int]) -> GL2Class:
        """Conjugacy class of (a, b, c, d) = [[a, b], [c, d]] over Z/q."""
        return self.classes[self.class_index(mat)]

    def tau_exponent(self, k: int, a):
        """Exponent s with tau_k(a) = zeta_m^s, for a in F_q^x (int or array)."""
        q = self.q
        return q * (q + 1) * k * self._dlog_base[np.asarray(a) % q] % self.ring.m

    def tau(self, k: int, a: int) -> CycloElement:
        """k-th multiplicative character of F_q^x against the generator h."""
        if a % self.q == 0:
            raise ArgumentError("tau is a character of F_q^x; it is undefined at 0")
        return self.ring.zeta_pow(int(self.tau_exponent(k, a)))

    # -- class tables of the batched sums ------------------------------------

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([c.size for c in self.classes], dtype=np.int64)

    @cached_property
    def borel_classes(self) -> np.ndarray:
        """((q-1)^2, q) class indices of [[a,x],[0,b]]: row (a-1)*(q-1) + b-1,
        column x."""
        q = self.q
        return np.array(
            [[self.class_index((a, x, 0, b)) for x in range(q)]
             for a in range(1, q) for b in range(1, q)],
            dtype=np.intp,
        )

    @cached_property
    def cuspidal_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(dlogs, coefs), both (C, 2): the cuspidal character of chi takes
        the value sum_t coefs[c, t] * chi(g^dlogs[c, t]) on class c."""
        q, N = self.q, self.tower.mult_order
        dlogs = np.zeros((len(self.classes), 2), dtype=np.int64)
        coefs = np.zeros_like(dlogs)
        for i, c in enumerate(self.classes):
            if c.label == "central":
                dlogs[i, 0], coefs[i, 0] = self.tower.dlog(c.params[0]), q - 1
            elif c.label == "central-unipotent":
                dlogs[i, 0], coefs[i, 0] = self.tower.dlog(c.params[0]), -1
            elif c.label == "elliptic":
                d = c.params[0]
                dlogs[i] = d, d * q % N
                coefs[i] = -1, -1
        return dlogs, coefs


def gl2_group(
    q: int, max_q: int = DEFAULT_MAX_Q, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> GL2Group:
    """The group GL2(F_q), built after its caps are checked."""
    # the caps bind before primality, so no q above them is trial-divided
    if q > max_q:
        raise ResourceCapError(f"q = {q} exceeds the GL2 cap max_q = {max_q}")
    check_field(q, 2, max_elements)
    if q == 2:
        raise ArgumentError(f"GL2 oracle needs an odd prime q, got {q}")
    return GL2Group(q, max_elements=max_elements)


# ---------------------------------------------------------------------------
# cuspidal characters


class CuspidalCharacter:
    """Exact class function of the cuspidal representation attached to a
    regular character of F_{q^2}^x, validated on construction.

    `values` is the class-ordered table every gate and Bessel sum reads; the
    restricted Bessel histograms are derived from it on first use.
    """

    def __init__(self, group: GL2Group, chi: MultChar, validate: bool = True):
        if chi.tower is not group.tower:
            raise ArgumentError("character must live on the group's degree-2 tower")
        if not chi.is_regular():
            raise ArgumentError(f"exponent {chi.e} is not regular (chi = chi^q)")
        self.group = group
        self.chi = chi
        ring = group.ring
        dlogs, coefs = group.cuspidal_terms
        # chi(g^d) = zeta_m^(q*e*d)
        hist = np.zeros((len(group.classes), ring.m), dtype=np.int64)
        np.add.at(hist, (np.arange(len(hist))[:, None], group.q * chi.e * dlogs % ring.m), coefs)
        self.values: list[CycloElement] = [CycloElement(ring, r) for r in ring.reduce_matrix(hist)]
        if validate:
            self._validate()

    def value_at(self, mat: tuple[int, int, int, int]) -> CycloElement:
        return self.values[self.group.class_index(mat)]

    def _rows(self) -> tuple[np.ndarray, int]:
        """The value table as a (C, phi) matrix and its largest |coefficient|."""
        V = np.stack([v.coeffs for v in self.values])
        return V, int(np.abs(V).max(initial=0))

    # -- validation gates ---------------------------------------------------

    def _gate_products(self) -> np.ndarray:
        """|G| <self, other> for other = self (row 0) and the trivial
        character (row 1), as canonical rows.

        One pass over the classes accumulates both rows in the group ring,
        mine_c * conj(mine_c) as a convolution and mine_c * 1 as the row
        itself; the accumulator is reduced once.
        """
        g = self.group
        ring = g.ring
        m, phi = ring.m, ring.phi
        V, vmax = self._rows()
        # a class adds at most size * |mine|_1 * max|mine| to row 0, and
        # size * max|mine| to row 1
        dtype = _acc_dtype(g.order * phi * vmax * vmax)
        V = V.astype(dtype)
        W = g.sizes.astype(dtype)[:, None] * V
        acc = np.zeros((2, m), dtype=dtype)
        conj_pos = (np.arange(2 * phi - 1) - (phi - 1)) % m  # exponents of v * conj(v)
        for c in range(len(V)):
            acc[0, conj_pos] += np.convolve(W[c], V[c][::-1])
        acc[1, :phi] = W.sum(axis=0)
        return ring.reduce_matrix(acc)

    def _jacquet_sums(self) -> np.ndarray:
        """J(a, b) = sum_x chi([[a, x], [0, b]]) in row (a-1)*(q-1) + b-1, as
        canonical rows: a sum of canonical rows needs no reduction."""
        g = self.group
        V, vmax = self._rows()
        return V.astype(_acc_dtype(g.q * vmax))[g.borel_classes].sum(axis=1)

    def _validate(self) -> None:
        """Every gate, on `values`.  The inner-product gates and the
        cuspidality gate (every Jacquet sum vanishes) run before the
        dimension gate, so the table of an irreducible non-cuspidal
        character fails on the first Jacquet sum J(a, b) it leaves nonzero."""
        g = self.group
        q = g.q
        products = self._gate_products()
        if products[0, 0] != g.order or np.any(products[0, 1:]):
            raise FormulaValidationError("self-inner-product gate failed")
        if np.any(products[1]):
            raise FormulaValidationError("orthogonality-to-trivial gate failed")
        bad = np.flatnonzero(np.any(self._jacquet_sums() != 0, axis=1))
        if len(bad):
            a, b = divmod(int(bad[0]), q - 1)
            raise FormulaValidationError(f"cuspidality gate failed at diag({a + 1},{b + 1})")
        dim = self.values[g.class_index((1, 0, 0, 1))]
        if not (dim.is_integer() and dim.int_value() == q - 1):
            raise FormulaValidationError("dimension gate failed")

    def _bessel_hists(self, mats) -> np.ndarray:
        """(len(mats), m) group-ring histograms of q * B(g), one row per
        g = (a, b, c, d) in `mats`, unreduced."""
        g = self.group
        q, m = g.q, g.ring.m
        V, vmax = self._rows()
        # gamma_via_bessel adds q-1 rows of q terms each
        V = V.astype(_acc_dtype(q * (q - 1) * vmax))
        cls = [g.class_index((a, a * x + b, c, c * x + d)) for a, b, c, d in mats for x in range(q)]
        shifts = np.tile(-g.tower.mult_order * np.arange(q), len(mats))  # psi(-x)
        hist = np.zeros((len(cls), m), dtype=V.dtype)
        _add_shifted(hist, V[cls], shifts)
        return hist.reshape(len(mats), q, m).sum(axis=1)

    @cached_property
    def _antidiag_bessel(self) -> np.ndarray:
        """Histograms of q * B([[0,1],[a,0]]), row a-1."""
        return self._bessel_hists([(0, 1, a, 0) for a in range(1, self.group.q)])


# ---------------------------------------------------------------------------
# Bessel functions and gamma factors


def bessel(pi: CuspidalCharacter, mat: tuple[int, int, int, int]) -> CycloElement:
    """q * B(g), exact: B(g) = q^{-1} sum_x psi(-x) chi_pi(g * [[1, x], [0, 1]])."""
    ring = pi.group.ring
    return CycloElement(ring, ring.reduce_vector(pi._bessel_hists([mat])[0]))


def gamma_via_bessel(pi: CuspidalCharacter, k: int) -> ScaledCyclo:
    """gamma(pi x tau_k, psi) = sum_a B_pi([[0,1],[a,0]]) tau_k(a) exactly."""
    g = pi.group
    q, ring = g.q, g.ring
    if not 0 <= k < q - 1:
        raise ArgumentError(f"twist index {k} outside [0, {q - 1})")
    H = pi._antidiag_bessel
    hist = np.zeros_like(H)
    _add_shifted(hist, H, g.tau_exponent(k, np.arange(1, q)))
    return ScaledCyclo(CycloElement(ring, ring.reduce_vector(hist.sum(axis=0))), 1, q)


def bessel_vector(pi: CuspidalCharacter) -> tuple:
    """Restricted Bessel values (q*B on [[0,1],[a,0]], a in F_q^x), as keys."""
    return tuple(canonical_key(r) for r in pi.group.ring.reduce_matrix(pi._antidiag_bessel))
