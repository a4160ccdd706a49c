"""Truncated arithmetic in W(F_{p^n})[pi]/(pi^(p-1) + p) and the
Stickelberger / Gross-Koblitz verifiers.

The ring: elements are polynomials in the uniformizer pi of degree < p-1
whose coefficients live in the unramified ring W = Z_p[x]/(M~), M~ the
integer lift of the field tower's modulus, truncated at p^K.  The relation
pi^(p-1) = -p makes v(pi) = 1, v(p) = p-1 in pi-units.  An element is its
(p-1, n) integer array of coordinates, pi-degree major, entries in [0, p^K).

The ring factors as Z/p^K[pi]/(pi^(p-1) + p) tensor W, and the two lifts
the embedding needs lie one in each factor: zeta_p in Z_p[pi], teich(g) in
W.  Both are computed as multiplication matrices, from the two generator
matrices of `RamifiedContext`, and every product goes through
`_matmul_mod`.

Pinned choices (they select the prime over p that the whole artifact uses):

* the Teichmueller lift of the tower generator g fixes the unramified part,
  so the character chi_e literally reduces to x -> x^e on the residue field;
* zeta_p is the unique p-th root of unity congruent to 1 + pi mod pi^2
  (for p = 2, pi = -2 and zeta_2 = -1 = 1 + pi exactly).

Under this joint pinning the classical statements hold verbatim:
ord S(omega^{-k}) = s(k), the unit congruence -t(k)^{-1} (zeta_p - 1)^{s(k)},
and S(omega^a) = (-1)^n p^n pi^(-s(a)) prod Gamma_p(1 - <p^i a/(p^n-1)>).

Precision: a sweep works at K = n + r + 1 p-adic digits, r the digits it
reads after its pi-shift (`_sweep_precision`, which holds the derivation).
Every valuation a sweep reads is at most n(p-1) pi-units, below the floor
(p-1)K, and its pi-shift leaves K - n digits of residue.  Valuations that
reach the floor read as unknown, never as a comparison of truncated zeros.

The embedding never passes through Z[zeta_m].  It sends zeta_m^v to
zeta_p^t teich(g)^k, t = v N^-1 mod p and k = v p^-1 mod N, so a sum is
read from its histogram over (t, k) alone: one product with the table of
teich(g)^k, k < N, gives a W-coordinate row per t, and one product with the
table of zeta_p^t, t < p, combines them.  S(chi_e) counts the j < N by
(Tr g^j, e j mod N), an `_accel.gauss_counts` histogram, computed only at
the orbit minima of e -> p e, since S(chi_pe) = S(chi_e).

The verifiers work on whole sweeps: each Gauss sum a sweep needs is
embedded once per p-orbit, and valuations and pi-shifts act on the
resulting integer array, once per orbit, before they are spread back over
the exponents.  The digit statistics they compare against are
arrays over one digit table of the sweep's exponents: s and t, and the
Gamma_p product by the digit-window route (`digits.window_products` with
its sign) and by the direct route (Gamma_p at the integer argument of
every p^i e, each distinct argument evaluated once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, digits
from .chars import orbit_minima
from .cyclo import _I64_SAFE, CycloElement
from .errors import ArgumentError, PrecisionError, ResourceCapError
from .ff import FieldTower
from .gauss import _BLOCK_BYTES

_I64_LIMIT = 1 << 63  # |partial sums| of an int64 product stay below this

# The most histogram terms (orbits x N: one per j < N for each orbit's sum)
# one sweep counts.  The histograms cost O(terms) and the teich(g) product
# after them O(terms * p * n), so this bounds a sweep's time where the
# field-size cap does not: (2,13) and (3,8) count about 5.2 and 5.5 million
# terms, (2,16) 270 million.
MAX_HISTOGRAM_TERMS = 1 << 24

# The largest modulus p^(window+1) a Gross-Koblitz comparison reads.  The
# Gamma_p values come from a prefix table of that many p-free factorials,
# and its products stay in int64 (below 2^40).
MAX_WINDOW_MODULUS = 1 << 20


def _sweep_precision(n: int, read: int) -> int:
    """The precision K, in p-adic digits, of a sweep over F_{p^n} that reads
    `read` digits of each residue after its pi-shift: n + read + 1.

    Every Gauss sum S has v(S) <= n(p-1) in pi-units, because
    S * conj(S) = p^n and both factors are integral; so does every element
    a sweep reads, p^n itself included, and K >= n + 1 puts each such
    valuation below the floor (p-1)K.  A sweep shifts by s <= n(p-1) - 1:
    with i + s = q(p-1) + j, q <= n, coefficient i of x / pi^s is
    x_j / (-p)^q, known mod p^(K-n) when x is known mod p^K.  So
    K = n + read suffices, and one guard digit is kept beyond it.
    Stickelberger reads pi-degree 0 mod p (read = 1), Gross-Koblitz every
    coordinate mod p^(window+1) (read = window + 1).
    """
    return n + read + 1


class RamifiedContext:
    """Arithmetic context: p, residue degree n, unramified modulus, precision K,
    and the multiplication matrices of the two generators: `pi` on the
    pi-basis, with pi^(p-1) = -p, and `x` on W, the companion matrix of M~."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...], K: int):
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ArgumentError("modulus must be monic of degree n")
        self.p = p
        self.n = n
        self.e = p - 1
        self.K = K
        self.pK = p**K
        self.modulus = tuple(int(c) % self.pK for c in modulus)
        self.prec_floor = (p - 1) * K  # valuations at or beyond this read ">= floor"
        self.pi = _companion((p,) + (0,) * (p - 2), self.pK)
        self.x = _companion(self.modulus[:n], self.pK)

    # -- rows of elements as integer arrays (rows, p-1, n), entries in [0, p^K) --

    def valuations(self, X: np.ndarray) -> list[int | None]:
        """pi-adic valuation of each row, None where the truncation reads >= the floor.

        A pi-coefficient of degree i whose W-coordinates all lie in p^k Z has
        valuation (p-1)k + i; an all-zero coefficient (k reaches K) gives none.
        """
        p, K = self.p, self.K
        vw = np.zeros(X.shape[:2], dtype=np.int64)
        for k in range(1, K + 1):
            divisible = (X % p**k == 0).all(axis=2)
            if not divisible.any():
                break
            vw += divisible
        cand = np.where(vw < K, self.e * vw + np.arange(self.e), self.prec_floor)
        return [int(v) if v < self.prec_floor else None for v in cand.min(axis=1)]

    def shift_down(self, X: np.ndarray, s) -> np.ndarray:
        """x / pi^s for each row x of X, s one shift per row; each row must be
        divisible by pi^s.

        pi^(p-1) = -p, so with i + s = q(p-1) + j the degree-i coefficient of
        x / pi^s is x_j / (-p)^q: one exact division per coordinate, mod p^K.
        """
        t = np.arange(self.e) + np.asarray(s, dtype=np.int64).reshape(-1, 1)
        src = np.take_along_axis(X.astype(object), (t % self.e)[:, :, None], axis=1)
        return src // ((-self.p) ** (t // self.e).astype(object))[:, :, None] % self.pK


def _companion(low, modulus: int) -> np.ndarray:
    """Multiplication by t on Z/modulus[t]/(t^d + low[d-1] t^(d-1) + ... + low[0]):
    row i is t * t^i, so t^(d-1) goes to -low."""
    d = len(low)
    C = np.zeros((d, d), dtype=np.int64 if modulus < _I64_SAFE else object)
    C[:-1, 1:] = np.identity(d - 1, dtype=C.dtype)
    C[-1] = [-int(c) % modulus for c in low]
    return C


# ---------------------------------------------------------------------------
# canonical lifts, as multiplication matrices


def teichmuller(ctx: RamifiedContext, residue_vec) -> np.ndarray:
    """The (n, n) matrix of multiplication on W by the unique root of
    y^(p^n) = y lifting the residue (zero excluded).

    A lift right mod p^j, j >= 1, is teich * (1 + p^j z), and its p^n-th
    power teich * (1 + p^j z)^(p^n) is right mod p^(j+n): each step
    T <- T^(p^n) fixes n more p-adic digits, so T is right mod p^K after
    ceil((K-1)/n) steps and the next one finds it stable.  Row 0 of T holds
    the lift's W-coordinates.
    """
    if not any(int(c) % ctx.p for c in residue_vec):
        raise ArgumentError("Teichmueller lift of zero is not defined")
    one = np.identity(ctx.n, dtype=ctx.x.dtype)
    T = 0 * one
    for c in reversed(residue_vec):  # Horner in the companion matrix
        T = (_matmul_mod(T, ctx.x, ctx.pK) + int(c) % ctx.pK * one) % ctx.pK
    for _ in range(-(-ctx.K // ctx.n) + 2):
        T2 = _matpow_mod(T, ctx.p**ctx.n, ctx.pK)
        if (T2 == T).all():
            return T
        T = T2
    raise PrecisionError("Teichmueller iteration did not stabilize")  # pragma: no cover


def zeta_p_lift(ctx: RamifiedContext) -> np.ndarray:
    """The (p-1, p-1) matrix of multiplication by the p-th root of unity with
    zeta_p = 1 + pi mod pi^2 (Dwork pinning); zeta_p lies in Z_p[pi], so it
    does not depend on n.

    zeta_p = 1 + pi*u with u = 1 mod pi a root of
    G(u) = u^(p-1) - 1 - sum_{1<k<p} (C(p,k)/p) (pi*u)^(k-1), which is
    Phi_p(1 + pi*u) / (-p) since pi^(p-1) = -p.  G'(u) = p - 1 mod pi, so
    Newton needs no division: the inverse w of G'(u) starts at the integer
    inverse of p - 1 and is refined by w <- w(2 - G'(u)w) before each step
    u <- u - G(u)w.  G'(u) is a unit, so Newton is exact in Z/p^K[pi]: the
    iteration runs in `ctx` itself until G, and with it Phi_p, vanishes
    mod p^K, and u is then an exact truncated root.  A step takes
    e = v(G(u)) and f = v(1 - G'(u)w) to at least min(2e, e + 2f) and
    min(2f, e); both start >= 1, so G(u_k) lies in pi^(2^k) and step
    ceil(log2((p-1)K)) is the last one the loop needs.
    """
    p = ctx.p
    if p == 2:
        return np.array([[ctx.pK - 1]], dtype=ctx.pi.dtype)
    pi, mod = ctx.pi, ctx.pK
    one = np.identity(p - 1, dtype=pi.dtype)
    # G(u) = sum_j a[j] u^j, constant term first
    a = ([one * (mod - 1)]
         + [_matmul_mod(one * (-math.comb(p, j + 1) // p % mod), _matpow_mod(pi, j, mod), mod)
            for j in range(1, p - 1)]
         + [one])
    u = one
    w = one * pow(p - 1, -1, mod)
    for _ in range((ctx.e * ctx.K - 1).bit_length() + 1):
        g, dg = a[-1], 0 * one  # Horner for G(u) and G'(u) together
        for c in reversed(a[:-1]):
            dg = (_matmul_mod(dg, u, mod) + g) % mod
            g = (_matmul_mod(g, u, mod) + c) % mod
        if not g.any():
            return (one + _matmul_mod(pi, u, mod)) % mod
        w = _matmul_mod(w, (2 * one - _matmul_mod(dg, w, mod)) % mod, mod)
        u = (u - _matmul_mod(g, w, mod)) % mod
    raise PrecisionError("Newton iteration for zeta_p did not converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# embedding Z[zeta_m] -> the ramified ring


class PadicEmbedding:
    """Ring morphism zeta_{p^n-1} -> teich(g), zeta_p -> Dwork zeta_p.

    Realizes the choice of prime over p: its kernel is reduction mod pi.
    Prime-base towers only (q = p).  K defaults to the Stickelberger
    sweep's precision, `_sweep_precision(n, 1)`.  `zeta_p` and `teich_g`
    hold the multiplication matrices of the two images, and `zeta_powers`
    and `teich_powers` the coordinates of their powers.  Every embedded
    value is a histogram over (t, k), read as sum H[t, k] zeta_p^t teich(g)^k.
    """

    def __init__(self, tower: FieldTower, K: int | None = None):
        if tower.f != 1:
            raise ArgumentError("p-adic embedding requires a prime base field (f = 1)")
        self.tower = tower
        p, n, N = tower.p, tower.n, tower.mult_order
        if K is None:
            K = _sweep_precision(n, 1)
        self.ctx = RamifiedContext(p, n, tower.modulus, K)
        self.teich_g = teichmuller(self.ctx, tower.exp_vec[1 % N].astype(int))  # g = 1 on F_2
        self.zeta_p = zeta_p_lift(self.ctx)
        self.m = p * N

    @cached_property
    def teich_powers(self) -> np.ndarray:
        """(N, n): row k holds the W-coordinates of teich(g)^k."""
        return _powers(self.teich_g, self.tower.mult_order, self.ctx.pK)

    @cached_property
    def zeta_powers(self) -> np.ndarray:
        """(p, p-1): row t holds the pi-coordinates of zeta_p^t."""
        return _powers(self.zeta_p, self.ctx.p, self.ctx.pK)

    @cached_property
    def position(self) -> np.ndarray:
        """Column t*N + k of zeta_m^v, v < m, in the histogram layout:
        zeta_m = zeta_p^(N^-1 mod p) zeta_N^(p^-1 mod N), so zeta_m^v maps
        to zeta_p^t teich(g)^k with t = v N^-1 mod p, k = v p^-1 mod N."""
        p, N = self.ctx.p, self.tower.mult_order
        v = np.arange(self.m, dtype=np.int64)
        return v * pow(N, -1, p) % p * N + v * pow(p, -1, N) % N

    def _combine(self, H: np.ndarray) -> np.ndarray:
        """sum over t, k of H[r, t*N + k] zeta_p^t teich(g)^k for each row r
        of H, as (rows, p-1, n).

        One product with `teich_powers` turns each (r, t) block of H into
        W-coordinates w_rt.  zeta_p^t lies in Z_p[pi] and w_rt in W, so
        their product is an outer product of coordinates, and one product
        with `zeta_powers` sums those over t.
        """
        ctx, N, rows = self.ctx, self.tower.mult_order, len(H)
        p, n = ctx.p, ctx.n
        W = _matmul_mod(H.reshape(rows * p, N), self.teich_powers, ctx.pK)
        W = W.reshape(rows, p, n).transpose(1, 0, 2).reshape(p, rows * n)
        out = _matmul_mod(self.zeta_powers.T, W, ctx.pK)
        if ctx.pK < _I64_SAFE:  # the values fit in int64 even where the product needed Python ints
            out = out.astype(np.int64)
        return out.reshape(p - 1, rows, n).transpose(1, 0, 2)

    def gauss_sums(self, exps) -> np.ndarray:
        """Embedded S(chi_e) for every e of `exps`, (len(exps), p-1, n).

        S(chi_e) = sum_j zeta_N^(e j) zeta_p^(Tr g^j) is zeta_m^v summed
        over v = p e j + N Tr(g^j), so its (t, k) histogram is
        `_accel.gauss_counts` with the trace offsets and `position`.  Rows
        are computed in blocks of about _BLOCK_BYTES of histogram.
        """
        tower, p, m = self.tower, self.ctx.p, self.m
        exps = np.asarray(exps, dtype=np.int64) % tower.mult_order
        offsets = tower.mult_order * tower.subfield_traces(tower.n) % m
        step = max(1, _BLOCK_BYTES // (8 * m))
        return np.concatenate([
            self._combine(_accel.gauss_counts(p, m, offsets, position=self.position,
                                              exps=exps[lo:lo + step]))
            for lo in range(0, len(exps), step)
        ])

    def embed_rows(self, C: np.ndarray) -> np.ndarray:
        """Embed every row of C, power-basis coefficients in Z[zeta_m]: the
        coefficient of zeta_m^k goes to column `position[k]` of a histogram
        row; returns (rows, p-1, n), pi-degree major."""
        H = np.zeros((len(C), self.m), dtype=C.dtype)
        H[:, self.position[:C.shape[1]]] = C
        return self._combine(H)

    def embed(self, elt: CycloElement) -> np.ndarray:
        """sum_k c_k img(zeta_m)^k mod p^K as a (p-1, n) array, by `embed_rows`
        on the one row."""
        if elt.ring.m != self.m:
            raise ArgumentError(
                f"conductor {elt.ring.m} does not match the embedding conductor {self.m}"
            )
        return self.embed_rows(elt.coeffs[None, :])[0]


def _powers(M: np.ndarray, count: int, modulus: int) -> np.ndarray:
    """(count, d): row k holds the coordinates of x^k, M the (d, d) matrix of
    multiplication by x, whose row 0 holds x itself.

    Built by doubling: rows L..2L-1 are rows 0..L-1 times M^L, and M^L is
    squared between steps, so about log2(count) products mod `modulus`.
    int64 while every entry (< modulus) fits with headroom, Python ints
    otherwise.
    """
    dtype = np.int64 if modulus < _I64_SAFE else object
    power = M.astype(dtype)
    rows = np.zeros((count, len(M)), dtype=dtype)
    rows[0, 0] = 1
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        rows[filled:filled + take] = _matmul_mod(rows[:take], power, modulus)
        filled += take
        if filled < count:
            power = _matmul_mod(power, power, modulus)
    return rows


def _matmul_mod(A: np.ndarray, B: np.ndarray, modulus: int) -> np.ndarray:
    """A @ B mod `modulus`, exactly, for integer matrices.

    The product runs in int64 only when (largest row sum of |A|) * max |B|
    < 2^63 bounds every partial sum; otherwise in Python ints.  The row sums
    are only formed where their bound max |A| * (columns of A) does not
    already certify the product, as it does for every reduced factor once
    columns * modulus^2 < 2^63.
    """
    if A.dtype != object and B.dtype != object:
        a_max = max(-int(A.min(initial=0)), int(A.max(initial=0)))
        b_max = max(-int(B.min(initial=0)), int(B.max(initial=0)))
        # the second test keeps the int64 row sums of |A| themselves from wrapping
        if (a_max * A.shape[1] * b_max < _I64_LIMIT
                or a_max * A.shape[1] < _I64_LIMIT
                and int(np.abs(A).sum(axis=1).max(initial=0)) * b_max < _I64_LIMIT):
            return A @ B % modulus
    return A.astype(object) @ B.astype(object) % modulus


def _matpow_mod(A: np.ndarray, k: int, modulus: int) -> np.ndarray:
    """A^k mod `modulus` by square-and-multiply, every product through `_matmul_mod`."""
    out = np.identity(len(A), dtype=A.dtype)
    while k:
        if k & 1:
            out = _matmul_mod(out, A, modulus)
        k >>= 1
        if k:
            A = _matmul_mod(A, A, modulus)
    return out


_EMBED_CACHE: dict[tuple[int, int], tuple[FieldTower, PadicEmbedding]] = {}


def embedding_for(tower: FieldTower, K: int | None = None) -> PadicEmbedding:
    """The embedding of a tower at precision K, built once and cached until
    the CLI call that built the tower ends (a library caller keeps it for
    the life of the process)."""
    key = (id(tower), K if K is not None else -1)
    hit = _EMBED_CACHE.get(key)
    if hit is not None and hit[0] is tower:
        return hit[1]
    emb = PadicEmbedding(tower, K)
    _EMBED_CACHE[key] = (tower, emb)
    return emb


# ---------------------------------------------------------------------------
# theorem verifiers


@dataclass(frozen=True)
class StickelbergerReport:
    p: int
    n: int
    e: int
    s: int
    measured_valuation: int | None
    valuation_ok: bool
    congruence_ok: bool

    @property
    def ok(self) -> bool:
        return self.valuation_ok and self.congruence_ok


def _orbits(tower: FieldTower, exps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p-orbits a sweep's exponents fall in: the orbit minima in
    ascending order, the index of one exponent of each orbit, and the orbit
    of each exponent.  A sweep whose histograms would count more than
    MAX_HISTOGRAM_TERMS terms is refused here, before any table."""
    N = tower.mult_order
    reps, first, inverse = np.unique(orbit_minima(N, tower.p, tower.n, exps),
                                     return_index=True, return_inverse=True)
    if len(reps) * N > MAX_HISTOGRAM_TERMS:
        raise ResourceCapError(
            f"{len(reps)} orbits x {N} terms = {len(reps) * N} histogram terms exceed the "
            f"histogram-term cap {MAX_HISTOGRAM_TERMS}")
    return reps, first, inverse


def _read_orbits(emb: PadicEmbedding, orbits, expected: np.ndarray, modulus: int):
    """The measured valuation of S(chi_e) for every exponent of a sweep, and
    S(chi_e) / pi^expected[i] mod `modulus` where that valuation is
    expected[i] (zeros elsewhere), (len, p-1, n).

    The sums, valuations and pi-shifts are taken once per orbit, at the
    orbit's expected valuation (a digit statistic, equal along the orbit),
    and spread back over the exponents through the inverse index.
    """
    reps, first, inverse = orbits
    X = emb.gauss_sums(reps)
    by_orbit = emb.ctx.valuations(X)
    shift = expected[first]
    at = [o for o, v in enumerate(by_orbit) if v == shift[o]]
    shifted = np.zeros(X.shape, dtype=np.int64)
    if at:
        shifted[at] = emb.ctx.shift_down(X[at], shift[at]) % modulus
    return [by_orbit[o] for o in inverse.tolist()], shifted[inverse]


def stickelberger_check(tower: FieldTower, exponents) -> list[StickelbergerReport]:
    """ord_P S(omega^{-e}) = s(e) and S(omega^{-e}) * t(e) / (zeta_p-1)^s(e) = -1 mod pi,
    one report per exponent.

    zeta_p - 1 = pi * u with u = 1 mod pi, so u^s(e) has residue 1 and the
    residue of S(omega^{-e}) / (zeta_p-1)^s(e) is that of S(omega^{-e}) / pi^s(e).
    """
    p, n, N = tower.p, tower.n, tower.mult_order
    es = [e % N for e in exponents]
    if 0 in es:
        raise ArgumentError("Stickelberger check needs a nontrivial character (e != 0)")
    if not es:
        return []
    orbits = _orbits(tower, [-e for e in es])
    table = digits.digit_table(p, n, es)
    sums = table.sum(axis=1)
    s = sums.tolist()
    measured, shifted = _read_orbits(embedding_for(tower), orbits, sums, p)
    t = digits.factorial_residues(p, table)
    unit = [p - 1] + [0] * (n - 1)
    congruent = (shifted[:, 0, :] * t[:, None] % p == unit).all(axis=1).tolist()
    return [
        StickelbergerReport(
            p=p, n=n, e=e, s=s[i], measured_valuation=measured[i],
            valuation_ok=measured[i] == s[i], congruence_ok=measured[i] == s[i] and congruent[i],
        )
        for i, e in enumerate(es)
    ]


@dataclass(frozen=True)
class GrossKoblitzReport:
    p: int
    n: int
    e: int
    window: int
    gamma_digit_route: int
    gamma_direct_route: int
    routes_agree: bool
    valuation_ok: bool
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return self.routes_agree and self.valuation_ok and self.identity_ok


def gross_koblitz_check(tower: FieldTower, exponents, window: int = 1) -> list[GrossKoblitzReport]:
    """S(omega^e) = (-1)^n p^n pi^(-s(e)) prod_i Gamma_p(1 - <p^i e/(p^n-1)>),
    compared mod p^(window+1) after clearing the common p^n scale, with the
    Gamma product evaluated independently by the digit-window formula and by
    the direct integer product definition; one report per exponent.
    """
    p, n, N = tower.p, tower.n, tower.mult_order
    es = [e % N for e in exponents]
    if 0 in es:
        raise ArgumentError("Gross-Koblitz needs a nontrivial character (e != 0)")
    if window < 0:
        raise ArgumentError(f"window must be >= 0, got {window}")
    if p == 2 and window > 0:
        # Gamma_2 is not 1-Lipschitz: x = y mod 4 does not force
        # Gamma_2(x) = Gamma_2(y) mod 4, so the window routes only certify mod 2.
        raise ArgumentError("for p = 2 the comparison is only valid at window 0")
    # p^(window+1) is compared with the cap without being formed: every
    # power p^k, p >= 2, with k >= the cap's bit length exceeds it
    if p ** min(window + 1, MAX_WINDOW_MODULUS.bit_length()) > MAX_WINDOW_MODULUS:
        raise ResourceCapError(
            f"comparison modulus {p}^{window + 1} exceeds the window cap {MAX_WINDOW_MODULUS}")
    if not es:
        return []
    orbits = _orbits(tower, es)
    mod = p ** (window + 1)
    top = n * (p - 1)
    table = digits.digit_table(p, n, es)
    sums = table.sum(axis=1)
    s = sums.tolist()
    # digit route: the windows of p^i e, i < n, are the n cyclic windows of
    # e's digits, so prod_i (-1)^(1 + w_i) w_i!' = (-1)^(n + sum_i w_i) V_w,
    # and sum_i w_i = s (1 + p + ... + p^w)
    odd = (n + sums * ((p ** (window + 1) - 1) // (p - 1))) % 2
    V = digits.window_products(p, table, window)
    prod_digit = np.where(odd, -V % mod, V).tolist()
    # direct route: Gamma_p(1 - <c/N>), c = p^i e mod N, is Gamma_p at the
    # integer (N - c) N^-1 mod p^(w+1); each distinct argument is evaluated once
    c = np.array(es, dtype=np.int64)[:, None] * [pow(p, i, N) for i in range(n)] % N
    args, where = np.unique((N - c) % mod * pow(N, -1, mod) % mod, return_inverse=True)
    gamma = np.array([digits.padic_gamma_int(x, p, mod) for x in args.tolist()], dtype=np.int64)
    direct = np.ones(len(es), dtype=np.int64)
    for column in gamma[where.reshape(c.shape)].T:
        direct = direct * column % mod
    prod_direct = direct.tolist()

    # under the Dwork pinning the exact identity is
    #   S(omega^e) * pi^s(e) = -pi^(n(p-1)) * prod_i Gamma_p(1 - <p^i e/N>)
    # (the global sign is part of the pinning, not n-dependent), so
    # -S(omega^e) / pi^(n(p-1) - s(e)) is the Gamma product
    measured, shifted = _read_orbits(embedding_for(tower, _sweep_precision(n, window + 1)),
                                     orbits, top - sums, mod)
    want = np.zeros_like(shifted)
    want[:, 0, 0] = prod_digit
    identity = (-shifted % mod == want).all(axis=(1, 2)).tolist()
    return [
        GrossKoblitzReport(
            p=p, n=n, e=e, window=window,
            gamma_digit_route=prod_digit[i], gamma_direct_route=prod_direct[i],
            routes_agree=prod_digit[i] == prod_direct[i],
            valuation_ok=measured[i] == top - s[i],
            identity_ok=measured[i] == top - s[i] and identity[i],
        )
        for i, e in enumerate(es)
    ]
