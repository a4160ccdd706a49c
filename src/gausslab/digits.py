"""Base-p digit calculus for exponents mod p^n - 1 (prime base only).

An exponent class e mod p^n-1 expands to digits (d_1, ..., d_n) with
e = sum d_i p^(i-1); indexing is cyclic (d_{j+n} = d_j).  The zero class is
formally ambiguous (all-0 and all-(p-1) both represent it): `expand` returns
all zeros by default, which matches ord(S(trivial)) = ord(-1) = 0.  The
carry arithmetic of adding a positive multiple of (p^n-1)/(p-1) lands on the
all-(p-1) representative instead, so the digit-sum drop identity is checked
through `digit_sum_shifted`, which uses zero_rep="full" on the shifted class.

Scalars: digit_sum (s) of one digit vector and its shifted form, the
p-free factorial N!', and Gamma_p at a non-negative integer.  The carry
graphs read one digit vector.  Every other statistic reads a digit table
(`digit_table`, one row per exponent) and is one array: s is the row sum,
t = prod d_i! mod p is `factorial_residues`, V_m, the cyclic
windowed-factorial product mod p^(m+1), is `window_products`, and
`cyclic_runs` gives the start and length of the one cyclic run that the
places of a digit value may form.

The one Gauss-sum key: `product_labels` numbers signed products of
subfield Gauss sums, and their twists by the characters of F_q^x through
the norm, by their exact values from integers alone, the Stickelberger
valuations at every prime above p and the Gross-Koblitz unit residue
(`unit_residues`).  A single sum is a product of one factor.
`twist_classes` is its partition of characters by all their twists, and
`refine` is the block-by-block grouping it rests on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chars import orbit_minima
from .errors import ArgumentError
from .numth import is_prime, k_hat, prime_divisors


@dataclass(frozen=True)
class DigitVector:
    p: int
    n: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != self.n:
            raise ArgumentError("digit count must equal n")
        if any(d < 0 or d >= self.p for d in self.digits):
            raise ArgumentError("digits must lie in [0, p)")


def expand(p: int, n: int, e: int, zero_rep: str = "zero") -> DigitVector:
    """Digit expansion of the class of e mod p^n - 1.

    zero_rep selects the representative of the ambiguous zero class:
    "zero" -> all zeros, "full" -> all p-1.
    """
    if not is_prime(p):
        raise ArgumentError(f"digit base {p} must be prime")
    N = p**n - 1
    e %= N
    if e == 0 and zero_rep == "full":
        e = N
    digits = []
    for _ in range(n):
        digits.append(e % p)
        e //= p
    return DigitVector(p, n, tuple(digits))


def digit_sum(v: DigitVector) -> int:
    return sum(v.digits)


def digit_sum_shifted(p: int, n: int, e: int, k: int) -> int:
    """s(e + k-hat) with the carry-faithful representative of the zero class.

    Adding a positive k-hat to a nonzero class can only reach the zero class
    through the all-(p-1) digit vector, so that representative is used.
    """
    shifted = (e + k_hat(p, n, k)) % (p**n - 1)
    rep = "full" if (shifted == 0 and k > 0) else "zero"
    return digit_sum(expand(p, n, shifted, zero_rep=rep))


_PRIME_FREE_TABLES: dict[tuple[int, int], list[int]] = {}


def _prime_free_prefix(N: int, p: int, modulus: int) -> list[int]:
    """The prefix-product table of (p, modulus), entry k = k!' mod
    `modulus`, extended to hold at least k <= N and kept until the CLI call
    that built it ends.  Every caller asks for a window value or a gamma
    argument below modulus = p^(m+1), so a table never holds more than
    p^(m+1) entries."""
    table = _PRIME_FREE_TABLES.setdefault((p, modulus), [1, 1])
    for i in range(len(table), N + 1):
        table.append(table[-1] * i % modulus if i % p else table[-1])
    return table


def prime_free_factorial(N: int, p: int, modulus: int) -> int:
    """N!' = product of i <= N coprime to p, reduced mod `modulus`."""
    return _prime_free_prefix(N, p, modulus)[N] if N >= 2 else 1


def padic_gamma_int(x: int, p: int, modulus: int) -> int:
    """Gamma_p at a non-negative integer: (-1)^x prod_{0<j<x, p !| j} j."""
    if x < 0:
        raise ArgumentError("integer gamma argument must be non-negative")
    out = prime_free_factorial(x - 1, p, modulus) if x >= 2 else 1
    if x % 2:
        out = modulus - out if out else 0
    return out % modulus


# ---------------------------------------------------------------------------
# the a-th directed carry graph


@dataclass(frozen=True)
class DigitGraph:
    """Directed edges k -> k+1 (cyclic, 0-based positions) plus the core."""

    a: int
    n: int
    edges: frozenset[tuple[int, int]]
    core: frozenset[int]


def carry_graph(v: DigitVector, a: int) -> DigitGraph:
    """Edge rule: d_k >= a and d_{k+1} >= a-1 gives k -> k+1; a chain of
    digits equal to a-1 extends an edge only if one arrives from the left.
    Digits below a-1 carry no edges.  The core collects the (weak) components
    containing a vertex >= a.
    """
    if not 1 <= a <= v.p - 1:
        raise ArgumentError(f"threshold {a} outside [1, p-1]")
    n, d = v.n, v.digits
    direct = set()
    for k in range(n):
        if d[k] >= a and d[(k + 1) % n] >= a - 1:
            direct.add((k, (k + 1) % n))
    # chained rule: propagate forward from direct edges through a-1 runs
    edges = set(direct)
    changed = True
    while changed:
        changed = False
        for k in range(n):
            k1 = (k + 1) % n
            if (k, k1) not in edges and d[k] == a - 1 == d[k1]:
                if ((k - 1) % n, k) in edges:
                    edges.add((k, k1))
                    changed = True
    # weak components
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, k1 in edges:
        rk, rk1 = find(k), find(k1)
        if rk != rk1:
            parent[rk] = rk1
    core = set()
    marked = {find(k) for k in range(n) if d[k] >= a}
    for k in range(n):
        if find(k) in marked:
            core.add(k)
    return DigitGraph(a=a, n=n, edges=frozenset(edges), core=frozenset(core))


def core_vertex_count(v: DigitVector, a: int) -> int:
    """v_a: number of vertices in the core of the a-th carry graph."""
    return len(carry_graph(v, a).core)


# ---------------------------------------------------------------------------
# digit tables: the statistics above, one row per exponent


def digit_table(p: int, n: int, exps) -> np.ndarray:
    """The digits of every exponent of `exps` mod p^n - 1, one row each: row
    i is `expand(p, n, exps[i]).digits` (the zero class reads all zeros)."""
    e = np.asarray(exps, dtype=np.int64) % (p**n - 1)
    return e[:, None] // p ** np.arange(n, dtype=np.int64) % p


def factorial_residues(p: int, table: np.ndarray) -> np.ndarray:
    """t = prod d_i! mod p of every row of a digit table (each d_i < p, so
    the factorials are p-free)."""
    fact = np.array([math.factorial(d) % p for d in range(p)], dtype=np.int64)
    out = np.ones(len(table), dtype=np.int64)
    for column in table.T:
        out = out * fact[column] % p
    return out


def window_products(p: int, table: np.ndarray, m: int) -> np.ndarray:
    """V_m = prod over places i of (window at i)!', mod p^(m+1), the cyclic
    windowed-factorial product of every row of a digit table."""
    if m < 0:
        raise ArgumentError("window width must be >= 0")
    modulus = p ** (m + 1)
    # the window at place i reads d_i + d_{i+1} p + ... + d_{i+m} p^m, cyclically
    windows = sum(np.roll(table, -j, axis=1) * p**j for j in range(m + 1))
    top = int(windows.max(initial=0))
    factorials = np.array(_prime_free_prefix(top, p, modulus)[:top + 1], dtype=np.int64)
    out = np.ones(len(table), dtype=np.int64)
    for column in windows.T:
        out = out * factorials[column] % modulus
    return out


def cyclic_runs(table: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic run of each row's own value: (0-based start, length) where
    the places of a row holding its value form one cyclic run, (0, n) where
    every digit is that value, length 0 otherwise."""
    n = table.shape[1]
    places = table == np.asarray(values)[:, None]
    count = places.sum(axis=1)
    # a run starts where the digit before it differs; d[-1] precedes d[0]
    starts = places & ~np.roll(places, 1, axis=1)
    one = starts.sum(axis=1) == 1
    start = np.where(one, starts.argmax(axis=1), 0)
    return start, np.where(one | (count == n), count, 0)


# ---------------------------------------------------------------------------
# twist signatures from Stickelberger valuations and the Gross-Koblitz unit

# Key columns compared per refinement step: a step holds (rows, KEY_COLUMNS)
# arrays, never one column per coset and twist for every row.
KEY_COLUMNS = 64


def refine(rows: int, blocks) -> np.ndarray:
    """Class labels of `rows` rows, equal for two rows exactly when they
    agree on every key block, numbered in first-seen order.

    `blocks` yields functions; each maps the ascending indices of the rows
    that still share their class with another row to those rows' next key
    columns, a (len(alive), k) integer array.  Rows are split block by
    block, only inside classes that still have more than one member, and no
    block is asked for once every class is a single row.
    """
    labels = np.zeros(rows, dtype=np.int64)
    alive, local, top = np.arange(rows), labels.copy(), 0
    for block in blocks:
        if len(alive) < 2:
            break
        columns = np.ascontiguousarray(block(alive))
        # one byte string per row: its class so far, then its block
        key = np.concatenate([local.view(np.uint8).reshape(len(alive), -1),
                              columns.view(np.uint8).reshape(len(alive), -1)], axis=1)
        _, local, counts = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                     return_inverse=True, return_counts=True)
        local = local.astype(np.int64).ravel()
        labels[alive] = top + local
        top += len(counts)
        multi = counts[local] > 1
        alive, local = alive[multi], local[multi]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()]


def unit_residues(p: int, d: int, a) -> np.ndarray:
    """U(a) = prod_{i<d} Gamma_p(<p^i a / N>), N = p^d - 1, mod p (mod 4 at
    p = 2), for every exponent of the integer array `a`.

    The fraction c/N, c = p^i a mod N, is read as the integer c * N^-1 mod
    p^k: k = 1 for odd p, where Gamma_p mod p depends on its argument mod p,
    and k = 3 at p = 2, where Gamma_2 mod 4 needs its argument mod 8.
    """
    N = p**d - 1
    read, mod = (8, 4) if p == 2 else (p, p)
    gamma = np.array([padic_gamma_int(x, p, mod) for x in range(read)], dtype=np.int64)
    scale = pow(N, -1, read)
    c = np.asarray(a, dtype=np.int64) % N
    out = np.ones_like(c)
    for _ in range(d):
        out = out * gamma[c % read * scale % read] % mod
        c = c * p % N
    return out


def digit_sum_table(p: int, d: int) -> np.ndarray:
    """s(c), the base-p digit sum over d digits, for every c in [0, p^d - 1)."""
    s = np.zeros(1, dtype=np.min_scalar_type(d * (p - 1)))
    for _ in range(d):
        s = (s[:, None] + np.arange(p, dtype=s.dtype)).ravel()  # c = p * (c // p) + c % p
    return s[:-1]


def _coset_reps(p: int, d: int, N: int) -> np.ndarray:
    """The smallest member of each coset of <p> in (Z/N)^x, p^d = 1 mod N,
    ascending, so u = 1 comes first: one per prime above p of Q(zeta_N)."""
    unit = np.ones(N, dtype=bool)
    for ell in prime_divisors(N):
        unit[::ell] = False
    u = np.flatnonzero(unit)
    return u[orbit_minima(N, p, d, u) == u]


def twist_classes(p: int, f: int, n: int, exps) -> list[list[int]]:
    """`exps`, characters of F_{q^n}^x with q = p^f, partitioned by the exact
    Gauss sums of their twists by every eta_k o Nr, k < q - 1
    (`product_labels`): classes in first-seen order, members in input order."""
    exps = np.asarray(exps, dtype=np.int64)
    labels = product_labels(p, f, [(1, (n,), exps[:, None])], p**f - 1)
    classes: list[list[int]] = [[] for _ in range(int(labels.max(initial=-1)) + 1)]
    for e, label in zip(exps.tolist(), labels.tolist()):
        classes[label].append(e)
    return classes


def product_labels(p: int, f: int, products, twists: int = 1) -> np.ndarray:
    """Labels of signed products sign * prod_i S_i(chi_{c_i}) of Gauss sums
    over subfields F_{q^(d_i)}, q = p^f, by their exact values at each of
    the twists by eta_k o Nr, k < `twists`: equal labels exactly for equal
    products at every twist, numbered in first-seen order.

    `products` lists (sign, parts, exps) triples: one shape of product, the
    degrees d_i, and an (rows, len(parts)) array of its exponents c_i, each
    indexed against the norm of one common generator, so every factor is
    omega_d^-a, a = -c, for the Teichmueller character of one p-adic
    embedding.  Rows number the products of all triples in order.  The twist
    by eta_k o Nr adds k (q^d_i - 1)/(q - 1) to each c_i.

    With a = -c mod q^d - 1, Gross-Koblitz gives S(chi_c) = -pi^s(a) U(a)
    in the p-adic embedding (see `padic`), s the base-p digit sum over f d
    digits.  So with M = lcm(q^d_i - 1), a product has valuation
    sum_i s(u * a_i mod (q^d_i - 1)) at the prime of each coset
    representative u of <p> in (Z/M)^x, and its unit is sign *
    prod_i (-U(a_i)), mod p (mod 4 at p = 2).  Two products are equal
    exactly when both agree: their quotient is then a unit at every prime
    above p, of absolute value 1 at every complex place, hence a root of
    unity, and one in Z_p (mu_{p-1}, or +-1 at p = 2), where those roots are
    told apart by the residue mod p (mod 4).

    Rows are grouped by the units of all twists first, KEY_COLUMNS twists a
    block, then split by blocks of valuation columns, one block per coset
    block and twist (`refine`).
    """
    q = p**f
    degrees = sorted({d for _, parts, _ in products for d in parts})
    M = math.lcm(*(q**d - 1 for d in degrees))
    cosets = _coset_reps(p, f * math.lcm(*degrees), M)
    # valuations stay below f * (p - 1) * (the largest sum of degrees), units below p
    top = f * (p - 1) * max(sum(parts) for _, parts, _ in products)
    vtype = np.min_scalar_type(top)
    sums = {d: digit_sum_table(p, f * d).astype(vtype, copy=False) for d in degrees}
    u_of = {d: cosets % (q**d - 1) for d in degrees}
    mod = 4 if p == 2 else p
    groups = [(sign, parts, -np.asarray(exps, dtype=np.int64).reshape(-1, len(parts))
               % [q**d - 1 for d in parts]) for sign, parts, exps in products]
    starts = np.cumsum([0] + [len(a) for _, _, a in groups])

    def per_group(key, *args):
        def block(alive):
            cut = np.searchsorted(alive, starts)
            return np.concatenate([key(sign, parts, a[alive[lo:hi] - start], *args)
                                   for (sign, parts, a), lo, hi, start
                                   in zip(groups, cut[:-1], cut[1:], starts)])
        return block

    def twist(parts, a, k):
        """The a_i of the twists by eta_k o Nr, k a twist or an array of
        them: one (rows, twists) array per factor."""
        return [(column - k * ((q**d - 1) // (q - 1))) % (q**d - 1)
                for d, column in zip(parts, a.T[:, :, None])]

    def units(sign, parts, a, ks):
        out = np.full((len(a), len(ks)), sign, dtype=np.int64)
        for d, column in zip(parts, twist(parts, a, ks)):
            out = out * -unit_residues(p, f * d, column) % mod
        return out.astype(vtype)

    def valuations(sign, parts, a, u, k):
        out = 0
        for d, column in zip(parts, twist(parts, a, k)):
            at = column * u_of[d][u]
            at %= q**d - 1  # in place: this int64 array is the largest a block holds
            out = out + sums[d][at]
        return out

    ks = np.arange(twists, dtype=np.int64)
    return refine(int(starts[-1]), itertools.chain(
        (per_group(units, ks[lo:lo + KEY_COLUMNS]) for lo in range(0, twists, KEY_COLUMNS)),
        (per_group(valuations, slice(lo, lo + KEY_COLUMNS), k)
         for lo in range(0, len(cosets), KEY_COLUMNS) for k in range(twists)),
    ))
