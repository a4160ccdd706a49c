"""Base-p digit calculus for exponents mod p^n - 1 (prime base only).

An exponent class e mod p^n-1 expands to digits (d_1, ..., d_n) with
e = sum d_i p^(i-1); indexing is cyclic (d_{j+n} = d_j).  The zero class is
formally ambiguous (all-0 and all-(p-1) both represent it): `expand` returns
all zeros by default, which matches ord(S(trivial)) = ord(-1) = 0.  The
carry arithmetic of adding a positive multiple of (p^n-1)/(p-1) lands on the
all-(p-1) representative instead, so the digit-sum drop identity is checked
through `digit_sum_shifted`, which uses zero_rep="full" on the shifted class.

Statistics: digit_sum (s), digit_factorial_mod_p (t mod p), the p-free
factorial N!', the cyclic windowed-factorial product mod p^(m+1) (V_m),
truncated p-adic gamma values by the digit-window formula as well as by the
direct product definition at integer arguments, and cyclic runs: the start
and length of the one cyclic run that the places of a digit value may form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError
from .numth import is_prime, k_hat


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

    def digit(self, j: int) -> int:
        """Cyclic access, 1-based like the positional expansion."""
        return self.digits[(j - 1) % self.n]


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


def digit_factorial_mod_p(v: DigitVector) -> int:
    """t = prod d_i! mod p (each d_i < p, so the factorials are p-free)."""
    out = 1
    for d in v.digits:
        for k in range(2, d + 1):
            out = out * k % v.p
    return out


def digit_sum_shifted(p: int, n: int, e: int, k: int) -> int:
    """s(e + k-hat) with the carry-faithful representative of the zero class.

    Adding a positive k-hat to a nonzero class can only reach the zero class
    through the all-(p-1) digit vector, so that representative is used.
    """
    shifted = (e + k_hat(p, n, k)) % (p**n - 1)
    rep = "full" if (shifted == 0 and k > 0) else "zero"
    return digit_sum(expand(p, n, shifted, zero_rep=rep))


_PRIME_FREE_TABLES: dict[tuple[int, int], list[int]] = {}


def prime_free_factorial(N: int, p: int, modulus: int) -> int:
    """N!' = product of i <= N coprime to p, reduced mod `modulus`.

    Read from one prefix-product table per (p, modulus), extended on demand
    and kept until the CLI call that built it ends.
    Every caller asks for a window value or a gamma argument below
    modulus = p^(m+1), so a table never holds more than p^(m+1) entries.
    """
    if N < 2:
        return 1
    table = _PRIME_FREE_TABLES.setdefault((p, modulus), [1, 1])
    for i in range(len(table), N + 1):
        table.append(table[-1] * i % modulus if i % p else table[-1])
    return table[N]


def window_value(v: DigitVector, i: int, m: int) -> int:
    """d_i + d_{i+1} p + ... + d_{i+m} p^m with cyclic digits, 1-based i."""
    out = 0
    for j in range(m, -1, -1):
        out = out * v.p + v.digit(i + j)
    return out


def cyclic_window_product(v: DigitVector, m: int) -> int:
    """V_m: prod over i of (window at i)!', mod p^(m+1)."""
    if m < 0:
        raise ArgumentError("window width must be >= 0")
    modulus = v.p ** (m + 1)
    out = 1
    for i in range(1, v.n + 1):
        out = out * prime_free_factorial(window_value(v, i, m), v.p, modulus) % modulus
    return out


def padic_gamma_int(x: int, p: int, modulus: int) -> int:
    """Gamma_p at a non-negative integer: (-1)^x prod_{0<j<x, p !| j} j."""
    if x < 0:
        raise ArgumentError("integer gamma argument must be non-negative")
    out = prime_free_factorial(x - 1, p, modulus) if x >= 2 else 1
    if x % 2:
        out = modulus - out if out else 0
    return out % modulus


def padic_gamma_window(i: int, v: DigitVector, m: int) -> int:
    """Gamma_p(1 - <p^(i-1) e / (p^n-1)>) mod p^(m+1) by the digit window.

    Equals (-1)^(1+w) * w!' where w is the width-(m+1) cyclic window reading
    the digits of p^(i-1) e from their lowest position; since multiplying by
    p rotates digit positions upward, that window starts at index 2-i of e's
    own digits.  The product over all i is start-independent.
    """
    if not 1 <= i <= v.n:
        raise ArgumentError(f"position {i} outside 1..{v.n}")
    modulus = v.p ** (m + 1)
    w = window_value(v, 2 - i, m)
    out = prime_free_factorial(w, v.p, modulus)
    if (1 + w) % 2:
        out = (modulus - out) % modulus
    return out


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
# cyclic runs


def cyclic_run(v: DigitVector, value: int) -> tuple[int, int] | None:
    """(0-based start, length) when the places holding `value` form one
    cyclic run, (0, n) when every digit is `value`, None otherwise."""
    places = [i for i, d in enumerate(v.digits) if d == value]
    if len(places) == v.n:
        return 0, v.n
    # a run starts where the digit before it differs; d[-1] precedes d[0]
    starts = [i for i in places if v.digits[i - 1] != value]
    return (starts[0], len(places)) if len(starts) == 1 else None
