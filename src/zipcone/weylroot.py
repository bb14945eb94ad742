"""Root datum of the rank-n symplectic similitude group.

Characters are (n+1)-tuples (a_1, ..., a_n | b); the b coordinate pairs to
zero with every coroot and is fixed by the Weyl action.  Weyl elements are
mirror windows: permutations w of {1, ..., 2n} with w(i) + w(2n+1-i) = 2n+1.
Everything is immutable and exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from . import kernels


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class Character:
    """Integer character (a_1, ..., a_n | b)."""

    a: tuple[int, ...]
    b: int = 0

    def __post_init__(self):
        if not all(isinstance(x, int) for x in self.a) or not isinstance(self.b, int):
            raise TypeError("Character entries must be integers")
        object.__setattr__(self, "a", tuple(self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def satisfies_parity(self) -> bool:
        """Whether sum(a_i) and b have the same parity (weight-lattice condition)."""
        return (sum(self.a) - self.b) % 2 == 0

    @classmethod
    def unit(cls, n: int, i: int, b: int = 0) -> "Character":
        """The basis character e_i, optionally with a b coordinate."""
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        return cls(tuple(1 if k == i else 0 for k in range(1, n + 1)), b)

    @classmethod
    def zero(cls, n: int) -> "Character":
        return cls((0,) * n, 0)

    @classmethod
    def parse(cls, text: str) -> "Character":
        a, b = _parse_char_text(text)
        if any(x.denominator != 1 for x in a) or b.denominator != 1:
            raise ValueError(f"character {text!r} has non-integer entries")
        return cls(tuple(int(x) for x in a), int(b))

    def vector(self) -> tuple[int, ...]:
        return self.a + (self.b,)

    def __add__(self, other):
        _check_char_ranks(self, other)
        return Character(tuple(x + y for x, y in zip(self.a, other.a)), self.b + other.b)

    def __sub__(self, other):
        _check_char_ranks(self, other)
        return Character(tuple(x - y for x, y in zip(self.a, other.a)), self.b - other.b)

    def __neg__(self):
        return Character(tuple(-x for x in self.a), -self.b)

    def __rmul__(self, c: int):
        return Character(tuple(c * x for x in self.a), c * self.b)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.a) + "|" + str(self.b)


@dataclass(frozen=True)
class RatCharacter:
    """Rational character; same shape as Character without the parity notion."""

    a: tuple[Fraction, ...]
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @property
    def n(self) -> int:
        return len(self.a)

    @classmethod
    def parse(cls, text: str) -> "RatCharacter":
        a, b = _parse_char_text(text)
        return cls(tuple(Fraction(x) for x in a), Fraction(b))

    def vector(self) -> tuple[Fraction, ...]:
        return self.a + (self.b,)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.a) and self.b.denominator == 1

    def to_integral(self) -> Character:
        if not self.is_integral():
            raise ValueError(f"{self} is not integral")
        return Character(tuple(int(x) for x in self.a), int(self.b))

    def __add__(self, other):
        _check_char_ranks(self, other)
        return RatCharacter(tuple(x + y for x, y in zip(self.a, other.a)), self.b + other.b)

    def __sub__(self, other):
        _check_char_ranks(self, other)
        return RatCharacter(tuple(x - y for x, y in zip(self.a, other.a)), self.b - other.b)

    def __neg__(self):
        return RatCharacter(tuple(-x for x in self.a), -self.b)

    def __rmul__(self, c):
        c = Fraction(c)
        return RatCharacter(tuple(c * x for x in self.a), c * self.b)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.a) + "|" + str(self.b)


AnyCharacter = Union[Character, RatCharacter]


def _parse_char_text(text: str):
    body, sep, tail = text.strip().partition("|")
    if not sep:
        raise ValueError(f"character {text!r} must look like 'a_1,...,a_n|b'")
    try:
        a = [Fraction(part.strip()) for part in body.split(",") if part.strip() != ""]
        b = Fraction(tail.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse character {text!r}: {exc}") from None
    if not a:
        raise ValueError(f"character {text!r} has no a-coordinates")
    return a, b


def _check_char_ranks(x, y):
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} vs {y.n}")


# ---------------------------------------------------------------------------
# roots


class RootKind(Enum):
    DIFF = "diff"  # e_i - e_j
    SUM = "sum"    # e_i + e_j
    LONG = "long"  # 2 e_i


@dataclass(frozen=True)
class Root:
    """A positive root of the rank-n system: e_i - e_j, e_i + e_j or 2 e_i."""

    kind: RootKind
    i: int
    j: int = 0  # 0 for long roots

    def __post_init__(self):
        if self.kind is RootKind.LONG:
            if self.i < 1 or self.j != 0:
                raise ValueError(f"bad long root indices ({self.i}, {self.j})")
        elif not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got ({self.i}, {self.j})")

    @staticmethod
    def diff(i: int, j: int) -> "Root":
        return Root(RootKind.DIFF, i, j)

    @staticmethod
    def sum(i: int, j: int) -> "Root":
        return Root(RootKind.SUM, i, j)

    @staticmethod
    def long(i: int) -> "Root":
        return Root(RootKind.LONG, i)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        order = {RootKind.DIFF: 0, RootKind.SUM: 1, RootKind.LONG: 2}
        return (order[self.kind], self.i, self.j)

    def __lt__(self, other: "Root") -> bool:
        return self.sort_key < other.sort_key

    def check_rank(self, n: int) -> None:
        top = self.j if self.j else self.i
        if top > n:
            raise ValueError(f"root {self} does not fit rank {n}")

    def as_character(self, n: int) -> Character:
        """The root written in the character coordinates (b = 0)."""
        self.check_rank(n)
        a = [0] * n
        if self.kind is RootKind.DIFF:
            a[self.i - 1] = 1
            a[self.j - 1] = -1
        elif self.kind is RootKind.SUM:
            a[self.i - 1] = 1
            a[self.j - 1] = 1
        else:
            a[self.i - 1] = 2
        return Character(tuple(a), 0)

    def coroot_row(self, n: int) -> tuple[int, ...]:
        """Coefficients of the pairing functional <., alpha^vee> on (a_1..a_n)."""
        self.check_rank(n)
        row = [0] * n
        if self.kind is RootKind.DIFF:
            row[self.i - 1] = 1
            row[self.j - 1] = -1
        elif self.kind is RootKind.SUM:
            row[self.i - 1] = 1
            row[self.j - 1] = 1
        else:
            row[self.i - 1] = 1
        return tuple(row)

    def __str__(self) -> str:
        if self.kind is RootKind.DIFF:
            return f"e{self.i}-e{self.j}"
        if self.kind is RootKind.SUM:
            return f"e{self.i}+e{self.j}"
        return f"2e{self.i}"

    @classmethod
    def parse(cls, text: str) -> "Root":
        t = text.strip().replace(" ", "")
        try:
            if t.startswith("2e"):
                return cls.long(int(t[2:]))
            if "-" in t:
                left, right = t.split("-")
                return cls.diff(int(left[1:]), int(right[1:]))
            if "+" in t:
                left, right = t.split("+")
                return cls.sum(int(left[1:]), int(right[1:]))
        except (ValueError, IndexError):
            pass
        raise ValueError(f"cannot parse root {text!r}")


def positive_roots(n: int) -> list[Root]:
    """All n^2 positive roots: differences, then sums, then long roots."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    roots = [Root.diff(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    roots += [Root.sum(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    roots += [Root.long(i) for i in range(1, n + 1)]
    return roots


def levi_positive_roots(n: int) -> list[Root]:
    """The difference roots: positive roots of the Levi subgroup."""
    return [Root.diff(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def non_levi_positive_roots(n: int) -> list[Root]:
    """Sums and long roots; the two orbits under the Levi Weyl group."""
    return [Root.sum(i, j) for i in range(1, n) for j in range(i + 1, n + 1)] + [
        Root.long(i) for i in range(1, n + 1)
    ]


def long_orbit(n: int) -> list[Root]:
    return [Root.long(i) for i in range(1, n + 1)]


def sum_orbit(n: int) -> list[Root]:
    return [Root.sum(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def simple_roots(n: int) -> list[Root]:
    return [Root.diff(i, i + 1) for i in range(1, n)] + [Root.long(n)]


def levi_simple_roots(n: int) -> list[Root]:
    """The simple roots inside the Levi (the set I)."""
    return [Root.diff(i, i + 1) for i in range(1, n)]


def pairing(lam: AnyCharacter, alpha: Root):
    """<lam, alpha^vee>: a_i - a_j, a_i + a_j or a_i by root kind; b is inert."""
    alpha.check_rank(lam.n)
    a = lam.a
    if alpha.kind is RootKind.DIFF:
        return a[alpha.i - 1] - a[alpha.j - 1]
    if alpha.kind is RootKind.SUM:
        return a[alpha.i - 1] + a[alpha.j - 1]
    return a[alpha.i - 1]


def is_I_dominant(lam: AnyCharacter) -> bool:
    """Nonnegative pairing with every simple Levi coroot: a_1 >= ... >= a_n."""
    return all(x >= y for x, y in zip(lam.a, lam.a[1:]))


# ---------------------------------------------------------------------------
# Weyl elements


@dataclass(frozen=True)
class WeylElem:
    """A mirror window (w(1), ..., w(2n)).

    Windows are validated once, at the boundary: the public constructor,
    `parse` (the only way the CLI reads a window) and certificate loading
    check that the window is a mirror permutation.  Products, inverses,
    reflections and the enumeration helpers build mirror windows by
    construction and wrap them with `_trusted`, which skips the check.
    """

    window: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(x) for x in self.window)
        object.__setattr__(self, "window", w)
        m = len(w)
        if m == 0 or m % 2 != 0:
            raise ValueError("window length must be a positive even number")
        if sorted(w) != list(range(1, m + 1)):
            raise ValueError(f"window {w} is not a permutation of 1..{m}")
        defect = kernels.mirror_defect(w)
        if defect:
            i = defect
            raise ValueError(
                f"not a mirror window: w({i}) + w({m + 1 - i}) = "
                f"{w[i - 1] + w[m - i]}, expected {m + 1}"
            )

    @classmethod
    def _trusted(cls, window: tuple[int, ...]) -> "WeylElem":
        """Wrap a tuple of ints that is a mirror window by construction,
        without validating it.  Internal: never pass user input here."""
        w = object.__new__(cls)
        object.__setattr__(w, "window", window)
        return w

    @property
    def n(self) -> int:
        return len(self.window) // 2

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.window):
            raise ValueError(f"position {i} out of range")
        return self.window[i - 1]

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        return compose(self, other)

    def inverse(self) -> "WeylElem":
        return WeylElem._trusted(kernels.invert(self.window))

    def length(self) -> int:
        return kernels.length(self.window)

    def act(self, lam: AnyCharacter) -> AnyCharacter:
        return act(self, lam)

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return cls(tuple(range(1, 2 * n + 1)))

    @classmethod
    def longest(cls, n: int) -> "WeylElem":
        """w_0, the order-reversing window."""
        return cls(tuple(range(2 * n, 0, -1)))

    @classmethod
    def longest_levi(cls, n: int) -> "WeylElem":
        """Longest element of the Levi Weyl group: reverses 1..n, mirrors the rest."""
        first = tuple(range(n, 0, -1))
        second = tuple(range(2 * n, n, -1))
        return cls(first + second)

    @classmethod
    def max_coset_rep(cls, n: int) -> "WeylElem":
        """The longest minimal coset representative: (n+1, ..., 2n, 1, ..., n)."""
        return cls(tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "WeylElem":
        try:
            vals = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError(f"window {text!r} must be whitespace-separated integers")
        if n is not None and len(vals) != 2 * n:
            raise ValueError(f"window {text!r} has {len(vals)} entries, expected {2 * n}")
        return cls(vals)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.window)


def _check_ranks(u: WeylElem, v: WeylElem):
    if u.n != v.n:
        raise ValueError(f"rank mismatch: {u.n} vs {v.n}")


def compose(u: WeylElem, v: WeylElem) -> WeylElem:
    """(u*v)(i) = u(v(i)); the right factor acts first."""
    _check_ranks(u, v)
    return WeylElem._trusted(kernels.compose(u.window, v.window))


def inverse(w: WeylElem) -> WeylElem:
    return w.inverse()


def length(w: WeylElem) -> int:
    return w.length()


class CanonicalElements(tuple):
    """(w0, w0I, wmax, z) for a given rank."""

    __slots__ = ()

    w0 = property(lambda self: self[0])
    w0I = property(lambda self: self[1])
    wmax = property(lambda self: self[2])
    z = property(lambda self: self[3])


def canonical_elements(n: int) -> CanonicalElements:
    """The longest element, its Levi counterpart, w_max = w0I * w0 and the frame
    element z.  The group is split, so the Frobenius twist is trivial and
    z = w_max."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    w0 = WeylElem.longest(n)
    w0I = WeylElem.longest_levi(n)
    wmax = compose(w0I, w0)
    return CanonicalElements((w0, w0I, wmax, wmax))


def act(w: WeylElem, lam: AnyCharacter) -> AnyCharacter:
    """Signed-permutation action: a_i is routed to slot w(i), with sign -1 and a
    mirrored slot when w(i) > n; b is fixed.  w0 acts as -1 on the a-part."""
    n = w.n
    if lam.n != n:
        raise ValueError(f"rank mismatch: {lam.n} vs {n}")
    zero = 0 if isinstance(lam, Character) else Fraction(0)
    out = [zero] * n
    for i in range(1, n + 1):
        v = w(i)
        if v <= n:
            out[v - 1] = lam.a[i - 1]
        else:
            out[2 * n - v] = -lam.a[i - 1]
    if isinstance(lam, Character):
        return Character(tuple(out), lam.b)
    return RatCharacter(tuple(out), lam.b)


def reflection(alpha: Root, n: int) -> WeylElem:
    """The reflection s_alpha."""
    return WeylElem._trusted(reflection_window(alpha, n))


def reflection_window(alpha: Root, n: int) -> tuple[int, ...]:
    """The raw window of s_alpha, from the per-rank table."""
    alpha.check_rank(n)
    return reflection_windows(n)[alpha]


@functools.lru_cache(maxsize=32)
def reflection_windows(n: int) -> Mapping[Root, tuple[int, ...]]:
    """Every positive root of rank n mapped to the raw window of its
    reflection, in the order of `positive_roots`.  Built once per rank, on
    first use; read-only, since every caller shares it."""
    return MappingProxyType(
        {alpha: _build_reflection_window(alpha, n) for alpha in positive_roots(n)}
    )


def _build_reflection_window(alpha: Root, n: int) -> tuple[int, ...]:
    m = 2 * n
    w = list(range(1, m + 1))

    def swap(i, j):
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]

    i, j = alpha.i, alpha.j
    if alpha.kind is RootKind.DIFF:
        swap(i, j)
        swap(m + 1 - i, m + 1 - j)
    elif alpha.kind is RootKind.SUM:
        swap(i, m + 1 - j)
        swap(j, m + 1 - i)
    else:
        swap(i, m + 1 - i)
    return tuple(w)


def root_image(w: WeylElem, alpha: Root) -> tuple[Root, int]:
    """The pair (beta, sign) with w . alpha = sign * beta and beta positive."""
    vec = act(w, alpha.as_character(w.n)).a
    support = [(i + 1, c) for i, c in enumerate(vec) if c != 0]
    if len(support) == 1:
        i, c = support[0]
        if abs(c) != 2:
            raise ValueError(f"{vec} is not a root vector")
        return Root.long(i), 1 if c > 0 else -1
    if len(support) == 2:
        (i, ci), (j, cj) = support
        if abs(ci) != 1 or abs(cj) != 1:
            raise ValueError(f"{vec} is not a root vector")
        if ci == 1 and cj == 1:
            return Root.sum(i, j), 1
        if ci == -1 and cj == -1:
            return Root.sum(i, j), -1
        if ci == 1 and cj == -1:
            return Root.diff(i, j), 1
        return Root.diff(i, j), -1
    raise ValueError(f"{vec} is not a root vector")


def inversion_count(w: WeylElem) -> int:
    """Number of positive roots sent to negative roots by w."""
    return sum(1 for alpha in positive_roots(w.n) if root_image(w, alpha)[1] < 0)


# ---------------------------------------------------------------------------
# enumeration helpers


def weyl_elements(n: int) -> Iterator[WeylElem]:
    """All 2^n * n! mirror windows, in a deterministic order."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    return _weyl_elements(n)


def _weyl_elements(n: int) -> Iterator[WeylElem]:
    m = 2 * n
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((0, 1), repeat=n):
            first = tuple(p if s == 0 else m + 1 - p for p, s in zip(perm, signs))
            second = tuple(m + 1 - x for x in reversed(first))
            yield WeylElem._trusted(first + second)


def weyl_order(n: int) -> int:
    out = 2**n
    for k in range(2, n + 1):
        out *= k
    return out


def levi_elements(n: int) -> list[WeylElem]:
    """The n! windows stabilizing {1..n} (the Levi Weyl group)."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    m = 2 * n
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        second = tuple(m + 1 - x for x in reversed(perm))
        out.append(WeylElem._trusted(perm + second))
    return out


def random_element(n: int, rng) -> WeylElem:
    """A uniformly random mirror window from an externally seeded RNG."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    m = 2 * n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    first = tuple(p if rng.random() < 0.5 else m + 1 - p for p in perm)
    second = tuple(m + 1 - x for x in reversed(first))
    return WeylElem._trusted(first + second)
