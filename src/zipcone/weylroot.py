"""Root datum of the rank-n symplectic similitude group.

Characters are (n+1)-tuples (a_1, ..., a_n | b); the b coordinate pairs to
zero with every coroot and is fixed by the Weyl action.  Weyl elements are
mirror windows: permutations w of {1, ..., 2n} with w(i) + w(2n+1-i) = 2n+1.
Everything is immutable and exact: the package's value types are `Record`s.
"""

from __future__ import annotations

import functools
import itertools
from enum import IntEnum
from fractions import Fraction
from operator import attrgetter
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from . import kernels


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as annotations and sets them in its own
    `__init__`; a class that validates does so in `__post_init__`, called
    at the end of `__init__`.  Instances equal only instances of the same
    class with equal fields, hash as the tuple of their fields, print as
    `Cls(field=value, ...)` and refuse assignment and deletion.  That is
    what a frozen dataclass gives, without importing `dataclasses` (and
    through it `inspect`) or compiling generated methods when the package
    loads.  Instances keep a `__dict__`, for `functools.cached_property`.
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        # the tuple of field values; attrgetter of one name gives the bare value
        cls._key = get if len(fields) > 1 else staticmethod(lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# characters


class Character(Record):
    """Integer character (a_1, ..., a_n | b)."""

    a: tuple[int, ...]
    b: int

    def __init__(self, a: tuple[int, ...], b: int = 0):
        vars(self).update(a=a, b=b)
        self.__post_init__()

    def __post_init__(self):
        if not all(map(int.__instancecheck__, self.a)) or not isinstance(self.b, int):
            raise TypeError("Character entries must be integers")
        object.__setattr__(self, "a", tuple(self.a))

    @classmethod
    def _trusted(cls, a: tuple[int, ...], b: int) -> "Character":
        """Wrap a tuple of ints and an int without validating them, as
        `WeylElem._trusted` wraps a window.  Internal: never pass user input
        here."""
        x = object.__new__(cls)
        vars(x).update(a=a, b=b)
        return x

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

    def vector(self) -> tuple[int, ...]:
        return self.a + (self.b,)

    def __str__(self) -> str:
        return ",".join(map(str, self.a)) + "|" + str(self.b)


class RatCharacter(Record):
    """Rational character; same shape as Character without the parity notion."""

    a: tuple[Fraction, ...]
    b: Fraction

    def __init__(self, a: tuple[Fraction, ...], b: Fraction = Fraction(0)):
        vars(self).update(a=a, b=b)
        self.__post_init__()

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

    def __str__(self) -> str:
        return ",".join(map(str, self.a)) + "|" + str(self.b)


AnyCharacter = Character | RatCharacter


def _parse_entry(part: str) -> int | Fraction:
    """An int when the value is integral, however it is spelled ("3",
    "3/1", "1e2"), else a Fraction.  int() reads the common spelling; the
    rest goes through Fraction(), whose error a text both refuse raises."""
    try:
        return int(part)
    except ValueError:
        value = Fraction(part)
        return value.numerator if value.denominator == 1 else value


def _parse_char_text(text: str):
    body, sep, tail = text.strip().partition("|")
    if not sep:
        raise ValueError(f"character {text!r} must look like 'a_1,...,a_n|b'")
    try:
        a = [_parse_entry(part.strip()) for part in body.split(",") if part.strip() != ""]
        b = _parse_entry(tail.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse character {text!r}: {exc}") from None
    if not a:
        raise ValueError(f"character {text!r} has no a-coordinates")
    return a, b


# ---------------------------------------------------------------------------
# roots


class RootKind(IntEnum):
    """Root families, numbered in the root order: differences, then sums,
    then long roots."""

    DIFF = 0  # e_i - e_j
    SUM = 1   # e_i + e_j
    LONG = 2  # 2 e_i


class Root(Record):
    """A positive root of the rank-n system: e_i - e_j, e_i + e_j or 2 e_i.

    The root order, by family (as numbered in RootKind), then i, then j,
    is the sort key `root_order`."""

    kind: RootKind
    i: int
    j: int  # 0 for long roots

    def __init__(self, kind: RootKind, i: int, j: int = 0):
        vars(self).update(kind=kind, i=i, j=j)
        self.__post_init__()

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

    @functools.cached_property
    def coroot(self) -> tuple[tuple[int, int], ...]:
        """The coroot as sparse (0-based index, coefficient) pairs on
        (a_1..a_n): e_i - e_j, e_i + e_j and e_i for the three families."""
        if self.kind is RootKind.LONG:
            return ((self.i - 1, 1),)
        return ((self.i - 1, 1), (self.j - 1, -1 if self.kind is RootKind.DIFF else 1))

    def check_rank(self, n: int) -> None:
        top = self.j if self.j else self.i
        if top > n:
            raise ValueError(f"root {self} does not fit rank {n}")

    def coroot_row(self, n: int) -> tuple[int, ...]:
        """Coefficients of the pairing functional <., alpha^vee> on (a_1..a_n)."""
        self.check_rank(n)
        row = [0] * n
        for k, c in self.coroot:
            row[k] = c
        return tuple(row)

    def __str__(self) -> str:
        if self.kind is RootKind.DIFF:
            return f"e{self.i}-e{self.j}"
        if self.kind is RootKind.SUM:
            return f"e{self.i}+e{self.j}"
        return f"2e{self.i}"


# the sort key of the root order, taken in C
root_order = attrgetter("kind", "i", "j")


def positive_roots(n: int) -> list[Root]:
    """All n^2 positive roots: differences, then sums, then long roots."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return levi_positive_roots(n) + non_levi_positive_roots(n)


@functools.lru_cache(maxsize=32)
def root_table(n: int) -> tuple[Root, ...]:
    """`positive_roots(n)` as a tuple, built once per rank and shared: entry
    k is the root of bit k in a root bitmask."""
    return tuple(positive_roots(n))


def root_index(n: int, kind: RootKind, i: int, j: int = 0) -> int:
    """The position of the root (kind, i, j) in `positive_roots(n)`, which is
    its bit in a root bitmask: the n(n-1)/2 differences, then as many sums,
    each family with (i, j) in lexicographic order, then the n long roots.
    Before (i, j) come (i-1)(2n-i)/2 pairs with a smaller first index."""
    if kind is RootKind.LONG:
        return n * (n - 1) + i - 1
    k = (i - 1) * (2 * n - i) // 2 + j - i - 1
    return k if kind is RootKind.DIFF else k + n * (n - 1) // 2


def levi_positive_roots(n: int) -> list[Root]:
    """The difference roots: positive roots of the Levi subgroup."""
    return [Root.diff(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def non_levi_positive_roots(n: int) -> list[Root]:
    """Sums and long roots; the two orbits under the Levi Weyl group."""
    return sum_orbit(n) + long_orbit(n)


def long_orbit(n: int) -> list[Root]:
    return [Root.long(i) for i in range(1, n + 1)]


def sum_orbit(n: int) -> list[Root]:
    return [Root.sum(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def levi_simple_roots(n: int) -> list[Root]:
    """The simple roots inside the Levi (the set I)."""
    return [Root.diff(i, i + 1) for i in range(1, n)]


def pairing(lam: AnyCharacter, alpha: Root):
    """<lam, alpha^vee>: a_i - a_j, a_i + a_j or a_i by root kind; b is inert."""
    alpha.check_rank(lam.n)
    a = lam.a
    # direct arithmetic, not alpha.coroot: an independent check of that encoding
    if alpha.kind is RootKind.DIFF:
        return a[alpha.i - 1] - a[alpha.j - 1]
    if alpha.kind is RootKind.SUM:
        return a[alpha.i - 1] + a[alpha.j - 1]
    return a[alpha.i - 1]


# ---------------------------------------------------------------------------
# Weyl elements


class WeylElem(Record):
    """A mirror window (w(1), ..., w(2n)).

    Windows are validated once, at the boundary: the public constructor
    and `parse` (the only way the CLI reads a window) check that the
    window is a mirror permutation.  Products, inverses,
    reflections and the enumeration helpers build mirror windows by
    construction and wrap them with `_trusted`, which skips the check.
    """

    window: tuple[int, ...]

    def __init__(self, window: tuple[int, ...]):
        object.__setattr__(self, "window", window)
        self.__post_init__()

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

    def inverse(self) -> "WeylElem":
        return WeylElem._trusted(kernels.invert(self.window))

    def length(self) -> int:
        return kernels.length(self.window)

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
    def parse(cls, text: str, n: int | None = None) -> "WeylElem":
        try:
            vals = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError(f"window {text!r} must be whitespace-separated integers")
        if n is not None and len(vals) != 2 * n:
            raise ValueError(f"window {text!r} has {len(vals)} entries, expected {2 * n}")
        return cls(vals)

    def __str__(self) -> str:
        return " ".join(map(str, self.window))


def _check_ranks(u: WeylElem, v: WeylElem):
    if u.n != v.n:
        raise ValueError(f"rank mismatch: {u.n} vs {v.n}")


def compose(u: WeylElem, v: WeylElem) -> WeylElem:
    """(u*v)(i) = u(v(i)); the right factor acts first."""
    _check_ranks(u, v)
    return WeylElem._trusted(kernels.compose(u.window, v.window))


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
    """The raw window of s_alpha: the identity with the swaps of
    `reflection_swaps(n)[alpha]` applied, built in O(n) on each call."""
    alpha.check_rank(n)
    return _window_from_swaps(reflection_swaps(n)[alpha], n)


def _window_from_swaps(swaps: tuple[tuple[int, int], ...], n: int) -> tuple[int, ...]:
    """The rank-n identity window with the 1-based position swaps applied."""
    w = list(range(1, 2 * n + 1))
    for a, b in swaps:
        w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


@functools.lru_cache(maxsize=32)
def reflection_swaps(n: int) -> Mapping[Root, tuple[tuple[int, int], ...]]:
    """Every positive root of rank n mapped to the 1-based position pairs
    (a, b), a < b, that its reflection swaps on a window, in the order of
    `positive_roots`: e_i - e_j swaps (i, j) and (2n+1-j, 2n+1-i), e_i + e_j
    swaps (i, 2n+1-j) and (j, 2n+1-i), 2e_i swaps (i, 2n+1-i).  Right
    multiplication by the reflection applies these swaps in turn.  Keyed
    by the shared roots of `root_table(n)`, so it builds none.  Built once
    per rank, on first use; read-only, since every caller shares it."""
    m = 2 * n
    table = {}
    for alpha in root_table(n):
        i, j = alpha.i, alpha.j
        if alpha.kind is RootKind.DIFF:
            table[alpha] = ((i, j), (m + 1 - j, m + 1 - i))
        elif alpha.kind is RootKind.SUM:
            table[alpha] = ((i, m + 1 - j), (j, m + 1 - i))
        else:
            table[alpha] = ((i, m + 1 - i),)
    return MappingProxyType(table)


# ---------------------------------------------------------------------------
# enumeration helpers


def weyl_windows(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n * n! mirror windows, as raw tuples, in a deterministic order."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    return _weyl_windows(n)


def _weyl_windows(n: int) -> Iterator[tuple[int, ...]]:
    top = 2 * n + 1
    for perm in itertools.permutations(range(1, n + 1)):
        # the first half takes p or 2n+1-p at each position, the last
        # position's choice varying fastest
        for first in itertools.product(*[(p, top - p) for p in perm]):
            yield first + tuple([top - x for x in first[::-1]])


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

