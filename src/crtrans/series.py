"""Truncated multivariate formal power series with exact coefficients.

A Series over the Gaussian rationals stores finitely many terms, every one of
total degree at most the series' truncation degree D. The contract for every
operation here: the coefficients of the result, up to the result's truncation
degree, are exactly those of the untruncated computation. Binary operations
truncate at the minimum of the operands' degrees.

Representation: a dict `key -> (re, im)` of Python ints for the nonzero
terms and one positive int denominator `den`; the coefficient of the term is
(re + im*i) / den, always in lowest terms (the gcd of `den` and every
numerator part is 1, and the zero series has den 1). That form is canonical,
so equality compares ints. A key packs the term's exponents into arity + 1
fields of 16 bits: the total degree in the top field, then x0, x1, ... So int
order is graded-lex order, order and degree read the top field, and the key
of a product term is the sum of the keys: a kept product has degree at most
the truncation degree, so no field carries. A truncation degree above
MAX_DEGREE does not fit and raises StructureError. Exponent tuples are built
only at the boundary: `terms` is a read-only `idx -> GaussianRational` view,
and GaussianRational stays the type every public query returns. A scalar
holds one coefficient's (re, im, den) in lowest terms, so `_split` reads its
parts and `_scalar` reduces a coefficient by one gcd. Series objects are
immutable by convention.

The `exact` flag records when the stored terms are known to be the whole
series (a polynomial). It is metadata, not part of equality; consumers use it
to upgrade "zero up to truncation" into certified vanishing. Operations
propagate it conservatively: when in doubt the flag is dropped, never invented.

This module is the ring: the keys, the product kernel, `Series`, `exp_series`
and `invert_unit`. Substitution, `compose` and `solve_implicit`, is the layer
above it, in `substitution.py`.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_left
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .errors import ArityMismatch, NotAUnit, NotPointed, StructureError, TruncationMismatch
from .multiindex import MultiIndex, degree as idx_degree, unit
from .scalar import ONE, ZERO, GaussianRational, ScalarLike, _parts, _reduced as _scalar

Order = Union[int, float]  # math.inf marks "no visible nonzero term"
INFINITE_ORDER: float = math.inf

NumMap = Dict[int, Tuple[int, int]]  # packed key -> Gaussian-integer numerator (re, im)

_W = 16  # bits per key field, an unsigned short, so keys convert through struct
_MASK = (1 << _W) - 1
MAX_DEGREE = _MASK  # largest truncation degree whose keys fit


@functools.lru_cache(maxsize=None)
def _layout(arity: int) -> struct.Struct:
    """The arity + 1 big-endian fields of a key: the degree, then x0, x1, ..."""
    return struct.Struct(f">{arity + 1}H")


def _key(idx: Sequence[int], arity: int) -> Optional[int]:
    """Packed key of an exponent tuple, None if no stored term of this arity has it."""
    try:
        fields = _layout(arity).pack(sum(idx), *idx)
    except (TypeError, struct.error):  # another length, a non-int, a negative, a degree too high
        return None
    return int.from_bytes(fields, "big")


def _index(key: int, arity: int) -> MultiIndex:
    """Exponent tuple of a packed key."""
    return _layout(arity).unpack(key.to_bytes(2 * arity + 2, "big"))[1:]


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise StructureError(f"truncation degree {degree} exceeds the maximum {MAX_DEGREE}")


def _split(c: GaussianRational) -> Tuple[int, int, int]:
    """(re, im, den) in lowest terms with c == (re + im*i) / den."""
    return c._re, c._im, c._den


def _lowest(num: NumMap, den: int) -> Tuple[NumMap, int]:
    """Divide the numerators and the denominator by their common content."""
    if not num:
        return num, 1
    g = den
    for re, im in num.values():
        g = math.gcd(g, re, im)
        if g == 1:
            return num, den
    return {k: (re // g, im // g) for k, (re, im) in num.items()}, den // g


def _product(f: NumMap, g: NumMap, d: int, arity: int) -> NumMap:
    """Numerators of the Cauchy product f*g through total degree d.

    A pair of terms is kept when the sum of its keys is below `limit`, the
    first key of degree d + 1. A kept pair has degree at most d, so no field
    carries and the sum is the product's key; a pair of higher degree sums
    to at least `limit`, since a carry only adds. So the keys of g, sorted,
    are cut at limit - (key of f's term). `Series.__mul__` sends a factor
    with fewer than two terms elsewhere.
    """
    limit = (d + 1) << (arity * _W)
    g_keys = sorted(g)
    g_terms = [(k, *g[k]) for k in g_keys]
    acc: NumMap = {}
    get = acc.get
    for ka, (a, b) in f.items():
        for kb, c, e in g_terms[: bisect_left(g_keys, limit - ka)]:
            k = ka + kb
            cur = get(k)
            if cur is None:
                acc[k] = (a * c - b * e, a * e + b * c)
            else:
                acc[k] = (cur[0] + a * c - b * e, cur[1] + a * e + b * c)
    return {k: v for k, v in acc.items() if v[0] or v[1]}


def _term_product(g: NumMap, key: int, a: int, b: int, limit: int) -> NumMap:
    """Numerators of g times the one term (a + b*i) x^key, keys below `limit`.

    One pass over g, kept by the cut of `_product`. Shifted keys stay
    distinct, and Gaussian integers have no zero divisors, so no term of the
    product merges with another or vanishes.
    """
    cut = limit - key
    return {key + k: (a * c - b * e, a * e + b * c) for k, (c, e) in g.items() if k < cut}


class _Terms(Mapping):
    """Read-only `idx -> GaussianRational` view of a Series' nonzero terms."""

    __slots__ = ("_num", "_den", "_arity")

    def __init__(self, num: NumMap, den: int, arity: int) -> None:
        self._num, self._den, self._arity = num, den, arity

    def __getitem__(self, idx: MultiIndex) -> GaussianRational:
        c = self._num.get(_key(idx, self._arity))  # type: ignore[arg-type]
        if c is None:
            raise KeyError(idx)
        return _scalar(c[0], c[1], self._den)

    def __iter__(self) -> Iterator[MultiIndex]:
        return (_index(k, self._arity) for k in self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __contains__(self, idx: object) -> bool:
        return _key(idx, self._arity) in self._num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Terms):  # only an empty view equals one of another arity
            return (self._den, self._num) == (other._den, other._num) and (
                not self._num or self._arity == other._arity)
        return Mapping.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Blocks(dict):
    """alpha -> coefficient block of `source`, see `Series.coefficient_blocks`.

    An absent alpha reads as the zero block, which is kept for the next read.
    """

    def __init__(self, source: "Series", width: int) -> None:
        self.source, self.width = source, width

    def __missing__(self, alpha: MultiIndex) -> "Series":
        s, a = self.source, idx_degree(alpha)
        if len(alpha) != self.width:
            raise ArityMismatch("block and exponent vector differ in length")
        if a > s.degree:
            raise TruncationMismatch(
                f"coefficient block of degree {a} beyond truncation {s.degree}"
            )
        zero = self[alpha] = Series.zero(s.arity - self.width, s.degree - a, s.exact)
        return zero


class Series:
    """Sparse truncated power series in `arity` variables."""

    __slots__ = ("arity", "degree", "_num", "_den", "exact")

    def __init__(
        self,
        arity: int,
        degree: int,
        terms: Optional[Mapping[MultiIndex, ScalarLike]] = None,
        exact: bool = True,
    ) -> None:
        if arity < 0 or degree < 0:
            raise StructureError("arity and truncation degree must be non-negative")
        _check_degree(degree)
        parts: Dict[int, Tuple[int, int, int]] = {}
        dropped = False
        if terms:
            for idx, value in terms.items():
                idx = tuple(idx)
                if len(idx) != arity or any(e < 0 for e in idx):
                    raise StructureError(f"bad exponent tuple {idx} for arity {arity}")
                c = GaussianRational.coerce(value)
                if not c:
                    continue
                if idx_degree(idx) > degree:
                    dropped = True
                    continue
                parts[_key(idx, arity)] = _split(c)
        # every coefficient is in lowest terms, so over the lcm of their
        # denominators the whole series is too
        den = math.lcm(*(p[2] for p in parts.values()))
        self.arity = arity
        self.degree = degree
        self._num = {k: (re * (den // d), im * (den // d)) for k, (re, im, d) in parts.items()}
        self._den = den
        self.exact = bool(exact) and not dropped

    @classmethod
    def _make(cls, arity: int, degree: int, num: NumMap, den: int, exact: bool) -> "Series":
        """Trusted constructor: no zero or over-degree terms, (num, den) in lowest terms."""
        _check_degree(degree)
        out = object.__new__(cls)
        out.arity = arity
        out.degree = degree
        out._num = num
        out._den = den
        out.exact = exact
        return out

    @classmethod
    def _reduced(cls, arity: int, degree: int, num: NumMap, den: int, exact: bool) -> "Series":
        """Trusted constructor that first brings (num, den) to lowest terms."""
        num, den = _lowest(num, den)
        return cls._make(arity, degree, num, den, exact)

    def _with_exact(self, exact: bool) -> "Series":
        """The same terms and truncation degree under another `exact` flag."""
        return Series._make(self.arity, self.degree, self._num, self._den, exact)

    @property
    def terms(self) -> Mapping[MultiIndex, GaussianRational]:
        """Read-only view of the nonzero coefficients, built on demand."""
        return _Terms(self._num, self._den, self.arity)

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, arity: int, degree: int, exact: bool = True) -> "Series":
        return cls._make(arity, degree, {}, 1, exact)

    @classmethod
    def constant(cls, value: ScalarLike, arity: int, degree: int) -> "Series":
        c = GaussianRational.coerce(value)
        if not c:
            return cls.zero(arity, degree)
        re, im, den = _split(c)
        return cls._make(arity, degree, {0: (re, im)}, den, True)

    @classmethod
    def one(cls, arity: int, degree: int) -> "Series":
        return cls._make(arity, degree, {0: (1, 0)}, 1, True)

    @classmethod
    def variable(cls, var: int, arity: int, degree: int) -> "Series":
        if not 0 <= var < arity:
            raise StructureError(f"variable index {var} out of range for arity {arity}")
        if degree < 1:
            raise TruncationMismatch("a variable needs truncation degree at least 1")
        return cls._make(arity, degree, {_key(unit(arity, var), arity): (1, 0)}, 1, True)

    @classmethod
    def polynomial(
        cls, arity: int, degree: int, terms: Mapping[MultiIndex, ScalarLike]
    ) -> "Series":
        return cls(arity, degree, terms, exact=True)

    # ---------------- basic queries ----------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def constant_term(self) -> GaussianRational:
        return self._coefficient(0)

    @property
    def is_pointed(self) -> bool:
        return 0 not in self._num

    @property
    def poly_degree(self) -> int:
        """Largest total degree among stored terms (0 for the zero series)."""
        if not self._num:
            return 0
        return max(self._num) >> (self.arity * _W)

    def _coefficient(self, key: Optional[int]) -> GaussianRational:
        c = self._num.get(key)  # type: ignore[arg-type]
        return ZERO if c is None else _scalar(c[0], c[1], self._den)

    def coefficient(self, idx: MultiIndex) -> GaussianRational:
        idx = tuple(idx)
        if len(idx) != self.arity:
            raise ArityMismatch(f"index {idx} has wrong length for arity {self.arity}")
        if idx_degree(idx) > self.degree and not self.exact:
            raise TruncationMismatch(
                f"coefficient at {idx} lies beyond truncation degree {self.degree}"
            )
        return self._coefficient(_key(idx, self.arity))

    def order(self) -> Order:
        """Total vanishing order; infinity when zero up to truncation."""
        if not self._num:
            return INFINITE_ORDER
        return min(self._num) >> (self.arity * _W)

    def leading_index(self) -> Optional[MultiIndex]:
        """Graded-lex minimal index with nonzero coefficient, None if zero."""
        if not self._num:
            return None
        return _index(min(self._num), self.arity)

    def sorted_terms(self) -> Iterable[Tuple[MultiIndex, GaussianRational]]:
        """(idx, coefficient) pairs in graded-lex order of idx."""
        return [(_index(k, self.arity), self._coefficient(k)) for k in sorted(self._num)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.degree == other.degree
            and self._num == other._num
            and self._den == other._den
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<Series {self.to_str()} | arity={self.arity} D={self.degree}>"

    # ---------------- ring operations ----------------

    def _check_arity(self, other: "Series") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __neg__(self) -> "Series":
        num = {k: (-re, -im) for k, (re, im) in self._num.items()}
        return Series._make(self.arity, self.degree, num, self._den, self.exact)

    def _add_signed(self, other: Union["Series", ScalarLike], sign: int) -> "Series":
        if not isinstance(other, Series):
            if _parts(other) is None:  # not a scalar constant
                return NotImplemented
            other = Series.constant(other, self.arity, self.degree)
        self._check_arity(other)
        d = min(self.degree, other.degree)
        a = self.truncate(d)
        b = other.truncate(d)
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, sign * (den // b._den)
        out = {k: (re * fa, im * fa) for k, (re, im) in a._num.items()} if fa != 1 else dict(a._num)
        for k, (re, im) in b._num.items():
            re, im = re * fb, im * fb
            cur = out.get(k)
            if cur is not None:
                re, im = cur[0] + re, cur[1] + im
                if not (re or im):
                    del out[k]
                    continue
            out[k] = (re, im)
        return Series._reduced(self.arity, d, out, den, a.exact and b.exact)

    def __add__(self, other: Union["Series", ScalarLike]) -> "Series":
        return self._add_signed(other, +1)

    __radd__ = __add__

    def __sub__(self, other: Union["Series", ScalarLike]) -> "Series":
        return self._add_signed(other, -1)

    def __rsub__(self, other: ScalarLike) -> "Series":
        return (-self) + other

    def scale(self, value: ScalarLike) -> "Series":
        c = GaussianRational.coerce(value)
        if not c:
            return Series.zero(self.arity, self.degree)
        cr, ci, cd = _split(c)
        num = {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self._num.items()}
        return Series._reduced(self.arity, self.degree, num, self._den * cd, self.exact)

    def __mul__(self, other: Union["Series", ScalarLike]) -> "Series":
        """Product through the smaller truncation degree.

        A factor with no term gives zero at once, a one-term factor (a
        constant or a monomial) costs one pass over the other factor's terms,
        and the constant 1 returns the other factor, truncated to that degree.
        """
        if not isinstance(other, Series):
            if _parts(other) is None:  # not a scalar constant
                return NotImplemented
            return self.scale(other)
        self._check_arity(other)
        d = min(self.degree, other.degree)
        # exactly-zero absorbs the unknown tail of the other factor
        if (self.is_zero and self.exact) or (other.is_zero and other.exact):
            return Series.zero(self.arity, d)
        f, g = (self, other) if len(self._num) <= len(other._num) else (other, self)
        if not f._num:  # an inexact zero: zero through d, with an unknown tail
            return Series.zero(self.arity, d, False)
        exact = self.exact and other.exact and (self.poly_degree + other.poly_degree <= d)
        if len(f._num) == 1:
            ((key, (a, b)),) = f._num.items()
            if (key, a, b, f._den) == (0, 1, 0, 1):  # the constant 1
                return g.truncate(d)._with_exact(exact)
            out = _term_product(g._num, key, a, b, (d + 1) << (self.arity * _W))
        else:
            out = _product(f._num, g._num, d, self.arity)
        return Series._reduced(self.arity, d, out, self._den * other._den, exact)

    __rmul__ = __mul__

    def __truediv__(self, value: ScalarLike) -> "Series":
        c = GaussianRational.coerce(value)
        return self.scale(ONE / c)

    def __pow__(self, power: int) -> "Series":
        """Square-and-multiply; values and `exact` match repeated multiplication."""
        if power < 0:
            raise StructureError("negative series powers live in the fraction field")
        out = Series.one(self.arity, self.degree)
        base = self
        while power:
            if power & 1:
                out = out * base
            power >>= 1
            if power:
                base = base * base
        return out

    # ---------------- coefficient reshaping ----------------

    def conjugate(self) -> "Series":
        """Conjugate every coefficient; variables are untouched."""
        num = {k: (re, -im) for k, (re, im) in self._num.items()}
        return Series._make(self.arity, self.degree, num, self._den, self.exact)

    def derivative(self, var: int) -> "Series":
        if not 0 <= var < self.arity:
            raise StructureError(f"variable index {var} out of range")
        d = max(self.degree - 1, 0)
        shift = (self.arity - 1 - var) * _W
        step = (1 << (self.arity * _W)) + (1 << shift)  # one off the degree and off x_var
        out: NumMap = {}
        for k, (re, im) in self._num.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - step] = (re * e, im * e)
        exact = self.exact if (self.degree > 0 or self.exact) else False
        return Series._reduced(self.arity, d, out, self._den, exact)

    def set_zero(self, variables: Sequence[int]) -> "Series":
        """Substitute 0 for the listed variables (arity is preserved)."""
        mask = 0
        for i in set(variables):
            mask |= _MASK << ((self.arity - 1 - i) * _W)
        out = {k: v for k, v in self._num.items() if not k & mask}
        return Series._reduced(self.arity, self.degree, out, self._den, self.exact)

    def coefficient_blocks(self, variables: Sequence[int]) -> Dict[MultiIndex, "Series"]:
        """Every Taylor coefficient of the monomials `x_block^alpha`, in one pass.

        Maps alpha to the coefficient of x_block^alpha as a series in the
        other variables, which keep their relative order, with truncation
        degree D - |alpha| and this series' `exact` flag. An alpha with no
        term reads as the zero block; one of degree above D raises
        TruncationMismatch.
        """
        vs = tuple(variables)
        keep = [i for i in range(self.arity) if i not in vs]
        groups: Dict[MultiIndex, NumMap] = {}
        for k, v in self._num.items():
            e = _index(k, self.arity)
            group = groups.setdefault(tuple(e[i] for i in vs), {})
            group[_key([e[i] for i in keep], len(keep))] = v
        blocks = _Blocks(self, len(vs))
        for alpha, num in groups.items():
            d = self.degree - sum(alpha)
            blocks[alpha] = Series._reduced(len(keep), d, num, self._den, self.exact)
        return blocks

    def coefficient_series(
        self, variables: Sequence[int], alpha: MultiIndex
    ) -> "Series":
        """Taylor coefficient of the monomial `x_block^alpha`, see `coefficient_blocks`."""
        return self.coefficient_blocks(variables)[tuple(alpha)]

    def shift_down(self, var: int, amount: int) -> "Series":
        """Divide by x_var^amount; every term must carry that factor."""
        if amount == 0:
            return self
        shift = (self.arity - 1 - var) * _W
        step = (amount << (self.arity * _W)) + (amount << shift)
        out: NumMap = {}
        for k, v in self._num.items():
            if (k >> shift) & _MASK < amount:
                raise StructureError(f"term {_index(k, self.arity)} lacks the factor "
                                     f"x_{var}^{amount} being divided out")
            out[k - step] = v
        return Series._make(self.arity, self.degree - amount, out, self._den, self.exact)

    def permute(self, new_positions: Sequence[int]) -> "Series":
        """Send old variable i to position new_positions[i]; `embed` refuses a non-permutation."""
        return self.embed(self.arity, new_positions)

    def embed(self, arity: int, positions: Sequence[int]) -> "Series":
        """View this series inside a larger ring; old var i becomes positions[i]."""
        pos = tuple(positions)
        if len(pos) != self.arity or len(set(pos)) != len(pos):
            raise StructureError("positions must be distinct and cover every variable")
        if any(not 0 <= p < arity for p in pos):
            raise StructureError("embedding positions out of range")
        out: NumMap = {}
        for k, v in self._num.items():
            kk = [0] * arity
            for i, e in enumerate(_index(k, self.arity)):
                kk[pos[i]] = e
            out[_key(kk, arity)] = v
        return Series._make(arity, self.degree, out, self._den, self.exact)

    def truncate(self, d: int) -> "Series":
        if d > self.degree:
            raise TruncationMismatch(
                f"cannot truncate degree-{self.degree} data at {d}; use lift() on exact series"
            )
        if d == self.degree:
            return self
        if self.poly_degree <= d:
            return Series._make(self.arity, d, self._num, self._den, self.exact)
        limit = (d + 1) << (self.arity * _W)
        out = {k: v for k, v in self._num.items() if k < limit}
        return Series._reduced(self.arity, d, out, self._den, False)

    def lift(self, d: int) -> "Series":
        """Re-declare a higher truncation degree; sound only for exact series."""
        if d < self.degree:
            return self.truncate(d)
        if d == self.degree:
            return self
        if not self.exact:
            raise TruncationMismatch("cannot lift a series that is only known truncated")
        return Series._make(self.arity, d, self._num, self._den, True)

    # ---------------- display ----------------

    def to_str(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.arity)]
        if not self._num:
            return "0"
        parts = []
        for k, v in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(k)
                if e > 0
            )
            cs = str(v)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            if not mono:
                parts.append(cs)
            else:  # a coefficient of 1 or -1 shows as the monomial or its negative
                parts.append(cs[:-1] + mono if cs in ("1", "-1") else f"{cs}*{mono}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


def invert_unit(f: Series) -> Series:
    """Multiplicative inverse of a series with nonzero constant term."""
    c0 = f.constant_term
    if not c0:
        raise NotAUnit("constant term is zero")
    d = f.degree
    # f = c0 * (1 - u) with u pointed; inverse is c0^(-1) * sum u^j
    u = (Series.constant(c0, f.arity, d) - f) / c0
    acc = p = Series.one(f.arity, d)
    for _ in range(d):
        p = p * u
        if p.is_zero:
            break
        acc = acc + p
    out = acc / c0
    return out._with_exact(f.exact and f.poly_degree == 0)


def exp_series(f: Series) -> Series:
    """exp of a pointed series, summed through the truncation degree."""
    if not f.is_pointed:
        raise NotPointed("exp needs a series with zero constant term")
    d = f.degree
    acc = p = Series.one(f.arity, d)
    fact = 1
    for j in range(1, d + 1):
        p = p * f
        if p.is_zero:
            break
        fact *= j
        acc = acc + Series._reduced(p.arity, p.degree, p._num, p._den * fact, p.exact)  # p / j!
    return acc._with_exact(f.is_zero and f.exact)  # exp(f) is a polynomial only for f = 0


def __getattr__(name: str):
    # perfbench/tracer.py's LAYERS reads `compose` and `solve_implicit` from this
    # module, so these two names resolve to `substitution`'s (PEP 562); ROADMAP
    # item 1 points LAYERS there and removes this
    if name in ("compose", "solve_implicit"):
        from . import substitution

        return getattr(substitution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
