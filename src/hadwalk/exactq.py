"""Exact arithmetic building blocks.

Rationals, univariate polynomials over Q, elements of the real quadratic
field Q(sqrt 2), and rational functions kept in a canonical reduced form.
Everything in this module is exact: no floats enter or leave, and every
operation either returns an exact value or raises.

A polynomial stores each integral coefficient as an ``int`` and only a
non-integral one as a (reduced) ``Fraction``.  The polynomials of the
walk have integer coefficients, so their products and sums are plain
integer arithmetic.  Every division of coefficients goes through
``_div``, which stays in ``int`` when the quotient is exact and builds a
``Fraction`` otherwise, so ``int / int`` never yields a float.  The gcd
of two polynomials is the primitive polynomial remainder sequence over
Z (Brown 1971): pseudo-remainders, each divided by its content, so no
rational coefficient appears on the way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Iterable, Union

# The package-wide exact scalar type.  fractions.Fraction already gives
# normalized, hashable, arbitrary-precision rationals with exact string
# parsing, so there is nothing to add.
Rational = Fraction

ScalarLike = Union[int, Fraction]


def _coefficient(x: ScalarLike) -> ScalarLike:
    """x as a stored coefficient: an int if integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


def _primitive_ints(coeffs: tuple[ScalarLike, ...]) -> list[int]:
    """coeffs * L / g as coprime integers: L is the lcm of the
    denominators and g the gcd of the cleared numerators (positive, as
    coeffs has a nonzero entry)."""
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom_lcm // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [a // g for a in ints]


def _div(a: ScalarLike, b: ScalarLike) -> ScalarLike:
    """Exact a / b: an int when b divides a in the integers."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _coefficient(Fraction(a) / b)


class Polynomial:
    """Immutable univariate polynomial with rational coefficients.

    Coefficients are stored low degree first with trailing zeros trimmed,
    each as an int when integral and as a Fraction otherwise, so equal
    polynomials always compare equal structurally.  The zero
    polynomial has empty coefficient tuple and degree -1.  ``var`` is a
    purely symbolic tag ("t", "z", ...); arithmetic requires matching
    tags so that expressions in different variables cannot be mixed by
    accident.
    """

    __slots__ = ("_coeffs", "_var")

    def __init__(self, coeffs: Iterable[ScalarLike] = (), var: str = "t") -> None:
        cs = [c if type(c) is int else _coefficient(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._var = var

    @classmethod
    def zero(cls, var: str = "t") -> Polynomial:
        return cls((), var=var)

    @classmethod
    def one(cls, var: str = "t") -> Polynomial:
        return cls((1,), var=var)

    @classmethod
    def constant(cls, c: ScalarLike, var: str = "t") -> Polynomial:
        return cls((c,), var=var)

    @classmethod
    def variable(cls, var: str = "t") -> Polynomial:
        """The monomial ``var`` itself."""
        return cls((0, 1), var=var)

    @classmethod
    def monomial(cls, k: int, c: ScalarLike = 1, var: str = "t") -> Polynomial:
        """c * var**k."""
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * k + [c], var=var)

    @property
    def coeffs(self) -> tuple[ScalarLike, ...]:
        """Coefficients low degree first, no trailing zeros."""
        return self._coeffs

    @property
    def var(self) -> str:
        return self._var

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> ScalarLike:
        return self._coeffs[-1] if self._coeffs else 0

    def __getitem__(self, k: int) -> ScalarLike:
        """Coefficient of var**k; zero beyond the degree."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def _coerce(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other._var != self._var:
                raise ValueError(
                    f"variable mismatch: {self._var!r} vs {other._var!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,), var=self._var)
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if not isinstance(other, Polynomial) else other
        if o is None:
            return NotImplemented
        if isinstance(other, Polynomial) and other._var != self._var:
            return not self._coeffs and not other._coeffs
        return self._coeffs == o._coeffs

    def __hash__(self) -> int:
        return hash((self._coeffs, self._var if self._coeffs else ""))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: object) -> Polynomial:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._coeffs, o._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out, var=self._var)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self._coeffs], var=self._var)

    def __sub__(self, other: object) -> Polynomial:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> Polynomial:
        return -(self - other)

    def __mul__(self, other: object) -> Polynomial:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial.zero(self._var)
        out = [0] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(o._coeffs):
                    out[i + j] += a * b
        return Polynomial(out, var=self._var)

    __rmul__ = __mul__

    def __divmod__(self, other: object) -> tuple[Polynomial, Polynomial]:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return poly_divmod(self, o)

    def __floordiv__(self, other: object) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: object) -> Polynomial:
        return divmod(self, other)[1]

    def __call__(self, x):
        return poly_eval(self, x)

    def derivative(self) -> Polynomial:
        return Polynomial(
            [k * c for k, c in enumerate(self._coeffs)][1:], var=self._var
        )

    def primitive_part(self) -> Polynomial:
        """self divided by its content; integer coefficients, gcd 1.

        The sign of the leading coefficient is preserved.
        """
        if self.is_zero:
            return self
        return Polynomial(_primitive_ints(self._coeffs), var=self._var)

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        lc = self.leading_coefficient
        return Polynomial([_div(a, lc) for a in self._coeffs], var=self._var)

    def __repr__(self) -> str:
        return f"Polynomial({self._coeffs!r}, var={self._var!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = self._var if k == 1 else f"{self._var}^{k}"
                if mag == 1:
                    body = xk
                elif mag.denominator == 1:
                    body = f"{mag}{xk}"
                else:
                    body = f"({mag}){xk}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def poly_eval(p: Polynomial, x):
    """Evaluate p at x by Horner's rule.

    Works for any x supporting + and * with Fraction (ints, Fractions,
    QuadExt elements).  The result has the arithmetic type of x.
    """
    acc = x * 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_divmod(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Euclidean division: p = quot * q + rem with deg rem < deg q.

    Exact over Q, and in int whenever the leading coefficient of q
    divides the term being eliminated.  Raises ZeroDivisionError if q is
    zero.
    """
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {q.var!r}")
    if p.degree < q.degree:
        return Polynomial.zero(p.var), p
    rem = list(p.coeffs)
    qn = q.degree
    lc = q.leading_coefficient
    quot = [0] * (len(rem) - qn)
    for k in range(len(rem) - qn - 1, -1, -1):
        c = _div(rem[k + qn], lc)
        quot[k] = c
        if c:
            for i, b in enumerate(q.coeffs):
                rem[k + i] -= c * b
    return Polynomial(quot, var=p.var), Polynomial(rem[:qn], var=p.var)


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b, integer
    coefficient lists low degree first with len(a) >= len(b) >= 2.

    Each elimination scales the running remainder by lc(b)/g and
    subtracts (c/g) t^k b, g = gcd(c, lc(b)), so it stays integral and
    is a nonzero rational multiple of a mod b throughout.
    """
    rem = list(a)
    qn = len(b) - 1
    lc = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            g = gcd(c, lc)
            scale, c = lc // g, c // g
            if scale != 1:
                rem = [scale * x for x in rem]
            for i in range(qn):
                rem[k + i] -= c * b[i]
    while rem and not rem[-1]:
        rem.pop()
    if not rem:
        return rem
    g = gcd(*rem)
    return [x // g for x in rem]


def _primitive_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd(p, q) as a primitive integer polynomial with positive leading
    coefficient, by the primitive remainder sequence over Z; a rational
    input enters through its primitive part.  Zero only if both inputs
    are zero."""
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {q.var!r}")
    a = list(p.primitive_part().coeffs)
    b = list(q.primitive_part().coeffs)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive_remainder(a, b)
    if b:  # a nonzero constant: p and q are coprime
        a = [1]
    if a and a[-1] < 0:
        a = [-x for x in a]
    return Polynomial(a, var=p.var)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor; zero only if both inputs are zero."""
    return _primitive_gcd(p, q).monic()


def poly_resultant(p: Polynomial, q: Polynomial) -> Fraction:
    """Resultant of p and q in the Sylvester convention.

    res(p, q) = lc(p)**deg(q) * prod of q over the roots of p
              = (-1)**(deg p * deg q) * lc(q)**deg(p) * prod of p over
                the roots of q.

    Computed by the Euclidean remainder sequence:
    res(p, q) = (-1)**(deg p * deg q) * lc(q)**(deg p - deg r) * res(q, r)
    with r = p mod q.  Zero iff p and q share a root; a zero input gives
    zero, and two nonzero constants give one (empty Sylvester matrix).
    """
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {q.var!r}")
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if q.degree == 0:
        return Fraction(q.leading_coefficient) ** p.degree
    if p.degree == 0:
        return Fraction(p.leading_coefficient) ** q.degree
    sign = -1 if (p.degree * q.degree) % 2 else 1
    if p.degree < q.degree:
        return sign * poly_resultant(q, p)
    r = p % q
    if r.is_zero:
        return Fraction(0)
    factor = q.leading_coefficient ** (p.degree - r.degree)
    return sign * factor * poly_resultant(q, r)


def poly_discriminant(p: Polynomial) -> Fraction:
    """Discriminant of p, nonzero iff p is squarefree.

    disc(p) = (-1)**(m(m-1)/2) * res(p, p') / lc(p) with m = deg p.
    Requires deg p >= 1; a linear polynomial has discriminant 1.
    """
    m = p.degree
    if m < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    res = poly_resultant(p, p.derivative())
    return sign * res / Fraction(p.leading_coefficient)


@total_ordering
class QuadExt:
    """Element a + b*sqrt(2) of the field Q(sqrt 2).

    a and b are exact rationals, each stored as ``Polynomial`` stores a
    coefficient: an int when integral, else a reduced Fraction.  So the
    powers of 2 + sqrt2 stay in integer arithmetic, and arithmetic in this
    class is exact field arithmetic.  Instances are immutable and ordered
    by their real value; the order is decided by exact sign tests, never
    by floats.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: ScalarLike = 0, b: ScalarLike = 0) -> None:
        object.__setattr__(self, "_a", _coefficient(a))
        object.__setattr__(self, "_b", _coefficient(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    @property
    def a(self) -> ScalarLike:
        """Rational part."""
        return self._a

    @property
    def b(self) -> ScalarLike:
        """Coefficient of sqrt(2)."""
        return self._b

    @staticmethod
    def _coerce(x: object) -> QuadExt | None:
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x, 0)
        return None

    def __add__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self._a, -self._b)

    def __sub__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a - o._a, self._b - o._b)

    def __rsub__(self, other: object) -> QuadExt:
        return -(self - other)

    def __mul__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) with s^2 = 2
        return QuadExt(
            self._a * o._a + 2 * self._b * o._b,
            self._a * o._b + self._b * o._a,
        )

    __rmul__ = __mul__

    def conj(self) -> QuadExt:
        """Field conjugate a - b*sqrt(2); a ring automorphism."""
        return QuadExt(self._a, -self._b)

    def norm(self) -> ScalarLike:
        """Field norm a**2 - 2*b**2 = self * self.conj()."""
        return self._a * self._a - 2 * self._b * self._b

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadExt division by zero")
        return QuadExt(_div(self._a, n), _div(-self._b, n))

    def __truediv__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> QuadExt:
        if not isinstance(n, int):
            raise TypeError("QuadExt exponent must be an int")
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = QuadExt(1, 0)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2)."""
        a, b = self._a, self._b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # Mixed signs: compare a**2 against 2*b**2; the larger term wins.
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() < 0

    def __hash__(self) -> int:
        # Rational values must hash like their Fraction so that mixed
        # comparisons stay consistent with dict/set membership.
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __abs__(self) -> QuadExt:
        return -self if self._sign() < 0 else self

    def __repr__(self) -> str:
        return f"QuadExt({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        mag = abs(self._b)
        rad = "√2" if mag == 1 else f"{mag}√2"
        if self._a == 0:
            return rad if self._b > 0 else f"-{rad}"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a} {sign} {rad}"


SQRT2 = QuadExt(0, 1)


class RationalFunction:
    """Quotient of polynomials kept in a canonical reduced form.

    Canonical means gcd(num, den) = 1, both polynomials have integer
    coefficients with no common integer factor across the pair, and the
    denominator has positive leading coefficient.  That form is unique,
    so equality is structural comparison of the stored pair.  The zero
    function is 0/1.  The constructor divides out the gcd of the pair;
    from_coprime reaches the same form without it, for a pair proven
    coprime.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        # Dividing by the primitive gcd keeps integer parts integral
        # (Gauss's lemma), so the divisions below stay in int.
        g = _primitive_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        return cls.from_coprime(num, den)

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """num / den for a pair the caller has proven to share no root:
        the constructor's canonical form, without its gcd."""
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.var != den.var:
            raise ValueError(f"variable mismatch: {num.var!r} vs {den.var!r}")
        if num.is_zero:
            den = Polynomial.one(den.var)
        # Joint rescale: one rational multiplier clears all coefficient
        # denominators and the shared integer content at once, so the
        # pair (not each part separately) is primitive.
        ints = _primitive_ints(num.coeffs + den.coeffs)
        if den.leading_coefficient < 0:
            ints = [-i for i in ints]
        split = len(num.coeffs)
        rf = object.__new__(cls)
        object.__setattr__(rf, "_num", Polynomial(ints[:split], var=num.var))
        object.__setattr__(rf, "_den", Polynomial(ints[split:], var=num.var))
        return rf

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalFunction is immutable")

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def var(self) -> str:
        return self._num.var

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @classmethod
    def zero(cls, var: str = "t") -> RationalFunction:
        return cls.from_coprime(Polynomial.zero(var), Polynomial.one(var))

    def _coerce(self, other: object) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            if other.var != self.var:
                raise ValueError(
                    f"variable mismatch: {self.var!r} vs {other.var!r}"
                )
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other, Polynomial.one(other.var))
        if isinstance(other, (int, Fraction)):
            return RationalFunction(
                Polynomial.constant(other, var=self.var),
                Polynomial.one(self.var),
            )
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self._num * o._den + o._num * self._den, self._den * o._den
        )

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> RationalFunction:
        return -(self - other)

    def __mul__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def series_coefficients(self, m_max: int) -> list[ScalarLike]:
        """Taylor coefficients c_0 .. c_m_max of the expansion at 0.

        Requires den(0) != 0.  Computed by exact long division:
        c_m = (num_m - sum den_k c_{m-k}) / den_0.
        """
        if m_max < 0:
            raise ValueError("m_max must be >= 0")
        d0 = self._den[0]
        if d0 == 0:
            raise ZeroDivisionError("series expansion at a pole of the function")
        out: list[ScalarLike] = []
        for m in range(m_max + 1):
            s = self._num[m]
            for k in range(1, min(m, self._den.degree) + 1):
                s -= self._den[k] * out[m - k]
            out.append(_div(s, d0))
        return out

    def __repr__(self) -> str:
        return f"RationalFunction({self._num!r}, {self._den!r})"

    def __str__(self) -> str:
        if self._den == Polynomial.one(self.var):
            return str(self._num)
        num = str(self._num)
        if " " in num:
            num = f"({num})"
        return f"{num} / ({self._den})"
