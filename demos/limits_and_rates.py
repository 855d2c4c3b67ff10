"""
Where the table is heading: sqrt2/2 and sqrt2/4
===============================================

As the right barrier moves away, the first-column probabilities
p_1^(n) do not approach 1 or 3/4 but sqrt2/2 = 0.7071... -- the walk
escapes to the far barrier with probability 1 - sqrt2/2 even when it
starts next door to the near one.  The middle of the row tends to
sqrt2/4.  Both limits are reached geometrically with ratio
rho = 3 - 2 sqrt2 = 0.1715..., and because all arithmetic here is
exact, the error really is sandwiched, not just estimated.
"""

import decimal
from fractions import Fraction

from hadwalk import QuadExt, p_exact

SQRT2_OVER_2 = QuadExt(0, Fraction(1, 2))
RHO = QuadExt(3, -2)  # 3 - 2 sqrt2

# float(x) cancels catastrophically once the gap is below ~1e-16; 60
# digits leave dozens to spare at the smallest gap printed (~1e-22).
CTX = decimal.Context(prec=60)
SQRT2 = CTX.sqrt(2)


def approx(x: QuadExt) -> decimal.Decimal:
    def dec(q: Fraction) -> decimal.Decimal:
        return CTX.divide(q.numerator, q.denominator)

    return CTX.add(dec(x.a), CTX.multiply(SQRT2, dec(x.b)))


print("n     p_1^(n)                   gap to sqrt2/2   gap / rho^(n-1)")
for n in (2, 3, 5, 8, 12, 17, 23, 30):
    p = p_exact(1, n)
    gap = SQRT2_OVER_2 - p  # exact element of Q(sqrt 2), always > 0
    ratio = gap / RHO ** (n - 1)
    print(f"{n:<4}  {str(p):<24}  {approx(gap):<15.4g}  "
          f"{approx(ratio):.7g}")

# The last column settles between 0.7071 and 1.4142: the gap is
# provably between (sqrt2/2) rho^(n-1) and sqrt2 rho^(n-1).  Checked
# exactly, with no floating point involved in the comparison:
for n in range(2, 31):
    gap = SQRT2_OVER_2 - p_exact(1, n)
    power = RHO ** (n - 1)
    assert SQRT2_OVER_2 * power < gap < 2 * SQRT2_OVER_2 * power

print()
print("sandwich (sqrt2/2) rho^(n-1) < sqrt2/2 - p_1^(n) < sqrt2 rho^(n-1)")
print("holds exactly for every n up to 30")

# The center of the row converges to sqrt2/4 (so the two exits split
# roughly 35% / 65% far from both barriers).
center_gap = abs(QuadExt(p_exact(20, 40)) - QuadExt(0, Fraction(1, 4)))
assert center_gap < Fraction(1, 10 ** 8)
print(f"center of row n=40 is within 1e-8 of sqrt2/4 "
      f"(p_20^(40) = {p_exact(20, 40)})")
