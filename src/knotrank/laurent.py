"""Exact Laurent polynomials over arbitrary-precision integers.

A polynomial is stored as the exponent of its lowest term plus a dense
coefficient tuple; both ends of the tuple are kept nonzero by the
constructor, so structural equality is semantic equality.  All values
are immutable: every operation returns a new polynomial, or the same
one where nothing changes (``normalize`` of a normal polynomial).
"""

from __future__ import annotations

from ._frozen import Frozen, json_int

# Sequence and Fraction in annotations are collections.abc's and fractions';
# annotations are never evaluated, so neither module loads at start-up.


class ZeroPolynomial(ValueError):
    """The operation needs a nonzero polynomial."""


class NotUnitAtOne(ValueError):
    """Normalization needs value +-1 at t = 1."""


class PoleAtZero(ValueError):
    """Evaluation at t = 0 hit a negative exponent."""


class LaurentPoly(Frozen):
    """An integer Laurent polynomial in one variable t.

    ``coeffs[i]`` is the coefficient of ``t**(lowest + i)``.  The zero
    polynomial is ``LaurentPoly(0, ())``; any all-zero input collapses
    to it.

    >>> str(LaurentPoly(0, (1, -1, 1)))
    '1 - t + t^2'
    >>> LaurentPoly(2, (0, 0, 7)) == LaurentPoly(4, (7,))
    True
    """

    __slots__ = ("lowest", "coeffs")
    lowest: int
    coeffs: tuple[int, ...]

    def __init__(self, lowest: int = 0, coeffs: Sequence[int] = ()) -> None:
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "lowest", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "lowest", lowest + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic: products only, with no sum, difference or power -------

    def __mul__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.lowest, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return LaurentPoly(self.lowest + other.lowest, out)

    __rmul__ = __mul__

    # -- the operations the rest of the package is built on --------------

    def degree_span(self) -> int:
        """Highest exponent minus lowest exponent.

        >>> LaurentPoly(-2, (1, 0, 0, 0, 1)).degree_span()
        4
        """
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no degree span")
        return len(self.coeffs) - 1

    def eval_at(self, x: int | Fraction) -> int | Fraction:
        """Exact evaluation at a rational point.

        Evaluation at 0 is only defined when no negative exponent is
        present; everywhere else negative exponents produce exact
        fractions.
        """
        if x == 0:
            if self.lowest < 0:
                raise PoleAtZero(f"t^{self.lowest} term has a pole at t = 0")
            if not self.coeffs:
                return 0
            return self.coeffs[0] if self.lowest == 0 else 0
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.lowest >= 0 and isinstance(x, int):
            return acc * x**self.lowest
        from fractions import Fraction  # imported here to keep it out of start-up

        acc = acc * Fraction(x) ** self.lowest
        if isinstance(acc, Fraction) and acc.denominator == 1:
            return int(acc)
        return acc

    def normalize(self) -> "LaurentPoly":
        """Canonical form: lowest exponent 0 and value +1 at t = 1.

        Well defined exactly for polynomials with value +-1 at t = 1,
        which covers every Alexander polynomial of a knot.  Idempotent:
        a polynomial that is already normal is returned as it is.
        """
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        at_one = sum(self.coeffs)
        if at_one not in (1, -1):
            raise NotUnitAtOne(f"value at t = 1 is {at_one}, expected +1 or -1")
        if at_one == 1 and self.lowest == 0:
            return self
        coeffs = self.coeffs if at_one == 1 else tuple(-c for c in self.coeffs)
        return LaurentPoly(0, coeffs)

    def is_symmetric(self) -> bool:
        """True when the coefficient list is a palindrome up to one global sign."""
        if not self.coeffs:
            raise ZeroPolynomial("symmetry is undefined for the zero polynomial")
        rev = tuple(reversed(self.coeffs))
        return rev == self.coeffs or rev == tuple(-c for c in self.coeffs)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"lowest": self.lowest, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        try:
            lowest = data["lowest"]
            coeffs = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError("polynomial JSON needs 'lowest' and 'coeffs'") from exc
        json_int(lowest, "'lowest'")
        if not isinstance(coeffs, list):
            raise ValueError("'coeffs' must be a list of integers")
        return cls(lowest, [json_int(c, "a 'coeffs' entry") for c in coeffs])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs, start=self.lowest):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
