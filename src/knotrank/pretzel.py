"""The odd pretzel knot family and its genus-1 witness sequence.

Covers the closed-form Alexander polynomial, the witness knots indexed
by n with top knot-Floer rank 2n^2 - 2n + 1, and stabilization by
trefoil connected sums.
"""

from __future__ import annotations

from ._frozen import Frozen, json_int
from .laurent import LaurentPoly


class UnsupportedStabilized(ValueError):
    """The bigraded rank table only covers unstabilized witnesses."""


class AlreadyStabilized(ValueError):
    """Stabilization starts from an unstabilized witness."""


class PretzelKnot(Frozen):
    """The pretzel knot P(2l+1, 2m+1, 2n+1), stored by its (l, m, n) parameters."""

    __slots__ = ("l", "m", "n")
    l: int
    m: int
    n: int

    def __init__(self, l: int, m: int, n: int) -> None:
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def strands(self) -> tuple[int, int, int]:
        """The odd half-twist counts of the three bands."""
        return (2 * self.l + 1, 2 * self.m + 1, 2 * self.n + 1)

    @classmethod
    def from_strands(cls, a: int, b: int, c: int) -> "PretzelKnot":
        for v in (a, b, c):
            if v % 2 == 0:
                raise ValueError(f"strand value {v} is even; pretzel strands must be odd")
        return cls((a - 1) // 2, (b - 1) // 2, (c - 1) // 2)


def alexander_closed_form(knot: PretzelKnot) -> LaurentPoly:
    """Normalized Alexander polynomial c*(t-1)^2 + t with c = 1+l+m+n+lm+mn+nl."""
    l, m, n = knot.l, knot.m, knot.n
    c = 1 + l + m + n + l * m + m * n + n * l
    return LaurentPoly(0, (c, 1 - 2 * c, c)).normalize()


class WitnessKnot(Frozen):
    """The index-n witness pretzel knot P(-2n+1, 2n+1, 2n^2+1), possibly stabilized.

    ``stab_count`` trefoil summands raise the genus to ``stab_count + 1``
    without changing the top knot-Floer rank.
    """

    __slots__ = ("index", "stab_count")
    index: int
    stab_count: int

    def __init__(self, index: int, stab_count: int = 0) -> None:
        if index < 1:
            raise ValueError(f"witness index must be >= 1, got {index}")
        if stab_count < 0:
            raise ValueError(f"stab_count must be >= 0, got {stab_count}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "stab_count", stab_count)

    @property
    def base(self) -> PretzelKnot:
        return PretzelKnot(-self.index, self.index, self.index * self.index)

    @property
    def strands(self) -> tuple[int, int, int]:
        """``base.strands``, (1 - 2n, 2n + 1, 2n^2 + 1), without building the base knot."""
        n = self.index
        return (1 - 2 * n, 2 * n + 1, 2 * n * n + 1)

    @property
    def genus(self) -> int:
        return self.stab_count + 1

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "stab": self.stab_count,
            "pretzel": list(self.strands),
            "genus": self.genus,
            "top_rank": hfk_top_rank(self),
        }

    @classmethod
    def from_json(cls, data: dict) -> "WitnessKnot":
        try:
            index = data["index"]
            stab = data.get("stab", 0)
        except (KeyError, TypeError) as exc:
            raise ValueError("witness JSON needs an 'index' field") from exc
        return cls(json_int(index, "'index'"), json_int(stab, "'stab'"))


def witness(n: int) -> WitnessKnot:
    """The n-th witness knot, unstabilized."""
    return WitnessKnot(n)


def hfk_top_rank(w: WitnessKnot) -> int:
    """Rank of the top-grading knot Floer homology: 2n^2 - 2n + 1.

    Stabilization by trefoils (rank-1 fibered summands) leaves the top
    rank unchanged, so the value depends only on the index.
    """
    n = w.index
    return 2 * n * n - 2 * n + 1


def hfk_bigraded(w: WitnessKnot) -> list[tuple[int, int]]:
    """Maslov-graded split (1, n^2-n), (2, n^2-n+1) of the top rank."""
    if w.stab_count:
        raise UnsupportedStabilized(
            "the bigraded split is only tabulated for unstabilized witnesses"
        )
    n = w.index
    return [(1, n * n - n), (2, n * n - n + 1)]


def stabilize(w: WitnessKnot, k: int) -> WitnessKnot:
    """Connected-sum w with k trefoils, giving genus k + 1."""
    if w.stab_count:
        raise AlreadyStabilized(f"witness already carries {w.stab_count} trefoil summands")
    if k < 0:
        raise ValueError(f"stabilization count must be >= 0, got {k}")
    return WitnessKnot(w.index, k)


def alexander_of_witness(w: WitnessKnot) -> LaurentPoly:
    """Alexander polynomial of the (possibly stabilized) witness: (1 - t + t^2)^genus.

    The base P(-2n+1, 2n+1, 2n^2+1) has (l, m, n) = (-n, n, n^2), so the
    closed form's c = 1 + l + m + n + lm + mn + nl is 1 - n + n + n^2 -
    n^2 + n^3 - n^3 = 1, and c*(t-1)^2 + t is the trefoil's 1 - t + t^2
    for every index.  Connected sums multiply Alexander polynomials, so
    stab_count trefoil summands make it (1 - t + t^2)^(stab_count + 1).

    The power is computed by J.C.P. Miller's formula for the powers of a
    power series (Knuth, TAOCP vol. 2, section 4.7): for f = q^g with
    q_0 = 1, j * f_j = sum over a of ((g + 1) * a - j) * q_a * f_(j - a).
    With q = 1 - t + t^2, that is q_1 = -1 and q_2 = 1, it has two terms:
    j * f_j = (j - g - 1) * f_(j - 1) + (2g + 2 - j) * f_(j - 2), with
    f_0 = 1 and f_1 = -g.  Every f_j is an integer, so each division by j
    is exact.  q is a palindrome, so f is one too: f_0..f_g are computed
    and mirrored.
    """
    g = w.genus
    f = [1, -g]
    for j in range(2, g + 1):
        f.append(((j - g - 1) * f[j - 1] + (2 * g + 2 - j) * f[j - 2]) // j)
    return LaurentPoly(0, f + f[g - 1 :: -1])
