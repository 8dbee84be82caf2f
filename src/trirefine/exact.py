"""Exact arithmetic for angles produced by repeated angle bisection.

Bisecting the largest angle of a triangle only ever halves an angle or
adds a halved angle to an existing one, so every angle in the process is
a combination ``c_a*alpha + c_b*beta + c_g*gamma`` whose coefficients are
dyadic rationals (p / 2**k), which ``AngleForm`` holds as ``Fraction``s.
The forms state the carrier closed form the verifier checks.  Values are
integers over one scale, the base's ``q * 2**shift`` (``BaseAngles.units``),
exact at any depth: the refinement carries its angles that way, and
``carrier_major_minor`` is the one integer evaluator of the carrier, by its
closed form major(n) = 2(alpha + beta)/3 + d_n and
minor(n) = (alpha + beta)/3 - d_n, with d_n = (-1)**n (alpha - 2 beta) /
(3 * 2**n); ``first_major_angle_collision`` and the verifier's carrier
checks call it.
``evaluate_angle_form`` is a form's exact ``Fraction`` value in degrees.

Angles are measured in degrees throughout this module; conversion to
radians happens only at the numeric geometry boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _fraction(value, what: str) -> Fraction:
    """``value`` as a ``Fraction``; ``ValueError`` unless ``Fraction``
    reads it as a finite rational, and it is not a ``bool`` (which
    ``Fraction`` would read as 0 or 1)."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, TypeError):
            pass
    raise ValueError(f"{what} {value!r} is not a number")


def check_int(value, name: str, minimum: int | None = None) -> None:
    """``ValueError`` unless ``value`` is an ``int``, not a ``bool``, and at
    least ``minimum`` if given: the rule for every integer argument (a
    count, a depth, a seed)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True, slots=True)
class AngleForm:
    """One triangle angle written as c_alpha*alpha + c_beta*beta + c_gamma*gamma.

    Coefficients are nonnegative ``Fraction``s whose denominators are powers
    of two; the constructor rejects any other value, a ``bool``, an
    infinity or a non-number too, with ``ValueError``.  A form
    is immutable, and equal forms hash equal.  The three forms of any
    triangle sum coefficient-wise to (1, 1, 1), mirroring the 180-degree sum.
    """

    c_alpha: Fraction
    c_beta: Fraction
    c_gamma: Fraction

    def __post_init__(self) -> None:
        for name in ("c_alpha", "c_beta", "c_gamma"):
            c = _fraction(getattr(self, name), "angle form coefficient")
            object.__setattr__(self, name, c)
            if c.numerator < 0 or c.denominator & (c.denominator - 1):
                raise ValueError(
                    f"angle form coefficient {c} is not a nonnegative p/2**k")

    def halve(self) -> "AngleForm":
        return AngleForm(self.c_alpha / 2, self.c_beta / 2, self.c_gamma / 2)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        if not isinstance(other, AngleForm):
            return NotImplemented
        return AngleForm(
            self.c_alpha + other.c_alpha,
            self.c_beta + other.c_beta,
            self.c_gamma + other.c_gamma,
        )

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c_alpha, self.c_beta, self.c_gamma)

    def __repr__(self) -> str:
        return f"AngleForm({self.c_alpha}*a + {self.c_beta}*b + {self.c_gamma}*g)"


FORM_ALPHA = AngleForm(1, 0, 0)
FORM_BETA = AngleForm(0, 1, 0)
FORM_GAMMA = AngleForm(0, 0, 1)


@dataclass(frozen=True)
class BaseAngles:
    """The three starting angles as exact rational degrees, alpha >= beta >= gamma.

    Each angle is read by ``Fraction``; a ``bool``, an infinity or a
    non-number is refused with ``ValueError``, as is a bad sum or order.
    The hash is computed once, in ``__post_init__``, as
    ``hash(base.as_tuple())``, the value the generated method would give:
    a base keys the verifier's memo through every ``RefinementRun``, and
    ``Fraction.__hash__`` runs in Python.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _fraction(getattr(self, name),
                                                     "angle"))
        if self.alpha + self.beta + self.gamma != 180:
            raise ValueError(
                f"angles must sum to 180 degrees exactly, got "
                f"{self.alpha} + {self.beta} + {self.gamma}"
            )
        if not (self.alpha >= self.beta >= self.gamma > 0):
            raise ValueError(
                f"angles must satisfy alpha >= beta >= gamma > 0, got "
                f"({self.alpha}, {self.beta}, {self.gamma})"
            )
        object.__setattr__(self, "_hash", hash(self.as_tuple()))

    @classmethod
    def from_unordered(cls, a, b, c) -> "BaseAngles":
        """Build from three positive rationals in any order (labels sorted descending)."""
        return cls(*sorted((_fraction(x, "angle") for x in (a, b, c)),
                           reverse=True))

    def __hash__(self) -> int:
        return self._hash

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma)

    def units(self, shift: int) -> tuple[tuple[int, int, int], int]:
        """(alpha, beta, gamma) in units of 1/scale degrees, and the scale
        ``q << shift``, q the lcm of their denominators: each integer can
        be halved exactly ``shift`` times, an int >= 0 by ``check_int``."""
        check_int(shift, "shift", 0)
        return _scaled(self.as_tuple(), shift)


def _scaled(values, shift: int) -> tuple[tuple[int, ...], int]:
    """Rationals ``values`` as integers over one scale ``q << shift``, q the
    lcm of their denominators, and that scale."""
    q = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (q // v.denominator) << shift
                 for v in values), q << shift


def evaluate_angle_form(form: AngleForm, base: BaseAngles) -> Fraction:
    """Instantiate a symbolic angle at concrete base angles, exactly, in
    degrees: the ``Fraction`` sum c_alpha*alpha + c_beta*beta + c_gamma*gamma."""
    return (form.c_alpha * base.alpha + form.c_beta * base.beta
            + form.c_gamma * base.gamma)


def jacobsthal(n: int) -> int:
    """n-th term of 0, 1, 1, 3, 5, 11, 21, 43, ... (j(n+1) = j(n) + 2*j(n-1)).

    Uses the closed form (2**n - (-1)**n) / 3, which is exact for all n >= 0.
    """
    check_int(n, "n", 0)
    return ((1 << n) - (1 if n % 2 == 0 else -1)) // 3


@lru_cache(maxsize=64)
def carrier_angle_forms(n: int) -> tuple[AngleForm, AngleForm]:
    """Closed form for the two mutable angles of the generation-n carrier triangle.

    The carrier is the unique triangle of generation n that still holds the
    starting triangle's gamma angle; its other two angles are

        major(n) = j(n+1)/2**n * alpha + j(n)/2**(n-1) * beta
        minor(n) = j(n)/2**n   * alpha + j(n-1)/2**(n-1) * beta

    where j is the ``jacobsthal`` sequence.  major(n) is the angle bisected
    on the way to generation n+1; major(n) > minor(n) and major(n) >= gamma
    for every valid base, as ``carrier_major_minor`` proves.

    The forms do not depend on the base, so they are built once per ``n``
    (the last 64 are kept) and every caller shares the returned objects.
    """
    check_int(n, "n", 1)
    major = AngleForm(Fraction(jacobsthal(n + 1), 1 << n),
                      Fraction(jacobsthal(n), 1 << (n - 1)), 0)
    minor = AngleForm(Fraction(jacobsthal(n), 1 << n),
                      Fraction(jacobsthal(n - 1), 1 << (n - 1)), 0)
    return major, minor


def carrier_major_minor(n: int, a: int, b: int) -> tuple[int, int]:
    """The carrier's (major(n), minor(n)) at alpha = ``a`` and beta = ``b``
    in the units of ``BaseAngles.units(shift)``, shift >= n, in the same
    units: the one integer evaluator of the carrier, by the closed form of
    ``carrier_angle_forms(n)``

        major(n) = 2(alpha + beta)/3 + d_n,  minor(n) = (alpha + beta)/3 - d_n,
        d_n = (-1)**n (alpha - 2 beta) / (3 * 2**n).

    ``n`` is an int >= 1 by ``check_int``; ``ValueError`` unless ``a`` and
    ``b`` are multiples of 2**n.

    Both divisions by 3 are exact.  With a = 2**n A and b = 2**n B, the
    numerators are 2**(n+1) (A + B) + (-1)**n (A - 2B) and
    2**n (A + B) - (-1)**n (A - 2B); as 2**n = (-1)**n (mod 3), they are
    (-1)**n 3A and (-1)**n 3B (mod 3).

    |d_n| = |alpha - 2 beta| / (3 * 2**n) halves with each n, so for
    alpha != 2 beta it strictly decreases: the majors, a constant plus d_n,
    are pairwise distinct.  alpha = 2 beta makes every d_n 0, and then
    major(n) = 2 (3 beta)/3 = alpha for every n.

    For a valid base (alpha >= beta >= gamma > 0), major - minor =
    (alpha + beta)/3 + 2 d_n > 0: |2 d_n| <= |alpha - 2 beta|/3 for n >= 1,
    and |alpha - 2 beta| < alpha + beta because 0 < beta < 2 alpha.  So
    major > (major + minor)/2 = (180 - gamma)/2 >= gamma, as gamma <= 60.
    """
    check_int(n, "n", 1)
    if (a | b) & ((1 << n) - 1):
        raise ValueError(f"angle units {a}, {b} are not multiples of 2**{n}")
    d = (a - 2 * b) >> n
    if n & 1:
        d = -d
    return (2 * (a + b) + d) // 3, (a + b - d) // 3


def first_major_angle_collision(alpha: Fraction, beta: Fraction,
                                n_max: int) -> tuple[int, int] | None:
    """First (p, q), p < q <= n_max, with major(p) == major(q), or None.

    major(n) is the carrier's major angle, evaluated exactly at any
    positive (alpha, beta) in either order by ``carrier_major_minor``, as
    an integer at the scale ``q * 2**n_max``, q the lcm of their
    denominators.  Equal values occur only when alpha == 2*beta; then every
    major(n) is alpha.  alpha and beta are read as ``BaseAngles`` reads an
    angle.
    """
    check_int(n_max, "n_max", 1)
    alpha, beta = _fraction(alpha, "alpha"), _fraction(beta, "beta")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    (a, b), _ = _scaled((alpha, beta), n_max)
    seen: dict[int, int] = {}
    for n in range(1, n_max + 1):
        value = carrier_major_minor(n, a, b)[0]
        if value in seen:
            return (seen[value], n)
        seen[value] = n
    return None
