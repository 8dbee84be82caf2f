"""Exact arithmetic for angles produced by repeated angle bisection.

Bisecting the largest angle of a triangle only ever halves an angle or
adds a halved angle to an existing one, so every angle in the process is
a combination ``c_a*alpha + c_b*beta + c_g*gamma`` whose coefficients are
dyadic rationals (p / 2**k), which ``AngleForm`` holds as ``Fraction``s.
The forms state the carrier closed form the verifier checks.  Values are
integers over one scale, the base's ``q * 2**shift`` (``BaseAngles.units``),
exact at any depth: the refinement carries its angles that way, and
``terms_units`` is the one evaluator of a form that way, on its coefficients
decoded to integer pairs (p, m) for p/2**m.  ``form_units`` decodes a form
and refuses a denominator above the scale's 2**shift; ``carrier_terms``
decodes the carrier forms once per generation n, for
``first_major_angle_collision`` and the verifier's carrier checks.

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


Terms = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def _terms(form: AngleForm) -> Terms:
    """``form``'s coefficients decoded: (p, m) for each coefficient p/2**m."""
    return tuple((p, d.bit_length() - 1) for p, d in
                 (c.as_integer_ratio() for c in form.coefficients()))


def terms_units(terms: Terms, units: tuple[int, int, int]) -> int:
    """The value of decoded coefficients ``terms`` at angles ``units`` from
    ``BaseAngles.units(shift)``, in the same units of 1/(q * 2**shift)
    degrees: each (p, m) contributes p * (u >> m), exact while m <= shift,
    because every unit u is a multiple of 2**shift."""
    (pa, ma), (pb, mb), (pg, mg) = terms
    a, b, g = units
    return pa * (a >> ma) + pb * (b >> mb) + pg * (g >> mg)


def form_units(form: AngleForm, units: tuple[int, int, int], shift: int) -> int:
    """The value of ``form`` at angles ``units`` from ``BaseAngles.units(shift)``,
    by ``terms_units``; a coefficient p/2**m with m > shift raises
    ``ValueError``.
    """
    terms = _terms(form)
    for c, (_, m) in zip(form.coefficients(), terms):
        if m > shift:
            raise ValueError(
                f"angle form coefficient {c} has a denominator above "
                f"2**{shift}")
    return terms_units(terms, units)


def evaluate_angle_form(form: AngleForm, base: BaseAngles) -> Fraction:
    """Instantiate a symbolic angle at concrete base angles, exactly, in degrees."""
    shift = max(c.denominator for c in form.coefficients()).bit_length() - 1
    units, scale = base.units(shift)
    return Fraction(form_units(form, units, shift), scale)


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
    on the way to generation n+1; major(n) >= minor(n) and major(n) >= gamma
    for every valid base.

    The forms do not depend on the base, so they are built once per ``n``
    (the last 64 are kept) and every caller shares the returned objects.
    """
    check_int(n, "n", 1)
    major = AngleForm(Fraction(jacobsthal(n + 1), 1 << n),
                      Fraction(jacobsthal(n), 1 << (n - 1)), 0)
    minor = AngleForm(Fraction(jacobsthal(n), 1 << n),
                      Fraction(jacobsthal(n - 1), 1 << (n - 1)), 0)
    return major, minor


@lru_cache(maxsize=64)
def carrier_terms(n: int) -> tuple[Terms, Terms]:
    """``carrier_angle_forms(n)`` decoded for ``terms_units``, once per int
    ``n`` (the last 64 are kept): exact at any shift >= n, the largest
    denominator being 2**n.  Keyed by ``n``, not by a form, whose hash runs
    three ``Fraction.__hash__`` calls."""
    major, minor = carrier_angle_forms(n)
    return _terms(major), _terms(minor)


def first_major_angle_collision(alpha: Fraction, beta: Fraction,
                                n_max: int) -> tuple[int, int] | None:
    """First (p, q), p < q <= n_max, with major(p) == major(q), or None.

    major(n) is the major form of ``carrier_angle_forms(n)``, evaluated
    exactly at any positive (alpha, beta) in either order, by
    ``terms_units`` on ``carrier_terms(n)``, as an integer at the scale
    ``q * 2**n_max``, q the lcm of their denominators.  Equal
    values occur only when alpha == 2*beta; then every major(n) is alpha.
    alpha and beta are read as ``BaseAngles`` reads an angle.
    """
    check_int(n_max, "n_max", 1)
    alpha, beta = _fraction(alpha, "alpha"), _fraction(beta, "beta")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    units, _ = _scaled((alpha, beta, 0), n_max)
    seen: dict[int, int] = {}
    for n in range(1, n_max + 1):
        value = terms_units(carrier_terms(n)[0], units)
        if value in seen:
            return (seen[value], n)
        seen[value] = n
    return None

