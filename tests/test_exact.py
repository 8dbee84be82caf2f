"""Tests for the exact angle arithmetic layer."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exact_reference import reference_major_collision, reference_value
from trirefine.engine import RefinementRun
from trirefine.exact import (
    AngleForm,
    BaseAngles,
    FORM_ALPHA,
    FORM_BETA,
    FORM_GAMMA,
    carrier_angle_forms,
    carrier_major_minor,
    evaluate_angle_form,
    first_major_angle_collision,
    jacobsthal,
)
from trirefine.geometry import ProcedureKind
from trirefine.verifier import (
    ANGLE_FIXTURES,
    COLLISION_PAIRS,
    check_major_angles_distinct,
    random_valid_base,
)

EQUILATERAL = BaseAngles(Fraction(60), Fraction(60), Fraction(60))
RIGHT_ISOSCELES = BaseAngles(Fraction(90), Fraction(45), Fraction(45))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def recurrence_carrier_forms(n: int) -> tuple[AngleForm, AngleForm]:
    """Oracle: build (major, minor) by the one-step recurrence instead of the
    closed form.  Splitting the carrier's major angle sends
    major -> major/2 + minor and minor -> major/2."""
    major = FORM_ALPHA.halve() + FORM_BETA
    minor = FORM_ALPHA.halve()
    for _ in range(n - 1):
        major, minor = major.halve() + minor, major.halve()
    return major, minor


def recurrence_major_values(alpha, beta, n_max: int) -> list[Fraction]:
    """Oracle: major(1..n_max) at (alpha, beta) by the same one-step
    recurrence on values, starting at (major, minor) = (alpha/2 + beta,
    alpha/2)."""
    major, minor = Fraction(alpha) / 2 + beta, Fraction(alpha) / 2
    values = []
    for _ in range(n_max):
        values.append(major)
        major, minor = major / 2 + minor, major / 2
    return values


def recurrence_jacobsthal(n: int) -> int:
    """Oracle: the defining recurrence j(n+1) = j(n) + 2*j(n-1)."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, b + 2 * a
    return a


# ---------------------------------------------------------------------------
# AngleForm coefficients
# ---------------------------------------------------------------------------

class TestAngleForm:
    def test_rejects_non_dyadic_or_negative_coefficient(self):
        with pytest.raises(ValueError):
            AngleForm(Fraction(1, 3), 0, 0)
        with pytest.raises(ValueError):
            AngleForm(0, -1, 0)

    @pytest.mark.parametrize("coefficients", [(True, 0, 0), (0, False, 0),
                                              (1, 0, True)])
    def test_rejects_bool_coefficient(self, coefficients):
        # Fraction(True) is 1: without the check, AngleForm(True, 0, 0)
        # would equal FORM_ALPHA.
        flag = next(c for c in coefficients if isinstance(c, bool))
        with pytest.raises(ValueError, match=f"^angle form coefficient "
                                             f"{flag} is not a number$"):
            AngleForm(*coefficients)

    @pytest.mark.parametrize("coefficients", [
        (math.inf, 0, 0), (0, -math.inf, 0), (math.nan, 0, 0), (None, 0, 0),
        (0, 0, "half"), (0, 0, object()),
    ], ids=["inf", "minus-inf", "nan", "none", "text", "object"])
    def test_rejects_non_finite_or_non_numeric_coefficient(self, coefficients):
        # Fraction raises OverflowError, TypeError or ValueError for these;
        # the form refuses each with ValueError, as positive_float does.
        with pytest.raises(ValueError, match="^angle form coefficient .* "
                                             "is not a number$"):
            AngleForm(*coefficients)

    def test_add_and_halve(self):
        half = FORM_ALPHA.halve()
        assert half.coefficients() == (Fraction(1, 2), 0, 0)
        assert half.halve() + half == AngleForm(Fraction(3, 4), 0, 0)
        assert half + half == FORM_ALPHA

    def test_repr(self):
        form = carrier_angle_forms(2)[0]
        assert repr(form) == "AngleForm(3/4*a + 1/2*b + 0*g)"

    def test_cached_forms_are_frozen(self):
        # carrier_angle_forms shares its forms with every caller, so none
        # may change them.
        major = carrier_angle_forms(3)[0]
        before = major.coefficients()
        with pytest.raises(dataclasses.FrozenInstanceError):
            major.c_alpha = Fraction(0)
        assert carrier_angle_forms(3)[0].coefficients() == before
        assert before == (Fraction(5, 8), Fraction(3, 4), 0)

    def test_value_semantics(self):
        form = AngleForm(1, 0, 0)
        assert form == FORM_ALPHA and hash(form) == hash(FORM_ALPHA)
        assert all(type(c) is Fraction for c in form.coefficients())
        assert form != (1, 0, 0) and (1, 0, 0) != form
        assert len({form, FORM_ALPHA, FORM_BETA}) == 2

    @given(st.integers(-10**9, 10**9), st.integers(0, 60))
    def test_halve_add_roundtrip(self, num, k):
        c = Fraction(abs(num), 1 << k)
        x = AngleForm(c, c / 2, 1)
        assert (x + x).halve() == x


# ---------------------------------------------------------------------------
# Jacobsthal sequence
# ---------------------------------------------------------------------------

class TestJacobsthal:
    def test_known_values(self):
        assert [jacobsthal(n) for n in range(8)] == [0, 1, 1, 3, 5, 11, 21, 43]
        assert jacobsthal(5) == 11
        assert jacobsthal(7) == 43

    def test_closed_form_matches_recurrence(self):
        for n in range(65):
            assert jacobsthal(n) == recurrence_jacobsthal(n)

    def test_sum_identity(self):
        for n in range(65):
            assert jacobsthal(n) + jacobsthal(n + 1) == 2**n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jacobsthal(-1)

    @pytest.mark.parametrize("n", [True, False, 1.5, 3.0, "3", None])
    def test_rejects_bool_or_non_int(self, n):
        # Without the check, jacobsthal(True) would be 1 and a float would
        # raise TypeError.
        with pytest.raises(ValueError, match=r"^n must be an int, got "):
            jacobsthal(n)


# ---------------------------------------------------------------------------
# BaseAngles
# ---------------------------------------------------------------------------

class TestBaseAngles:
    def test_coercion(self):
        base = BaseAngles(90, 45, 45)
        assert base.alpha == Fraction(90)

    def test_sum_must_be_180(self):
        with pytest.raises(ValueError):
            BaseAngles(Fraction(90), Fraction(45), Fraction(46))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BaseAngles(Fraction(80), Fraction(40), Fraction(60))
        with pytest.raises(ValueError):
            BaseAngles(Fraction(180), Fraction(0), Fraction(0))

    def test_from_unordered_sorts(self):
        base = BaseAngles.from_unordered(40, 80, 60)
        assert base.as_tuple() == (Fraction(80), Fraction(60), Fraction(40))
        base = BaseAngles.from_unordered(Fraction(1, 2), "179", 0.5)
        assert base.as_tuple() == (179, Fraction(1, 2), Fraction(1, 2))
        assert all(type(x) is Fraction for x in base.as_tuple())

    @pytest.mark.parametrize("build", [
        lambda: BaseAngles(178, True, True),
        lambda: BaseAngles(180, False, False),
        lambda: BaseAngles.from_unordered(True, 178, True),
        lambda: BaseAngles.from_unordered(178, 1, True),
    ], ids=["ordered", "false", "unordered", "unordered-one"])
    def test_rejects_bool_angle(self, build):
        # Fraction(True) is 1: without the check (178, True, True) would
        # run as (178, 1, 1).
        with pytest.raises(ValueError, match=r"^angle (True|False) is not "
                                             r"a number$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: BaseAngles(math.inf, 60, 60),
        lambda: BaseAngles(60, 60, -math.inf),
        lambda: BaseAngles(math.nan, 60, 60),
        lambda: BaseAngles(None, 1, 1),
        lambda: BaseAngles("sixty", 60, 60),
        lambda: BaseAngles.from_unordered(60, math.inf, 60),
        lambda: BaseAngles.from_unordered(60, 60, None),
    ], ids=["inf", "minus-inf", "nan", "none", "text", "unordered-inf",
            "unordered-none"])
    def test_rejects_non_finite_or_non_numeric_angle(self, build):
        # Fraction raises OverflowError, TypeError or ValueError for these;
        # the base refuses each with ValueError, as positive_float does.
        with pytest.raises(ValueError, match="^angle .* is not a number$"):
            build()

    @pytest.mark.parametrize("builds", [
        [lambda: BaseAngles(90, 45, 45),
         lambda: BaseAngles("90", "45", "45"),
         lambda: BaseAngles(Fraction(180, 2), Fraction(45), 45.0),
         lambda: BaseAngles.from_unordered(45, 90, 45),
         lambda: dataclasses.replace(BaseAngles(90, 60, 30), beta=45,
                                     gamma=45)],
        [lambda: BaseAngles(Fraction(181, 2), Fraction(179, 4),
                            Fraction(179, 4)),
         lambda: BaseAngles("90.5", "44.75", "179/4"),
         lambda: BaseAngles.from_unordered("179/4", 90.5, "44.75"),
         lambda: dataclasses.replace(BaseAngles(Fraction(181, 2),
                                                Fraction(179, 4),
                                                Fraction(179, 4)))],
    ], ids=["integers", "fractions"])
    def test_equal_bases_hash_equal(self, builds):
        # The hash a base computes once is the tuple's hash, whatever the
        # angles were built from, so a run keyed on one base is found from
        # an equal but distinct one, as the verifier's memo needs.
        bases = [build() for build in builds]
        first = bases[0]
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=3,
                            base=first)
        memo = {run: "stats"}
        for base in bases:
            assert base == first
            assert hash(base) == hash(first) == hash(base.as_tuple())
            other = dataclasses.replace(run, base=base)
            assert other == run and hash(other) == hash(run)
            assert memo[other] == "stats"
        assert len({id(base) for base in bases}) == len(bases)

    def test_units(self):
        # One scale for mixed denominators, the lcm of theirs; a shift
        # doubles the scale and every integer with it.
        base = BaseAngles(90, Fraction(91, 2), 44.5)
        assert base.units(0) == ((180, 91, 89), 2)
        assert base.units(3) == ((1440, 728, 712), 16)
        base = BaseAngles(Fraction(594323, 5564), Fraction(260939, 5564),
                          Fraction(73129, 2782))
        units, scale = base.units(5)
        assert scale == 5564 << 5
        assert tuple(Fraction(u, scale) for u in units) == base.as_tuple()

    @pytest.mark.parametrize("shift, message", [
        (True, "shift must be an int, got True"),
        (2.0, "shift must be an int, got 2.0"),
        (-1, "shift must be >= 0"),
    ], ids=["bool", "float", "negative"])
    def test_units_bad_shift(self, shift, message):
        # The rule for every integer argument: a bool is not run as 1, and
        # a float or a negative shift is refused before any shift happens.
        with pytest.raises(ValueError) as info:
            BaseAngles(90, 45, 45).units(shift)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# evaluate_angle_form
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_identity_coefficient(self):
        assert evaluate_angle_form(FORM_ALPHA, RIGHT_ISOSCELES) == 90

    def test_half_alpha_plus_beta_equilateral(self):
        form = FORM_ALPHA.halve() + FORM_BETA
        assert evaluate_angle_form(form, EQUILATERAL) == 90

    def test_second_generation_major_equilateral(self):
        # Oracle: one recurrence step from (alpha/2 + beta, alpha/2).
        major, _ = recurrence_carrier_forms(2)
        assert major.coefficients() == (Fraction(3, 4), Fraction(1, 2), 0)
        assert evaluate_angle_form(major, EQUILATERAL) == 75


def written_out(form: AngleForm, base: BaseAngles) -> Fraction:
    return reference_value(form, *base.as_tuple())


def units_value(form: AngleForm, units) -> int:
    """Oracle: ``form``'s value in the units of ``BaseAngles.units(shift)``,
    each coefficient p/2**m adding p * (u >> m), exact while m <= shift."""
    return sum(c.numerator * (u >> (c.denominator.bit_length() - 1))
               for c, u in zip(form.coefficients(), units))


class TestFormUnits:
    """Values in the integer units of ``BaseAngles.units``: a form's, and the
    carrier's by ``carrier_major_minor``."""

    def bases(self):
        rng = random.Random(16)
        return list(ANGLE_FIXTURES) + [random_valid_base(rng) for _ in range(50)]

    def test_matches_written_out_sum(self):
        rng = random.Random(1908)

        def coefficient():
            return Fraction(rng.randint(0, 10**6), 1 << rng.randint(0, 40))

        forms = [FORM_ALPHA, FORM_BETA, FORM_GAMMA]
        forms += [f for n in range(1, 41) for f in carrier_angle_forms(n)]
        forms += [AngleForm(coefficient(), coefficient(), coefficient())
                  for _ in range(40)]
        for base in self.bases():
            expected = [written_out(form, base) for form in forms]
            assert [evaluate_angle_form(form, base)
                    for form in forms] == expected, base
            for shift in (40, 41, 57):
                units, scale = base.units(shift)
                assert [Fraction(units_value(form, units), scale)
                        for form in forms] == expected, (base, shift)

    def test_exact_at_the_coefficients_own_shift(self):
        # major(n) and minor(n) have denominators up to 2**n: shift n is
        # the least exact.
        for base in self.bases():
            for n in range(1, 65):
                for shift in (n, 64):
                    (a, b, _), scale = base.units(shift)
                    assert carrier_major_minor(n, a, b) == tuple(
                        evaluate_angle_form(form, base) * scale
                        for form in carrier_angle_forms(n)), (base, n, shift)

    def test_carrier_terms_match_form_units(self):
        # Raw (alpha, beta) pairs in both orders, which need not be a valid
        # base: the bases' and the collision pairs, against the forms'
        # written-out sums, at the least exact shift n and at shift 64.
        pairs = [base.as_tuple()[:2] for base in self.bases()]
        pairs += COLLISION_PAIRS
        for alpha, beta in pairs:
            for values in ((alpha, beta), (beta, alpha)):
                q = math.lcm(*(v.denominator for v in values))
                for n in range(1, 65):
                    for shift in (n, 64):
                        a, b = (int(v * q) << shift for v in values)
                        assert carrier_major_minor(n, a, b) == tuple(
                            reference_value(form, *values) * (q << shift)
                            for form in carrier_angle_forms(n)), \
                            (values, n, shift)

    def test_shift_too_small_rejected(self):
        # 89 is odd, so alpha in the units of shift 3 is no multiple of 2**4;
        # beta, 46, is.
        odd = BaseAngles(89, 46, 45)
        (a, b, _), _ = odd.units(3)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="not multiples of 2\\*\\*4"):
                carrier_major_minor(4, *pair)
        for base in (odd, EQUILATERAL):
            (a, b, _), scale = base.units(3)
            assert carrier_major_minor(3, a, b) == tuple(
                written_out(form, base) * scale
                for form in carrier_angle_forms(3))


# ---------------------------------------------------------------------------
# Carrier closed form
# ---------------------------------------------------------------------------

class TestCarrierForms:
    def test_first_generation(self):
        major, minor = carrier_angle_forms(1)
        assert major == FORM_ALPHA.halve() + FORM_BETA
        assert minor == FORM_ALPHA.halve()

    def test_second_generation(self):
        major, minor = carrier_angle_forms(2)
        assert major.coefficients() == (Fraction(3, 4), Fraction(1, 2), 0)
        assert minor.coefficients() == (Fraction(1, 4), Fraction(1, 2), 0)

    def test_third_generation_major(self):
        major, _ = carrier_angle_forms(3)
        assert major.coefficients() == (Fraction(5, 8), Fraction(3, 4), 0)

    def test_matches_recurrence_oracle(self):
        for n in range(1, 31):
            assert carrier_angle_forms(n) == recurrence_carrier_forms(n)

    def test_cached_forms_equal_fresh_build(self):
        # The forms are built once per n and shared: a caller that changed
        # one would make it differ from a fresh build.
        for n in range(1, 31):
            forms = carrier_angle_forms(n)
            assert carrier_angle_forms(n) is forms
            assert forms == carrier_angle_forms.__wrapped__(n)

    def test_jacobsthal_forms_equal_the_closed_form(self):
        # major(n) = 2(alpha+beta)/3 + d_n and minor(n) = (alpha+beta)/3 - d_n
        # with d_n = (-1)**n (alpha - 2*beta) / (3 * 2**n), coefficient by
        # coefficient: carrier_major_minor evaluates this closed form.
        for n in range(1, 65):
            d = Fraction((-1) ** n, 3 << n)
            major, minor = carrier_angle_forms(n)
            assert major.coefficients() == (Fraction(2, 3) + d,
                                            Fraction(2, 3) - 2 * d, 0)
            assert minor.coefficients() == (Fraction(1, 3) - d,
                                            Fraction(1, 3) + 2 * d, 0)

    def test_coefficient_sum_is_unity(self):
        for n in range(1, 41):
            major, minor = carrier_angle_forms(n)
            total = major + minor + FORM_GAMMA
            assert total.coefficients() == (1, 1, 1)

    def test_major_dominates(self):
        for base in (EQUILATERAL, RIGHT_ISOSCELES,
                     BaseAngles(Fraction(178), Fraction(1), Fraction(1))):
            for n in range(1, 21):
                major, minor = carrier_angle_forms(n)
                big = evaluate_angle_form(major, base)
                assert big >= evaluate_angle_form(minor, base)
                assert big >= base.gamma

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            carrier_angle_forms(0)

    @pytest.mark.parametrize("n", [True, 1.0, 2.5, "2"])
    def test_rejects_bool_or_non_int(self, n):
        # True is its own cache entry, so the check runs even after
        # carrier_angle_forms(1) is cached; without it, True would get the
        # n = 1 forms.
        carrier_angle_forms(1)
        with pytest.raises(ValueError, match=r"^n must be an int, got "):
            carrier_angle_forms(n)


# ---------------------------------------------------------------------------
# Distinctness of the major-angle sequence
# ---------------------------------------------------------------------------

class TestMajorAngleDistinctness:
    def pairwise_distinct_oracle(self, alpha, beta, n_max):
        values = recurrence_major_values(alpha, beta, n_max)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if values[i] == values[j]:
                    return (i + 1, j + 1)
        return None

    def test_equilateral_distinct(self):
        ok, collision = check_major_angles_distinct(EQUILATERAL, 20)
        assert ok and collision is None
        assert self.pairwise_distinct_oracle(Fraction(60), Fraction(60), 20) is None

    def test_right_isosceles_collides(self):
        ok, collision = check_major_angles_distinct(RIGHT_ISOSCELES, 10)
        assert not ok
        assert collision == self.pairwise_distinct_oracle(
            Fraction(90), Fraction(45), 10)

    def test_unordered_double_pair_collides(self):
        # alpha = 2*beta with labels given as (80, 40); the wrapped triangle
        # would be (80, 40, 60) which is not label-sorted, so the raw pair
        # entry point is used.
        collision = first_major_angle_collision(Fraction(80), Fraction(40), 10)
        assert collision == (1, 2)
        values = recurrence_major_values(Fraction(80), Fraction(40), 10)
        assert all(v == 80 for v in values)

    def test_collision_iff_alpha_twice_beta(self):
        assert first_major_angle_collision(Fraction(100), Fraction(50), 12) is not None
        assert first_major_angle_collision(Fraction(100), Fraction(49), 12) is None

    @given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(179),
                        max_denominator=50),
           st.fractions(min_value=Fraction(1, 50), max_value=Fraction(179),
                        max_denominator=50))
    def test_distinctness_matches_oracle(self, alpha, beta):
        got = first_major_angle_collision(alpha, beta, 40)
        assert got == self.pairwise_distinct_oracle(alpha, beta, 40)

    def test_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            check_major_angles_distinct(EQUILATERAL, 1)

    def test_collision_rejects_bad_arguments_in_order(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            first_major_angle_collision(Fraction(0), Fraction(40), 0)
        for alpha, beta in ((0, 40), (80, 0), (-80, 40)):
            with pytest.raises(ValueError, match="must be positive"):
                first_major_angle_collision(Fraction(alpha), Fraction(beta), 5)

    @pytest.mark.parametrize("n_max", [True, 5.0, "5", None])
    def test_collision_rejects_bool_or_non_int_n_max(self, n_max):
        # Without the check, n_max True would return None, although
        # alpha == 2*beta collides at n_max >= 2.
        with pytest.raises(ValueError, match=r"^n_max must be an int, got "):
            first_major_angle_collision(90, 45, n_max)
        with pytest.raises(ValueError, match=r"^n_max must be an int, got "):
            check_major_angles_distinct(RIGHT_ISOSCELES, n_max)

    @pytest.mark.parametrize("alpha, beta", [
        (math.inf, 45), (90, -math.inf), (math.nan, 45), (None, 45),
        (90, "x"), (True, 45), (90, False)])
    def test_collision_reads_angles_as_base_angles_does(self, alpha, beta):
        # Fraction raises OverflowError for inf and TypeError for None, and
        # reads a bool as 1 or 0.
        with pytest.raises(ValueError, match=r"^(alpha|beta) .* is not a "
                                             r"number$"):
            first_major_angle_collision(alpha, beta, 5)

    def test_matches_fraction_reference(self):
        rng = random.Random(2019)
        pairs = [(Fraction(90), Fraction(45)), (Fraction(80), Fraction(40)),
                 (Fraction(355, 4), Fraction(355, 8))]
        for _ in range(15):
            base = random_valid_base(rng)
            pairs.append((base.alpha, base.beta))
            pairs.append((2 * base.beta, base.beta))
            pairs.append((rng.uniform(0.5, 179.0), rng.uniform(0.5, 90.0)))
        for alpha, beta in pairs:
            for a, b in ((alpha, beta), (beta, alpha)):
                for n_max in range(1, 41):
                    assert first_major_angle_collision(a, b, n_max) == \
                        reference_major_collision(a, b, n_max), (a, b, n_max)

    def test_float_input_collides_when_alpha_twice_beta(self):
        assert first_major_angle_collision(90.0, 45.0, 5) == (1, 2)
        assert first_major_angle_collision(0.7, 0.35, 40) == \
            reference_major_collision(0.7, 0.35, 40) == (1, 2)
        assert first_major_angle_collision(0.35, 0.7, 40) is None

    def test_recurrence_oracle_matches_carrier_forms(self):
        base = BaseAngles(Fraction(355, 4), Fraction(199, 4), Fraction(166, 4))
        values = recurrence_major_values(base.alpha, base.beta, 12)
        for n, value in enumerate(values, start=1):
            assert value == evaluate_angle_form(carrier_angle_forms(n)[0], base)
