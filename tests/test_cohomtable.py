"""Natural-cohomology tables: the index walk, monads, and Serre symmetry."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from instanton3 import cohomtable
from instanton3.chern import ChernData, chern_character, chi_polynomial, chi_values, euler_characteristic, validate_parity
from instanton3.chowring import exp_line, mul, todd_p3
from instanton3.cohomtable import (
    CohomTable,
    MonadType,
    instanton_check,
    monad_chern,
    natural_table,
    serre_symmetry_check,
)
from instanton3.cubics import CubicSignAnalysis
from instanton3.errors import MAX_TWIST, DomainError, MissingRows, NonIntegralChi, NotNaturalizable, ParityViolation

CHARGE2 = ChernData(3, 0, 2, 0)

CHARGE2_ROWS = {
    -5: (0, 0, 0, 6),
    -4: (0, 0, 1, 0),
    -3: (0, 0, 2, 0),
    -2: (0, 0, 0, 0),
    -1: (0, 2, 0, 0),
    0: (0, 1, 0, 0),
    1: (6, 0, 0, 0),
}


def test_charge2_table_is_pinned():
    tbl = natural_table(CHARGE2, -5, 1)
    assert dict(tbl.rows) == CHARGE2_ROWS
    assert tbl.chern == CHARGE2


def test_charge4_table_with_integer_roots():
    # chi factors as (m-1)(m+2)(m+5)/2, so three rows vanish exactly.
    tbl = natural_table(ChernData(3, 0, 4, 0), -6, 2)
    assert dict(tbl.rows) == {
        -6: (0, 0, 0, 14),
        -5: (0, 0, 0, 0),
        -4: (0, 0, 5, 0),
        -3: (0, 0, 4, 0),
        -2: (0, 0, 0, 0),
        -1: (0, 4, 0, 0),
        0: (0, 5, 0, 0),
        1: (0, 0, 0, 0),
        2: (14, 0, 0, 0),
    }


def test_line_bundle_table():
    tbl = natural_table(ChernData(1, 0, 0, 0), -8, 4)
    for t in range(-8, 5):
        row = tbl.rows[t]
        if t >= 0:
            assert row == (math.comb(t + 3, 3), 0, 0, 0)
        elif t <= -4:
            assert row == (0, 0, 0, math.comb(-t - 1, 3))
        else:
            assert row == (0, 0, 0, 0)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=-9, max_value=5))
def test_table_entries_carry_abs_chi(n, t):
    d = ChernData(3, 0, n, 0)
    row = natural_table(d, t, t).rows[t]
    chi = euler_characteristic(d, t)
    assert sum(row) == abs(chi)
    assert sum(1 for v in row if v != 0) <= 1
    assert all(v >= 0 for v in row)


def test_index_never_increases_with_the_twist():
    tbl = natural_table(ChernData(3, 0, 5, 0), -10, 5)
    last_index = 3
    for t in range(-10, 6):
        row = tbl.rows[t]
        if sum(row) == 0:
            continue
        index = next(i for i, v in enumerate(row) if v != 0)
        assert index <= last_index
        last_index = index


def test_rejects_cubics_without_three_sign_changes():
    with pytest.raises(NotNaturalizable, match="sign change"):
        natural_table(ChernData(3, 0, -5, 0), -3, 1)


def test_rejects_empty_window():
    with pytest.raises(DomainError):
        natural_table(CHARGE2, 1, 0)


def test_row_access_and_missing_rows():
    tbl = natural_table(CHARGE2, -2, 1)
    assert tbl.row(-2) == (0, 0, 0, 0)
    with pytest.raises(MissingRows):
        tbl.row(-3)


def test_equal_tables_hash_equal():
    forward = CohomTable(chern=CHARGE2, rows=dict(CHARGE2_ROWS))
    backward = CohomTable(chern=CHARGE2, rows=dict(reversed(CHARGE2_ROWS.items())))
    assert list(forward.rows) != list(backward.rows)
    assert forward == backward == natural_table(CHARGE2, -5, 1)
    assert hash(forward) == hash(backward) == hash(natural_table(CHARGE2, -5, 1))
    assert len({forward, backward, natural_table(CHARGE2, -2, 1)}) == 2


def test_text_rendering_is_stable():
    tbl = natural_table(CHARGE2, -2, 1)
    assert tbl.to_text() == "\n".join(
        [
            " t  h0  h1  h2  h3",
            "-2   0   0   0   0",
            "-1   0   2   0   0",
            " 0   0   1   0   0",
            " 1   6   0   0   0",
        ]
    )


def test_json_rendering():
    payload = natural_table(CHARGE2, 0, 1).to_json_dict()
    assert payload == {
        "chern": [3, 0, 2, 0],
        "rows": [{"t": 0, "h": [0, 1, 0, 0]}, {"t": 1, "h": [6, 0, 0, 0]}],
    }


def test_instanton_check_on_the_charge2_table():
    assert instanton_check(natural_table(CHARGE2, -3, -1))
    assert instanton_check(natural_table(CHARGE2, -5, 1))


def test_instanton_check_rejects_split_profile():
    rows = {-3: (0, 0, 2, 0), -2: (0, 1, 1, 0), -1: (0, 2, 0, 0)}
    assert not instanton_check(CohomTable(chern=CHARGE2, rows=rows))


def test_instanton_check_rejects_section_at_minus_one():
    rows = {-3: (0, 0, 0, 0), -2: (0, 0, 0, 0), -1: (1, 0, 0, 0)}
    assert not instanton_check(CohomTable(chern=CHARGE2, rows=rows))


def test_instanton_check_needs_all_three_twists():
    with pytest.raises(MissingRows):
        instanton_check(natural_table(CHARGE2, -2, -1))


def test_monad_chern_pinned():
    assert monad_chern(MonadType(2, 7, 2)) == CHARGE2


@given(st.integers(min_value=1, max_value=8))
def test_monad_family(n):
    assert monad_chern(MonadType(n, 2 * n + 3, n)) == ChernData(3, 0, n, 0)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_monad_rank_and_degree(a, c):
    mt = MonadType(a, a + c + 2, c)
    d = monad_chern(mt)
    assert d.rank == 2
    assert d.c1 == a - c


def _whitney(a, c):
    """(c1, c2, c3) of c(E) = (1 - H)^(-a) * (1 + H)^(-c), truncated at H^3."""
    minus = [1] + [math.comb(a + k - 1, k) for k in (1, 2, 3)]
    plus = [1] + [(-1) ** k * math.comb(c + k - 1, k) for k in (1, 2, 3)]
    return tuple(sum(minus[i] * plus[k - i] for i in range(k + 1)) for k in (1, 2, 3))


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=10))
@example(0, 3, 1)
@example(3, 0, 1)
def test_monad_chern_matches_the_whitney_formula(a, c, r):
    # The Whitney formula reaches the classes without the Chern character,
    # and an a <-> c mix-up flips the sign of c1 and c3.
    d = monad_chern(MonadType(a, a + c + r, c))
    assert (d.rank, d.c1, d.c2, d.c3) == (r, *_whitney(a, c))


def test_monad_validation():
    with pytest.raises(ValueError):
        MonadType(-1, 7, 2)
    with pytest.raises(ValueError):
        MonadType(2, 3, 1)  # rank would be zero


def test_serre_symmetry_for_the_charge2_type():
    assert serre_symmetry_check(CHARGE2, -10, 6)


@given(st.integers(min_value=2, max_value=6))
def test_serre_symmetry_across_the_charge_family(n):
    assert serre_symmetry_check(ChernData(3, 0, n, 0), -8, 4)


def test_serre_symmetry_with_nonzero_c1(monkeypatch):
    assert serre_symmetry_check(ChernData(3, 3, 5, 3), -9, 5)
    # Mirroring the class itself instead of its dual tampers the mirrored table.
    monkeypatch.setattr(cohomtable, "dual", lambda d: d)
    assert not serre_symmetry_check(ChernData(3, 3, 5, 3), -9, 5)


# The integer kernel against the Sturm oracle and the two-product ring route.


def reference_outcome(d, t_min, t_max):
    """What natural_table must do, from the routes the integer kernel replaced.

    The index walk counts roots with a Sturm chain on the transcribed cubic,
    and each chi is the degree of ch(F) * exp(tH) * td(P^3), two ring
    products per twist.  Returns the exception type and its message, or the
    rows.
    """
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if abs(t) > MAX_TWIST:
            return DomainError, f"{name} = {t} is out of range; |{name}| must be at most {MAX_TWIST}"
    if t_min > t_max:
        return DomainError, f"empty twist window: t_min = {t_min} exceeds t_max = {t_max}"
    if d.rank == 3 and not validate_parity(d):
        return ParityViolation, (
            f"classes ({d.rank}, {d.c1}, {d.c2}, {d.c3}) violate the parity constraint c3 = c1*c2 mod 2"
        )
    analysis = CubicSignAnalysis(chi_polynomial(d).coeffs)
    if analysis.sign_changes < 3:
        return NotNaturalizable, (
            f"chi cubic of {d} has {analysis.sign_changes} sign change(s); the index walk from h^3 to h^0 needs 3"
        )
    rows = {}
    for t in range(t_min, t_max + 1):
        chi = mul(mul(chern_character(d), exp_line(t)), todd_p3()).a3
        if chi.denominator != 1:
            return NonIntegralChi, f"chi at twist {t} is not an integer: {chi}"
        row = [0, 0, 0, 0]
        if chi:
            index = 3 - analysis.odd_roots_below(t)
            row[index] = int(chi) if index % 2 == 0 else -int(chi)
            assert row[index] > 0
        rows[t] = tuple(row)
    return None, rows


def kernel_outcome(d, t_min, t_max):
    try:
        return None, dict(natural_table(d, t_min, t_max).rows)
    except (DomainError, ParityViolation, NotNaturalizable, NonIntegralChi) as exc:
        return type(exc), str(exc)


@st.composite
def wide_windows(draw):
    """Classes of ranks 1-4 with big classes, and a window inside [-100, 100].

    Half the time c3 is moved to the parity c3 = c1*c2 mod 2, which keeps
    every chi integral, so full tables are drawn as often as errors.
    """
    rank = draw(st.integers(min_value=1, max_value=4))
    c1 = draw(st.integers(min_value=-50, max_value=50))
    c2 = draw(st.integers(min_value=-(10 ** 4), max_value=10 ** 4))
    c3 = draw(st.integers(min_value=-(10 ** 4), max_value=10 ** 4))
    if draw(st.booleans()):
        c3 += (c3 - c1 * c2) % 2
    t_min = draw(st.integers(min_value=-100, max_value=100))
    t_max = draw(st.integers(min_value=t_min - 1, max_value=min(100, t_min + 40)))
    return ChernData(rank, c1, c2, c3), t_min, t_max


def test_big_charge_table_is_pinned():
    c2 = 10 ** 30
    rows = natural_table(ChernData(3, 0, c2, 0), -3, 1).rows
    assert rows[-3] == (0, 0, c2, 0)
    assert rows[-2] == (0, 0, 0, 0)
    assert rows[-1] == (0, c2, 0, 0)
    assert rows[1] == (0, 3 * c2 - 12, 0, 0)


@given(wide_windows())
@example((ChernData(3, 0, 10 ** 30, 0), -100, 100))
@example((ChernData(3, 0, -(10 ** 30), 0), -100, 100))
@example((ChernData(3, 7, 10 ** 30, 10 ** 30), -100, 100))
@example((ChernData(1, 10 ** 9, 10 ** 20, 0), -100, 100))
@example((ChernData(2, -1, 10 ** 25 + 3, 3), -100, 100))
@example((ChernData(4, 2, 10 ** 18, 2 * 10 ** 18), -100, 100))
@example((ChernData(3, 0, 2, 0), -100, 100))
@example((ChernData(3, 0, 4, 0), -6, 2))
@example((ChernData(3, -1, 0, 0), -5, 3))  # double root at -2
@example((ChernData(6, 0, -1, 0), -5, 3))  # triple root at -2
@example((ChernData(3, 0, 2, 1), 1, 0))  # empty window before parity
@example((ChernData(3, 0, 2, 0), -100, -101))  # twist bound before empty window
@example((ChernData(3, 0, -5, 1), -3, 1))  # parity before naturalizability
@example((ChernData(2, 0, 2, 1), -3, 3))  # no parity rule outside rank 3
@example((ChernData(3, 4, 9, 16), -100, 100))  # critical point c1 = -5 exactly
@example((ChernData(3, -4, 9, -16), -100, 100))  # critical point c2 = 1 exactly
@example((ChernData(3, -2, 13, 38), -100, 100))  # roots r2 and r3 both in (1, 2)
@example((ChernData(3, 0, 1, 0), -100, 100))  # r1 in (-4, c1 = -3), r3 in (c2 = -1, 0)
# Two roots of chi share a unit interval beside a critical point, so the
# brackets have no slack: each +-1 edit of a bracket numerator gives a wrong
# row on one of these four (lo at twist -9, hi at twist 5).  Random classes
# almost never land here.
@example((ChernData(3, 1, 73, -657), -100, 100))  # lo + 1
@example((ChernData(3, 1, 60, -488), -100, 100))  # lo - 1
@example((ChernData(3, -1, 60, 488), -100, 100))  # hi + 1
@example((ChernData(3, -1, 73, 657), -100, 100))  # hi - 1
def test_kernel_matches_oracles(window):
    assert kernel_outcome(*window) == reference_outcome(*window)


def test_rows_on_the_critical_point_brackets():
    # A twist on a critical point is on neither side of it: c1 = -5 and
    # c2 = 1 are exact here, and N > 0 at c1, N < 0 at c2.
    assert natural_table(ChernData(3, 4, 9, 16), -5, -5).rows == {-5: (0, 0, 9, 0)}
    assert natural_table(ChernData(3, -4, 9, -16), 1, 1).rows == {1: (0, 9, 0, 0)}
    # r2 and r3 lie in (1, 2): both index changes fall between two twists.
    assert natural_table(ChernData(3, -2, 13, 38), 1, 2).rows == {1: (0, 0, 1, 0), 2: (1, 0, 0, 0)}
    # Charge 1: r1 lies in (-4, c1 = -3) and r3 in (c2 = -1, 0), so the rows
    # -4 and 0 are the nearest twists beyond lo = -4 and hi = -1.
    assert natural_table(ChernData(3, 0, 1, 0), -4, 0).rows == {
        -4: (0, 0, 0, 1),
        -3: (0, 0, 1, 0),
        -2: (0, 0, 0, 0),
        -1: (0, 1, 0, 0),
        0: (1, 0, 0, 0),
    }


@given(wide_windows())
@example((ChernData(3, 0, 2, 0), -100, 100))
@example((ChernData(3, 0, 4, 0), -6, 2))
def test_populated_index_matches_chi_sign(window):
    # natural_table writes |chi| with no sign check: its index rule takes the
    # parity from the sign of N = D*chi alone (odd below zero, even at or
    # above), whatever the brackets lo and hi decide, so the entry is never
    # negative.
    d, t_min, t_max = window
    try:
        rows = natural_table(d, t_min, t_max).rows
    except (DomainError, ParityViolation, NotNaturalizable, NonIntegralChi):
        return
    for t, chi in zip(rows, chi_values(d, rows)):
        assert sorted(rows[t]) == [0, 0, 0, abs(chi)]
        assert chi == 0 or rows[t].index(abs(chi)) % 2 == (chi < 0)


@given(wide_windows())
def test_not_naturalizable_exactly_below_three_sign_changes(window):
    d, t_min, _ = window
    if d.rank == 3 and not validate_parity(d):
        d = ChernData(3, d.c1, d.c2, d.c3 + 1)
    raised = kernel_outcome(d, t_min, t_min)[0] is NotNaturalizable
    assert raised == (CubicSignAnalysis(chi_polynomial(d).coeffs).sign_changes < 3)
