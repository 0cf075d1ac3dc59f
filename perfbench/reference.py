"""The benchmark's own exact reference, independent of the package under test.

Nothing here imports ``instanton3``.  Euler characteristics come from an
integer transcription of 6*chi; natural-cohomology indices come from a
discriminant test and the signs of N, N' and N'' at the twist, never from a
Sturm chain; spectra are counted by dynamic programming rather than
enumerated.  All arithmetic is on Python integers.
"""

from __future__ import annotations

from functools import lru_cache

#: Ids of the 49 frozen checklist claims, in replay order.
CLAIM_IDS = (
    "chi-structure-sheaf",
    "chi-line-bundles",
    "character-charge2",
    "character-pairing-charge2",
    "dual-self-charge2",
    "twist-normalized-reflexive",
    "twist-charge2",
    "twist-charge-family",
    "chi-twist1-charge2",
    "chi-minus2-charge2",
    "parity-charge2",
    "parity-twist-charge2",
    "parity-genus-consistency",
    "chi-closed-form-vs-ring",
    "chi-curve-form-vs-riemann-roch",
    "spectrum-h1-instanton-minus2",
    "spectrum-h2-instanton-minus2",
    "spectrum-h1-split-minus2",
    "spectrum-h2-split-minus2",
    "spectrum-h1-split-minus1",
    "spectrum-h2-split-plus1",
    "spectrum-instanton-zero-pair",
    "spectrum-instanton-zero-triple",
    "spectrum-instanton-split-pair",
    "spectrum-enumeration-charge2",
    "spectrum-elimination-charge2",
    "curve-quintic-charge2",
    "curve-family-degrees",
    "curve-roundtrip-quintic",
    "normal-bundle-twist-degrees",
    "normal-bundle-two-sections",
    "chi-ideal-rational-curves",
    "thooft-threshold-rank3",
    "thooft-threshold-rank2",
    "thooft-charge2-sections",
    "natural-table-charge2",
    "instanton-row-charge2",
    "instanton-check-split-profile",
    "monad-charge2",
    "monad-charge-family",
    "serre-symmetry-charge2",
    "chi-endomorphisms-charge2",
    "chi-endomorphisms-closed-form",
    "ext-difference-charge2",
    "ext-difference-family",
    "ext-difference-consistency",
    "smooth-point-dimension-charge2",
    "dimension-chain-charge2",
    "chain-matches-ext-difference",
)

VERIFY_SUMMARY = "49 claims: 49 passed, 0 failed"

#: The console examples of the README, byte for byte: argv -> stdout.
README_EXAMPLES = (
    (("chi", "3", "0", "2", "0", "--m", "1"), "6\n"),
    (
        ("table", "3", "0", "2", "0", "-5", "1"),
        " t  h0  h1  h2  h3\n"
        "-5   0   0   0   6\n"
        "-4   0   0   1   0\n"
        "-3   0   0   2   0\n"
        "-2   0   0   0   0\n"
        "-1   0   2   0   0\n"
        " 0   0   1   0   0\n"
        " 1   6   0   0   0\n",
    ),
    (
        ("spectra", "2"),
        "(-1,1): h1(-2)=1 h2(-2)=1 instanton=no\n"
        "(0,0): h1(-2)=0 h2(-2)=0 instanton=yes\n",
    ),
)

#: Limits the command line promises: twist magnitude, search-space ceiling.
MAX_TWIST = 100
MAX_SEARCH_SPACE = 1_000_000


def six_chi(rank: int, c1: int, c2: int, c3: int) -> tuple[int, int, int, int]:
    """Ascending integer coefficients of N(m) = 6 * chi(F(m)).

    Riemann-Roch on P^3 with ch = r + c1 H + (c1^2 - 2c2)/2 H^2
    + (c1^3 - 3c1c2 + 3c3)/6 H^3 and Todd class 1 + 2H + 11/6 H^2 + H^3,
    multiplied through by 6.
    """
    return (
        c1 ** 3 - 3 * c1 * c2 + 3 * c3 + 6 * c1 * c1 - 12 * c2 + 11 * c1 + 6 * rank,
        3 * c1 * c1 - 6 * c2 + 12 * c1 + 11 * rank,
        3 * c1 + 6 * rank,
        rank,
    )


def evaluate(n: tuple[int, ...], m: int) -> int:
    acc = 0
    for c in reversed(n):
        acc = acc * m + c
    return acc


def chi(rank: int, c1: int, c2: int, c3: int, m: int) -> int | None:
    """chi(F(m)), or None where it is not an integer."""
    q, r = divmod(evaluate(six_chi(rank, c1, c2, c3), m), 6)
    return None if r else q


def parity_ok(c1: int, c2: int, c3: int) -> bool:
    return (c3 - c1 * c2) % 2 == 0


def naturalizable(rank: int, c1: int, c2: int, c3: int) -> bool:
    """Whether the chi cubic has three sign changes: a positive discriminant."""
    d, c, b, a = six_chi(rank, c1, c2, c3)
    disc = 18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * a * c ** 3 - 27 * a * a * d * d
    return disc > 0


def _roots_below(n: tuple[int, int, int, int], t: int) -> int:
    """Roots of N below t, for N with three simple real roots and N(t) != 0.

    With roots r1 < r2 < r3 and critical points s1 < s2 interlaced between
    them, N(t) < 0 puts t below r1 (where N' > 0 and N'' < 0) or between r2
    and r3; N(t) > 0 puts t above r3 (where N' > 0 and N'' > 0) or between r1
    and r2.
    """
    d1 = (n[1], 2 * n[2], 3 * n[3])
    d2 = (2 * n[2], 6 * n[3])
    rising = evaluate(d1, t) > 0
    convex = evaluate(d2, t) > 0
    if evaluate(n, t) < 0:
        return 0 if rising and not convex else 2
    return 3 if rising and convex else 1


def natural_rows(rank: int, c1: int, c2: int, c3: int, t_min: int, t_max: int) -> dict[int, tuple[int, int, int, int]]:
    """The natural-cohomology rows of a naturalizable class over [t_min, t_max]."""
    n = six_chi(rank, c1, c2, c3)
    rows = {}
    for t in range(t_min, t_max + 1):
        v = evaluate(n, t)
        row = [0, 0, 0, 0]
        if v:
            row[3 - _roots_below(n, t)] = abs(v) // 6
        rows[t] = tuple(row)
    return rows


@lru_cache(maxsize=None)
def spectra_count(n: int, bound: int) -> int:
    """Nondecreasing zero-sum n-tuples with entries in [-bound, bound].

    Shifting every entry by ``bound`` turns them into multisets of n values in
    [0, 2*bound] summing to n*bound; count those by adding one value at a time.
    """
    target = n * bound
    # ways[k][s]: multisets of k values seen so far with sum s
    ways = [[0] * (target + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for value in range(2 * bound + 1):
        for k in range(1, n + 1):
            for s in range(value, target + 1):
                ways[k][s] += ways[k - 1][s - value]
    return ways[n][target]


def spectrum_entry_ok(ks: list[int], n: int, bound: int, h1: int, h2: int, instanton: bool) -> bool:
    """One listed spectrum: shape, zero sum and the predicted h^1(-2), h^2(-2)."""
    return (
        len(ks) == n
        and all(-bound <= k <= bound for k in ks)
        and all(a <= b for a, b in zip(ks, ks[1:]))
        and sum(ks) == 0
        and h1 == sum(max(0, k) for k in ks)
        and h2 == sum(max(0, -k) for k in ks)
        and instanton == all(k == 0 for k in ks)
    )
