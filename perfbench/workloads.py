"""Seeded operation streams for the four benchmark workloads.

Every operation is one call into the public API of ``instanton3`` and carries
a check against ``reference``; the check runs outside the timed region.  A
stream is an endless iterator; the same seed always yields the same
operations, so a traced and an untraced pass can replay identical work.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import instanton3.verify
import reference as ref
from instanton3 import ChernData, NotNaturalizable, cli


@dataclass(frozen=True)
class Op:
    """One operation: the call that is timed and the check that is not."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object, Exception | None], bool]
    rows: int = 0
    candidates: int = 0


def _random_class(rng: random.Random, c1: int, c2: tuple[int, int], c3: int, *, parity: bool = True) -> tuple[int, int, int, int]:
    a, b, c = rng.randint(-c1, c1), rng.randint(*c2), rng.randint(-c3, c3)
    if ref.parity_ok(a, b, c) != parity:
        c += 1
    return (3, a, b, c)


def _draw_class(rng: random.Random, natural: bool, c1: int, c2: tuple[int, int], c3: int):
    while True:
        k = _random_class(rng, c1, c2, c3)
        if ref.naturalizable(*k) == natural:
            return k


# --------------------------------------------------------------------------
# Library workloads
#
# Public functions are looked up when called, so that tracing wrappers
# installed after a stream was built are the ones that run.


def _natural_table(d, t_min, t_max):
    return instanton3.natural_table(d, t_min, t_max)


def _run_all():
    return instanton3.verify.run_all()


def _table_check(klass, t_min, t_max):
    if not ref.naturalizable(*klass):
        return lambda result, exc: isinstance(exc, NotNaturalizable)
    want = ref.natural_rows(*klass, t_min, t_max)
    chern = ChernData(*klass)

    def check(result, exc):
        return exc is None and result.chern == chern and dict(result.rows) == want

    return check


def _table_op(klass, t_min, t_max) -> Op:
    return Op(
        kind="natural" if ref.naturalizable(*klass) else "rejected",
        label=f"natural_table({klass}, {t_min}, {t_max})",
        call=partial(_natural_table, ChernData(*klass), t_min, t_max),
        check=_table_check(klass, t_min, t_max),
        rows=t_max - t_min + 1,
    )


#: Classes per table-wide run; operations cycle through them.
TABLE_WIDE_CLASSES = 24


def table_wide(seed: int) -> Iterator[Op]:
    """natural_table over the widest window the CLI allows, on naturalizable classes."""
    rng = random.Random(seed)
    pool = [_draw_class(rng, True, 3, (-5, 15), 20) for _ in range(TABLE_WIDE_CLASSES)]
    ops = [_table_op(k, -ref.MAX_TWIST, ref.MAX_TWIST) for k in pool]
    return itertools.cycle(ops)


#: Per block of 20 classify-many operations: rejected classes, then the
#: window widths of the accepted ones.  Rejections cost least, so with 55%
#: of them the median falls inside their cost band, away from the gap
#: between rejected and accepted classes.
CLASSIFY_REJECTED = 11
CLASSIFY_WIDTHS = (1, 1, 2, 2, 3, 3, 4, 4, 5)
#: classify-many draws c1, c2 and c3 from these ranges, c3 with the parity
#: rule: 553,860 classes, more than a run can use.
CLASSIFY_C1, CLASSIFY_C2, CLASSIFY_C3 = range(-8, 9), range(-60, 121), range(-180, 180, 2)


def _distinct_classes(rng: random.Random) -> Iterator[tuple[int, int, int, int]]:
    """Every class of the classify-many ranges once, in a seeded order.

    A linear congruential walk modulo a power of two with an odd increment
    and a multiplier of 1 mod 4 has full period (Hull-Dobell), so skipping
    the indices past the class count visits each class exactly once without
    remembering which were seen.
    """
    n2, n3 = len(CLASSIFY_C2), len(CLASSIFY_C3)
    size = len(CLASSIFY_C1) * n2 * n3
    modulus = 1 << (size - 1).bit_length()
    x, step = rng.randrange(modulus), rng.randrange(modulus) | 1
    for _ in range(modulus):
        x = (1664525 * x + step) % modulus
        if x < size:
            i1, rest = divmod(x, n2 * n3)
            i2, i3 = divmod(rest, n3)
            c1, c2 = CLASSIFY_C1[i1], CLASSIFY_C2[i2]
            yield (3, c1, c2, CLASSIFY_C3[i3] + (c1 * c2) % 2)


def classify_many(seed: int) -> Iterator[Op]:
    """Short windows around the instanton window on ever new classes, 55% rejected."""
    rng = random.Random(seed)
    classes = _distinct_classes(rng)
    while True:
        block = [None] * CLASSIFY_REJECTED + list(CLASSIFY_WIDTHS)
        rng.shuffle(block)
        for width in block:
            klass = next(k for k in classes if ref.naturalizable(*k) == (width is not None))
            width = width or rng.randint(1, 5)
            t_min = rng.randint(-4, 3 - width)
            yield _table_op(klass, t_min, t_min + width - 1)


def verify_replay(seed: int) -> Iterator[Op]:
    """run_all(); the checklist takes no input, so the seed changes nothing."""
    op = Op(kind="run_all", label="run_all()", call=_run_all, check=_claims_ok)
    return itertools.repeat(op)


def _claims_ok(results, exc) -> bool:
    return (
        exc is None
        and tuple(r.claim.id for r in results) == ref.CLAIM_IDS
        and all(r.ok for r in results)
    )


# --------------------------------------------------------------------------
# CLI workload


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: tuple[str, ...], check_output, **sizes) -> Op:
    def check(result, exc):
        return exc is None and check_output(*result)

    return Op(kind=kind, label="instanton3 " + " ".join(argv), call=partial(run_cli, argv), check=check, **sizes)


def _exact(stdout_want: str):
    return lambda code, out, err: code == 0 and out == stdout_want and err == ""


def _error(code_want: int):
    return lambda code, out, err: code == code_want and out == "" and err.startswith("error: ")


def _verify_output(code, out, err) -> bool:
    lines = out.splitlines()
    return (
        code == 0
        and err == ""
        and len(lines) == len(ref.CLAIM_IDS) + 1
        and all(line.startswith(f"PASS {cid}: ") for line, cid in zip(lines, ref.CLAIM_IDS))
        and lines[-1] == ref.VERIFY_SUMMARY
    )


def _chi_output(klass, m, fmt):
    value = ref.chi(*klass, m)

    def check(code, out, err):
        if code != 0 or err:
            return False
        if fmt == "text":
            return out == f"{value}\n"
        return json.loads(out) == {"chern": list(klass), "m": m, "chi": value}

    return check


def _table_output(klass, t_min, t_max, fmt):
    want = ref.natural_rows(*klass, t_min, t_max)

    def check(code, out, err):
        if code != 0 or err:
            return False
        if fmt == "json":
            rows = [{"t": t, "h": list(want[t])} for t in range(t_min, t_max + 1)]
            return json.loads(out) == {"chern": list(klass), "rows": rows}
        lines = out.splitlines()
        got = [tuple(int(v) for v in line.split()) for line in lines[1:]]
        return (
            lines[0].split() == ["t", "h0", "h1", "h2", "h3"]
            and len({len(line) for line in lines}) == 1
            and got == [(t, *want[t]) for t in range(t_min, t_max + 1)]
        )

    return check


_SPECTRUM_LINE = re.compile(r"\(([-0-9,]+)\): h1\(-2\)=(\d+) h2\(-2\)=(\d+) instanton=(yes|no)")


def _spectra_output(n, bound, fmt):
    count = ref.spectra_count(n, bound)

    def check(code, out, err):
        if code != 0 or err:
            return False
        if fmt == "json":
            doc = json.loads(out)
            if (doc["n"], doc["bound"]) != (n, bound):
                return False
            entries = [(e["ks"], e["h1_minus2"], e["h2_minus2"], e["instanton"]) for e in doc["spectra"]]
        else:
            entries = []
            for line in out.splitlines():
                match = _SPECTRUM_LINE.fullmatch(line)
                if match is None:
                    return False
                ks, h1, h2, flag = match.groups()
                entries.append(([int(k) for k in ks.split(",")], int(h1), int(h2), flag == "yes"))
        # Valid, strictly increasing and as many as exist: exactly the set.
        return (
            len(entries) == count
            and all(ref.spectrum_entry_ok(ks, n, bound, h1, h2, inst) for ks, h1, h2, inst in entries)
            and all(a[0] < b[0] for a, b in zip(entries, entries[1:]))
        )

    return check


def _fmt(argv, fmt):
    return argv + ("--format", "json") if fmt == "json" else argv


def _chern_argv(klass):
    return tuple(str(c) for c in klass)


#: One block of 40 cli-mix operations: 18 chi, 6 short tables, 8 errors,
#: 6 spectra searches and 2 wide tables.  Spectra sit in cost between the
#: cheap commands and the wide tables, so the 90th percentile falls among
#: them; the median falls among the chi calls.
CHI_FORMATS = ("text", "text", "json") * 6
SHORT_TABLE_FORMATS = ("text", "json") * 3
ERROR_KINDS = ("parity", "parity", "window", "window", "space", "space", "rejected", "rejected")
#: (length, bound) of the spectra searches: 4,845 to 46,376 candidates.
SPECTRA_MENU = ((4, 8), (3, 20), (8, 4), (4, 12), (5, 9), (4, 15))
WIDE_TABLE_FORMATS = ("text", "json")


def _cli_chi(rng, fmt):
    while True:
        klass = (rng.choice((1, 2, 3, 3, 3)), *_random_class(rng, 5, (-20, 20), 40)[1:])
        m = rng.randint(-ref.MAX_TWIST, ref.MAX_TWIST)
        if ref.chi(*klass, m) is not None:
            break
    argv = _fmt(("chi", *_chern_argv(klass), "--m", str(m)), fmt)
    return _cli_op("chi", argv, _chi_output(klass, m, fmt))


def _cli_table(rng, fmt, width):
    klass = _draw_class(rng, True, 3, (-5, 15), 20)
    t_min = rng.randint(-ref.MAX_TWIST, ref.MAX_TWIST - width + 1)
    t_max = t_min + width - 1
    argv = _fmt(("table", *_chern_argv(klass), str(t_min), str(t_max)), fmt)
    kind = "table-wide" if width > 100 else "table-short"
    return _cli_op(kind, argv, _table_output(klass, t_min, t_max, fmt), rows=width)


def _cli_spectra(n, bound, fmt):
    argv = _fmt(("spectra", str(n), "--bound", str(bound)), fmt)
    return _cli_op("spectra", argv, _spectra_output(n, bound, fmt), candidates=math.comb(2 * bound + n, n))


def _cli_error(rng, fmt, what):
    if what == "space":
        while True:
            n, bound = rng.randint(6, 12), rng.randint(8, ref.MAX_TWIST)
            if math.comb(2 * bound + n, n) > ref.MAX_SEARCH_SPACE:
                break
        return _cli_op("error", _fmt(("spectra", str(n), "--bound", str(bound)), fmt), _error(2))
    if what == "parity":
        klass = _random_class(rng, 3, (-5, 15), 20, parity=False)
        t_min, t_max, code = -5, 1, 2
    elif what == "window":
        klass = _draw_class(rng, True, 3, (-5, 15), 20)
        t_min, t_max, code = -rng.randint(ref.MAX_TWIST + 1, 10 ** 6), 0, 2
    else:
        klass = _draw_class(rng, False, 3, (-5, 15), 20)
        t_min, t_max, code = -5, 1, 3
    argv = _fmt(("table", *_chern_argv(klass), str(t_min), str(t_max)), fmt)
    return _cli_op("error", argv, _error(code))


def cli_mix(seed: int) -> Iterator[Op]:
    """The README examples, then seeded blocks of 40 mixed commands."""
    for argv, stdout in ref.README_EXAMPLES:
        yield _cli_op("readme", argv, _exact(stdout))
    yield _cli_op("readme", ("verify-paper",), _verify_output)
    rng = random.Random(seed)
    for block in itertools.count():
        spectra_format = ("text", "json")[block % 2]
        ops = [_cli_chi(rng, fmt) for fmt in CHI_FORMATS]
        ops += [_cli_table(rng, fmt, rng.randint(1, 15)) for fmt in SHORT_TABLE_FORMATS]
        ops += [_cli_error(rng, rng.choice(("text", "json")), what) for what in ERROR_KINDS]
        ops += [_cli_spectra(n, bound, spectra_format) for n, bound in SPECTRA_MENU]
        ops += [_cli_table(rng, fmt, rng.randint(150, 2 * ref.MAX_TWIST + 1)) for fmt in WIDE_TABLE_FORMATS]
        rng.shuffle(ops)
        yield from ops


WORKLOADS = {
    "table-wide": table_wide,
    "classify-many": classify_many,
    "cli-mix": cli_mix,
    "verify-replay": verify_replay,
}
