"""Teeth test of the benchmark's reference check.

    python3 perfbench/selftest.py

Runs a few operations of each workload and requires that none fails on the
unmodified package; then corrupts the Todd class in process, one of the
checklist's own mutation targets, and requires that ``table-wide``,
``verify-replay`` and ``cli-mix`` report failures; finally feeds the checks
a hand-tampered table row and a wrong exit code.  Exits 0 when every check
holds.
"""

from __future__ import annotations

import importlib
import sys

from run import SRC, run_pass

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from instanton3 import CohomTable  # noqa: E402
from instanton3.verify import MUTATION_TARGETS  # noqa: E402


def fail_ratio(workload: str, ops: int) -> float:
    p = run_pass(workloads.WORKLOADS[workload](1), 60, max_ops=ops)
    return p.failed / len(p.latencies_ns)


def first_op(workload: str, kind: str):
    return next(op for op in workloads.WORKLOADS[workload](1) if op.kind == kind)


def main() -> int:
    sizes = {"table-wide": 3, "classify-many": 200, "cli-mix": 80, "verify-replay": 2}
    checks = [(f"{w}: no failures on the unmodified package", fail_ratio(w, n) == 0) for w, n in sizes.items()]

    module, attr, mutant, note = next(t for t in MUTATION_TARGETS if t[:2] == ("chowring", "TODD_COEFFS"))
    mod = importlib.import_module(f"instanton3.{module}")
    original = getattr(mod, attr)
    setattr(mod, attr, mutant)
    try:
        for w in ("table-wide", "verify-replay", "cli-mix"):
            checks.append((f"{w}: fail_ratio > 0 under {note}", fail_ratio(w, sizes[w]) > 0))
    finally:
        setattr(mod, attr, original)

    op = first_op("table-wide", "natural")
    table = op.call()
    rows = dict(table.rows)
    t = next(t for t, row in rows.items() if any(row))
    rows[t] = tuple(v + 1 if v else 0 for v in rows[t])
    checks.append(("table-wide: the true table passes", op.check(table, None)))
    checks.append((f"table-wide: a tampered row at twist {t} fails", not op.check(CohomTable(table.chern, rows), None)))

    for kind in ("readme", "error"):
        op = first_op("cli-mix", kind)
        code, out, err = op.call()
        checks.append((f"cli-mix {kind}: the true exit code {code} passes", op.check((code, out, err), None)))
        checks.append((f"cli-mix {kind}: exit code {code ^ 1} fails", not op.check((code ^ 1, out, err), None)))

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
