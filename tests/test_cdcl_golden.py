"""Golden search traces of the CDCL solver and the BMC encoder.

The solver promises the *same search* for the same (formula, seed,
assumptions): every decision, conflict and propagation repeats, in any
process.  The values below were recorded with the dict-of-watch-lists
solver that preceded the literal-indexed one, so a change to watch
order, the VSIDS pick, the restart schedule, conflict analysis, or the
Tseitin encoder's variable numbering and clause order shows up here as
a changed count or hash, not as a slower run.

The recorded values live in ``tests/data/cdcl_golden.json``; regenerate
them (only for a deliberate change of search) with::

    PYTHONPATH=src python tests/test_cdcl_golden.py > tests/data/cdcl_golden.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Callable

import pytest

from repro.formal import (
    Solver,
    check_properties,
    derive_properties,
)
from repro.netlist import make_default_library, one_hot_ring


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _observe(solver: Solver, verdict: bool) -> dict[str, object]:
    """Everything a solve exposes: verdict, stats, core, model hash."""
    out: dict[str, object] = {
        "sat": verdict,
        "stats": solver.stats.to_dict(),
        "core": list(solver.core),
    }
    if verdict:
        bits = "".join(
            "1" if value else "0"
            for _, value in sorted(solver.model().items())
        )
        out["model_sha256"] = _sha(bits)
    return out


def _pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
    var = {}
    for i in range(pigeons):
        for j in range(holes):
            var[i, j] = solver.new_var()
    for i in range(pigeons):
        solver.add_clause([var[i, j] for j in range(holes)])
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            solver.add_clause([-var[i1, j], -var[i2, j]])


def _random_3sat(seed: int, n_vars: int, n_clauses: int) -> Solver:
    rng = random.Random(seed)
    solver = Solver(seed=seed)
    for _ in range(n_vars):
        solver.new_var()
    for _ in range(n_clauses):
        picks = rng.sample(range(1, n_vars + 1), 3)
        solver.add_clause([v if rng.random() < 0.5 else -v for v in picks])
    return solver


def _case_pigeonhole_unsat() -> dict[str, object]:
    solver = Solver()
    _pigeonhole(solver, pigeons=7, holes=6)
    return _observe(solver, solver.solve())


def _case_pigeonhole_sat() -> dict[str, object]:
    solver = Solver(seed=7)
    _pigeonhole(solver, pigeons=6, holes=6)
    return _observe(solver, solver.solve())


def _case_random_3sat(seed: int) -> Callable[[], dict[str, object]]:
    def case() -> dict[str, object]:
        solver = _random_3sat(seed, n_vars=60, n_clauses=250)
        rng = random.Random(1000 + seed)
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, 61), 6)
        ]
        first = _observe(solver, solver.solve())
        second = _observe(solver, solver.solve(assumptions))
        third = _observe(solver, solver.solve(assumptions[:2]))
        return {"plain": first, "assumed": second, "prefix": third}
    return case


def _case_activity_rescale() -> dict[str, object]:
    # Over ~4,500 conflicts, so VSIDS activities pass 1e100 and the
    # rescale-and-rebuild branch of the decision heap runs.
    solver = _random_3sat(2, n_vars=170, n_clauses=724)
    return _observe(solver, solver.solve())


def _case_failed_assumption_core() -> dict[str, object]:
    solver = Solver()
    x1, x2, x3 = (solver.new_var() for _ in range(3))
    solver.add_clause([x1])
    solver.add_clause([-x1, x2])
    return {
        "first": _observe(solver, solver.solve()),
        "failed": _observe(solver, solver.solve([x3, -x2])),
        "reuse": _observe(solver, solver.solve([x3])),
    }


def _report_digest(report) -> dict[str, object]:
    return {
        "counts": report.counts(),
        "json_sha256": _sha(report.to_json()),
        "solver_stats": [dict(c.solver_stats) for c in report.checks],
        "statuses": [c.status for c in report.checks],
    }


def _case_buggy_ring() -> dict[str, object]:
    lib = make_default_library(0.25)
    module = one_hot_ring("ring", lib, width=4, inject_bug=True)
    return _report_digest(
        check_properties(module, derive_properties(module), depth=8)
    )


def _case_good_ring_cover() -> dict[str, object]:
    lib = make_default_library(0.25)
    module = one_hot_ring("ring", lib, width=5)
    return _report_digest(
        check_properties(module, derive_properties(module), depth=12)
    )


def _case_dsc_sync_settle() -> dict[str, object]:
    from repro.lint import dsc_lint_targets

    targets = dsc_lint_targets(scale=0.002, seed=0)
    module = next(m for m in targets.modules if m.name == "lcd_if")
    return _report_digest(
        check_properties(module, derive_properties(module), depth=6)
    )


CASES: dict[str, Callable[[], dict[str, object]]] = {
    "pigeonhole_unsat": _case_pigeonhole_unsat,
    "pigeonhole_sat": _case_pigeonhole_sat,
    **{f"random_3sat_{seed}": _case_random_3sat(seed) for seed in range(6)},
    "activity_rescale": _case_activity_rescale,
    "failed_assumption_core": _case_failed_assumption_core,
    "buggy_ring": _case_buggy_ring,
    "good_ring_cover": _case_good_ring_cover,
    "dsc_lcd_if_sync_settle": _case_dsc_sync_settle,
}

GOLDEN: dict[str, dict[str, object]] = json.loads(
    (Path(__file__).parent / "data" / "cdcl_golden.json").read_text()
)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_search_as_recorded(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: case() for name, case in sorted(CASES.items())},
        indent=4, sort_keys=True,
    ))
