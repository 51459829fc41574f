"""Stage work units: the schedulable atoms of a flow request.

A request decomposes into per-block (and, for STA, per-corner) *work
units*.  Each unit is a pure function of its spec -- a block recipe
plus a stage configuration -- executed by :func:`execute_unit` either
inline or inside a :mod:`repro.perf` pool worker.  Unit identity is
content-addressed: :func:`unit_fingerprints` + :func:`unit_config`
feed :func:`repro.store.content_key`, so two requests that need the
same ``(stage, module fingerprint, config)`` resolve to the same key
and the service computes it once.

The stage DAG here is the front half of
:data:`repro.core.flow.FLOW_STAGES` at per-block granularity::

    assemble --+--> lint_gate --> dft
               +--> analyze ---> verify_props
               +--> sta[corner...]

Worker processes keep a module memo keyed by recipe, so a pool worker
regenerates each block at most once per process lifetime -- the same
amortisation the compiled-sim program cache relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .request import BlockSpec, FlowRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist import Module, StdCellLibrary

#: Bump to invalidate every cached stage payload (schema change).
STAGE_VERSION = "1"


@dataclass(frozen=True)
class StageDef:
    """One service stage: its gating deps and an LPT cost weight."""

    name: str
    deps: tuple[str, ...]
    #: Estimated cost per gate, used for LPT binning.  Calibrated from
    #: the bench block sweep (lint/analyze ~ linear in gates, fault
    #: sim the heaviest, STA the lightest per corner).
    weight: float


SERVICE_STAGES: tuple[StageDef, ...] = (
    StageDef("assemble", (), 0.3),
    StageDef("lint_gate", ("assemble",), 1.2),
    StageDef("analyze", ("assemble",), 1.1),
    StageDef("verify_props", ("analyze",), 0.8),
    StageDef("sta", ("assemble",), 0.4),
    StageDef("dft", ("lint_gate",), 2.2),
)

STAGE_DEFS: dict[str, StageDef] = {s.name: s for s in SERVICE_STAGES}

_STAGE_ORDER: dict[str, int] = {
    s.name: index for index, s in enumerate(SERVICE_STAGES)
}


def stage_closure(stages: Iterable[str]) -> tuple[str, ...]:
    """Dependency-closed stage set, in declared (flow) order."""
    wanted: set[str] = set()
    frontier = list(stages)
    while frontier:
        name = frontier.pop()
        if name in wanted:
            continue
        if name not in STAGE_DEFS:
            raise ValueError(
                f"unknown stage {name!r}; known: {sorted(STAGE_DEFS)}"
            )
        wanted.add(name)
        frontier.extend(STAGE_DEFS[name].deps)
    return tuple(sorted(wanted, key=_STAGE_ORDER.__getitem__))


def unit_config(
    stage: str, request: FlowRequest, corner: str | None = None,
) -> dict[str, Any]:
    """The configuration slice of ``request`` that ``stage`` sees.

    Only knobs that change the stage *result* appear here -- the
    config is half of the unit's content address, so anything
    irrelevant (tenant name, other stages' knobs) must stay out or
    dedup silently degrades.
    """
    if stage == "verify_props":
        return {"depth": int(request.bmc_depth), "seed": int(request.seed)}
    if stage == "sta":
        if corner is None:
            raise ValueError("sta units are per corner")
        return {"corner": corner,
                "clock_period_ps": float(request.clock_period_ps)}
    if stage == "dft":
        return {"patterns": int(request.dft_patterns),
                "seed": int(request.seed),
                "chains": int(request.scan_chains)}
    # assemble / lint_gate / analyze are pure functions of the module.
    return {}


def unit_fingerprints(
    stage: str, block: BlockSpec, module_fingerprint: str | None,
) -> tuple[str, ...]:
    """Input fingerprints of one unit.

    ``assemble`` is keyed by the block *recipe* (there is no module
    yet); every downstream stage is keyed by the module content
    fingerprint the assemble payload reported, so an ECO that leaves a
    block's content unchanged still hits.
    """
    if stage == "assemble":
        return (block.recipe_fingerprint,)
    if module_fingerprint is None:
        raise ValueError(f"stage {stage!r} needs the module fingerprint")
    return (module_fingerprint,)


def estimated_cost(stage: str, block: BlockSpec) -> float:
    """LPT cost estimate of one unit (arbitrary but stable units)."""
    return STAGE_DEFS[stage].weight * float(block.gate_budget)


def make_unit_spec(
    stage: str, block: BlockSpec, config: Mapping[str, Any],
) -> dict[str, Any]:
    """Picklable, JSON-able description of one unit of work."""
    return {"stage": stage, "block": block.to_dict(),
            "config": dict(config)}


# -- execution ------------------------------------------------------------

#: Per-process memo: block recipe -> materialised module.  Pool
#: workers live across units, so each worker pays netlist generation
#: once per distinct recipe.
_MODULE_CACHE: dict[tuple[str, int, int, float], "Module"] = {}
_LIBRARY_CACHE: dict[float, "StdCellLibrary"] = {}


def materialize_block(block: BlockSpec) -> "Module":
    """Deterministically (re)generate the block's netlist, memoised."""
    from ..netlist import make_default_library
    from ..netlist.generators import block_from_budget

    key = (block.name, block.gate_budget, block.seed, block.node_um)
    module = _MODULE_CACHE.get(key)
    if module is None:
        library = _LIBRARY_CACHE.get(block.node_um)
        if library is None:
            library = make_default_library(block.node_um)
            _LIBRARY_CACHE[block.node_um] = library
        module = block_from_budget(
            block.name, library, gate_budget=block.gate_budget,
            seed=block.seed,
        )
        _MODULE_CACHE[key] = module
    return module


def clear_module_cache() -> None:
    """Drop the per-process module memo (tests)."""
    _MODULE_CACHE.clear()


def _payload_assemble(block: BlockSpec,
                      config: Mapping[str, Any]) -> dict[str, Any]:
    from ..netlist import collect_stats

    module = materialize_block(block)
    stats = collect_stats(module)
    return {
        "fingerprint": module.fingerprint(),
        "gates": int(module.gate_count),
        "instances": int(stats.instance_count),
        "sequential": int(stats.sequential_count),
        "nets": int(stats.net_count),
        "ports": int(stats.port_count),
        "area_um2": float(stats.total_area_um2),
    }


def _payload_lint_gate(block: BlockSpec,
                       config: Mapping[str, Any]) -> dict[str, Any]:
    from ..lint import Severity, run_lint

    module = materialize_block(block)
    report = run_lint([module], design=block.name, workers=1)
    return {
        "errors": len(report.errors),
        "warnings": report.count(Severity.WARNING),
        "waived": len(report.waived),
        "findings": sorted(f.fingerprint for f in report.findings),
    }


def _payload_analyze(block: BlockSpec,
                     config: Mapping[str, Any]) -> dict[str, Any]:
    from ..lint import run_lint

    module = materialize_block(block)
    report = run_lint(
        [module], design=block.name,
        rules=["const", "dead", "divergence", "race"], workers=1,
    )
    by_category: dict[str, int] = {}
    for finding in report.findings:
        by_category[finding.category] = (
            by_category.get(finding.category, 0) + 1
        )
    return {
        "findings": len(report.findings),
        "by_category": dict(sorted(by_category.items())),
        "divergent_outputs": sum(
            1 for f in report.findings if f.rule_id == "DIV-001"
        ),
    }


def _payload_verify_props(block: BlockSpec,
                          config: Mapping[str, Any]) -> dict[str, Any]:
    from ..formal import check_properties, derive_properties

    module = materialize_block(block)
    props = derive_properties(module)
    if not any(p.kind != "assume" for p in props):
        return {"checked": 0, "counts": {}, "status": {}}
    report = check_properties(
        module, props, depth=int(config["depth"]), workers=1,
        seed=int(config["seed"]),
    )
    return {
        "checked": len(report.checks),
        "counts": {key: int(value)
                   for key, value in sorted(report.counts().items())},
        "status": {check.name: check.status
                   for check in sorted(report.checks,
                                       key=lambda c: c.name)},
    }


def _payload_sta(block: BlockSpec,
                 config: Mapping[str, Any]) -> dict[str, Any]:
    from ..sta import TimingConstraints, analyze_timing

    module = materialize_block(block)
    constraints = TimingConstraints(
        clock_period_ps=float(config["clock_period_ps"])
    )
    report = analyze_timing(
        module, constraints, corners=[str(config["corner"])],
        engine="vectorized", workers=1,
    )
    return {
        "corner": str(config["corner"]),
        "wns_ps": float(report.wns_ps),
        "hold_wns_ps": float(report.hold_wns_ps),
        "setup_clean": bool(report.setup_clean),
        "hold_clean": bool(report.hold_clean),
    }


def _payload_dft(block: BlockSpec,
                 config: Mapping[str, Any]) -> dict[str, Any]:
    import numpy as np

    from ..dft import (
        CombinationalView,
        collapse_faults,
        enumerate_faults,
        insert_scan,
        random_pattern_fault_sim,
    )

    module = materialize_block(block)
    scanned, scan_report = insert_scan(
        module, n_chains=int(config["chains"])
    )
    view = CombinationalView(scanned)
    faults = collapse_faults(scanned, enumerate_faults(scanned))
    patterns = int(config["patterns"])
    result = random_pattern_fault_sim(
        view, faults, rng=np.random.default_rng(int(config["seed"])),
        max_patterns=patterns, batch_size=min(patterns, 4096),
    )
    return {
        "faults": len(faults),
        "detected": len(result.detected),
        "coverage": float(len(result.detected) / max(len(faults), 1)),
        "patterns": int(result.patterns_applied),
        "scan_flops": int(scan_report.total_scan_flops),
        "chains": len(scan_report.chains),
    }


_STAGE_FUNCS = {
    "assemble": _payload_assemble,
    "lint_gate": _payload_lint_gate,
    "analyze": _payload_analyze,
    "verify_props": _payload_verify_props,
    "sta": _payload_sta,
    "dft": _payload_dft,
}


def execute_unit(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Run one work unit; pure function of its spec."""
    stage = str(spec["stage"])
    func = _STAGE_FUNCS.get(stage)
    if func is None:
        raise ValueError(f"unknown stage {stage!r}")
    block = BlockSpec.from_dict(dict(spec["block"]))
    return func(block, dict(spec["config"]))


def execute_unit_guarded(
    spec: Mapping[str, Any],
) -> tuple[bool, dict[str, Any]]:
    """Like :func:`execute_unit` but failures come back structured.

    Returns ``(True, payload)`` or ``(False, error)`` where ``error``
    carries the exception type and message -- the per-request error
    record the service surfaces, instead of a pool traceback that
    poisons the whole batch.
    """
    try:
        return True, execute_unit(spec)
    except Exception as exc:  # noqa: BLE001 - surfaced structured
        return False, {
            "type": type(exc).__name__,
            "message": str(exc),
        }
