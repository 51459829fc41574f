"""End-to-end benchmark of the design-service lifecycle and service mix.

One command, two workloads:

* ``lifecycle_formal`` -- ``DesignServiceFlow(scale=0.01).run()`` with
  extensions; bounded model checking (pure-Python CDCL) dominates and
  PODEM inside ``insert_dft`` is the next stage.
* ``service_mix`` -- the 32-request multi-tenant mix submitted at t=0
  as a closed batch to ``DesignService(workers=2)``: a cold phase on an
  empty ``ArtifactStore``, then a warm rerun against the filled store.

Usage, from the repository root::

    python3 e2ebench/run.py --workload lifecycle_formal --seed 0 \\
        --seconds 25 --trace 0

Each run cycles through a pool of inputs, in whole cycles and at least
``MIN_CYCLES`` times, until ``--seconds`` is used up, and checks every
pass's outputs.  The pool is the design (or request mix) generated from
``--seed`` plus fixed reference inputs: the fresh input keeps claims
honest on unseen data, and the references keep the pass time
comparable from run to run, since the cost of one design varies by
more than the noise.  The program only ever sees the generated inputs.
Every pass starts from caches emptied of design-keyed entries, so a
repeated input costs what a fresh one does.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pool
input once under tracing and prints the per-layer metrics instead.
Spans (name, start, end, parent, run id) are kept in memory and written
with the per-pass breakdown to ``.bench_out/`` at the end.  The last
line of standard output is always one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Iterator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2  # extra fresh-process set-up samples per run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lifecycle" | "service"
    scale: float
    references: tuple[int, ...]
    workers: int = 1
    tenants: int = 0
    requests_per_tenant: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("lifecycle_formal", "lifecycle", scale=0.01,
                 references=(1000, 1001)),
        Workload("service_mix", "service", scale=0.008,
                 references=(1000, 1001), workers=2, tenants=4,
                 requests_per_tenant=8),
    )
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "fault_coverage": "ratio",
    "peak_rss_mb": "MB",
}

# Flow stages, in the order FLOW_STAGES declares them (checked at run
# time against repro.core.flow so a renamed stage fails loudly).
CORE_STAGES = (
    "intake", "harden_cpu", "assemble", "lint_gate", "analyze",
    "verify_props", "prototype", "integrate_system", "verify",
    "insert_dft", "schedule_tests", "implement", "advanced_signoff",
    "package_design", "tapeout", "produce",
)
SERVICE_STAGES = ("assemble", "lint_gate", "analyze", "verify_props",
                  "sta", "dft")

# Per-layer metrics: name -> (unit, better).  Unit "s" and "share" are
# timings; "count" and "ratio" (a ratio of two counts) are counts,
# which repeat exactly between traced runs at one seed.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"core.{s}.wall_s": ("s", "lower") for s in CORE_STAGES},
    "dft.podem.wall_s": ("s", "lower"),
    "dft.podem.faults_targeted": ("count", "lower"),
    "dft.podem.detected": ("count", "higher"),
    "dft.podem.untestable": ("count", "higher"),
    "dft.podem.aborted": ("count", "lower"),
    "dft.podem.decided_share": ("ratio", "higher"),
    "dft.fault_sim.wall_s": ("s", "lower"),
    "dft.fault_sim.patterns": ("count", "lower"),
    "formal.bmc.wall_s": ("s", "lower"),
    "formal.cdcl.conflicts": ("count", "lower"),
    "formal.cdcl.decisions": ("count", "lower"),
    "formal.cdcl.propagations": ("count", "lower"),
    "formal.props_checked": ("count", "higher"),
    "formal.props_unknown": ("count", "lower"),
    "formal.blocks_skipped": ("count", "lower"),
    "lint.modules.wall_s": ("s", "lower"),
    "lint.findings": ("count", "lower"),
    "sim.event.edge.wall_s": ("s", "lower"),
    "sim.event.edge.calls": ("count", "lower"),
    "physical.anneal.wall_s": ("s", "lower"),
    "physical.anneal.moves": ("count", "lower"),
    "store.hits": ("count", "higher"),
    "store.misses": ("count", "lower"),
    "store.puts": ("count", "lower"),
    "store.hit_rate": ("ratio", "higher"),
    "store.warm_hit_rate": ("ratio", "higher"),
    "service.units_total": ("count", "lower"),
    "service.units_executed": ("count", "lower"),
    "service.units_coalesced": ("count", "higher"),
    "service.units_store_hits": ("count", "higher"),
    "service.units_failed": ("count", "lower"),
    "service.dedup_rate": ("ratio", "higher"),
    "service.unit_spans": ("count", "lower"),
    **{f"service.unit_run_s.{s}": ("s", "lower") for s in SERVICE_STAGES},
    "service.unit_wait_s": ("s", "lower"),
    "service.pool_busy_share": ("share", "higher"),
    "service.warm_pass_s": ("s", "lower"),
    "trace.stage_coverage": ("share", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


# -- set-up --------------------------------------------------------------


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import every
    subsystem the workloads reach, so no pass pays a first import."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro.core.flow  # noqa: F401
    import repro.dfm  # noqa: F401
    import repro.formal  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.lowpower  # noqa: F401
    import repro.service  # noqa: F401
    import repro.si  # noqa: F401
    import repro.soc  # noqa: F401


def make_inputs(workload: Workload, seed: int) -> list[tuple[int, Any]]:
    """``(input seed, input)`` per pool entry: a design seed for the
    lifecycle, a generated request mix for the service."""
    from repro.service import synthetic_tenant_mix

    seeds = [seed, *workload.references]
    if workload.kind == "lifecycle":
        return [(s, s) for s in seeds]
    return [
        (s, synthetic_tenant_mix(
            tenants=workload.tenants,
            requests_per_tenant=workload.requests_per_tenant,
            scale=workload.scale, seed=s))
        for s in seeds
    ]


# -- tracing -------------------------------------------------------------


class Tracer:
    """In-memory spans with a parent stack; written out at the end.

    Passes and stages always get spans (a pass's wall time is its
    span).  Only an ``enabled`` tracer wraps entry points and listens
    to service events, which is what a traced run adds.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = self.add(name, time.perf_counter(), None, **attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float | None,
            parent: int | None = None, **attrs: Any) -> dict[str, Any]:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "start": start,
                  "end": end, "parent": parent, "run": self.run_id, **attrs}
        self.spans.append(record)
        return record

    @contextmanager
    def wrapped(self, targets: list[tuple[Any, str]]) -> Iterator[None]:
        """Replace each ``owner.attr`` callable by a span-recording
        wrapper for the duration of the block, then restore it.  A
        disabled tracer wraps nothing."""
        saved = []
        try:
            for owner, attr in targets if self.enabled else ():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, attr))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, func: Callable[..., Any], attr: str) -> Callable:
        label = f"call:{getattr(func, '__qualname__', attr)}"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(label):
                return func(*args, **kwargs)

        return wrapper

    def duration(self, record: dict[str, Any]) -> float:
        return record["end"] - record["start"]

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time: duration minus the part of it
        the span's children cover (service units overlap each other)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start"], record["end"]))
        out: dict[str, float] = {}
        for record in self.spans:
            covered, reach = 0.0, float("-inf")
            for start, end in sorted(children.get(record["id"], [])):
                covered += max(0.0, end - max(start, reach))
                reach = max(reach, end)
            own = self.duration(record) - covered
            out[record["name"]] = out.get(record["name"], 0.0) + own
        return out


def lifecycle_entry_points() -> list[tuple[Any, str]]:
    """Public layer entry points the lifecycle stages call, at the
    name each caller resolves them by."""
    import repro.core.flow as flow
    import repro.dfm as dfm
    import repro.dft as dft
    import repro.formal as formal
    import repro.lint as lint
    import repro.lowpower as lowpower
    import repro.physical as physical
    import repro.si as si

    return [
        *((flow, name) for name in (
            "run_integration_campaign", "harden", "block_from_budget",
            "collect_stats", "cross_simulator_check", "insert_scan",
            "run_atpg", "build_floorplan", "build_clock_tree",
            "optimize_assignment", "sprinkle_spare_cells",
            "check_sequential_burn_in", "simulate_project",
            "run_qualification", "simulate_ramp", "simulate_production",
        )),
        (flow.AnnealingPlacer, "place"),
        (flow.GlobalRouter, "route_all"),
        (flow.TimingAnalyzer, "analyze"),
        (flow.BistGenerator, "plan"),
        (lint, "run_lint"),
        (formal, "derive_properties"),
        (formal, "check_properties"),
        (formal, "check_bus_exclusivity"),
        (physical, "virtual_prototype"),
        (si.CrosstalkAnalyzer, "analyze"),
        (si.PowerGridAnalyzer, "analyze"),
        (dfm, "double_via_insertion"),
        (lowpower, "insert_clock_gating"),
        (lowpower, "multi_vt_leakage_recovery"),
        (dft, "dsc_block_test_specs"),
        (dft, "schedule_block_tests"),
    ]


# -- output checks -------------------------------------------------------

#: Outcomes of the fixed reference inputs, recorded from the current
#: program.  Every run includes the references, so an engine that stops
#: deciding (a PODEM that aborts, a solver that answers UNSAT without
#: searching) fails every run, not just the seeds that happen to expose
#: it.  All of these are counts and repeat exactly.
REFERENCE_OUTCOMES: dict[tuple[str, int], dict[str, int]] = {
    ("lifecycle_formal", 1000): {
        "faults": 272, "detected": 230, "podem_aborted": 0,
        "props_checked": 6, "props_proven": 6, "props_falsified": 0,
        "props_covered": 0, "props_unreachable": 0, "props_unknown": 0,
        "props_vacuous": 0},
    ("lifecycle_formal", 1001): {
        "faults": 298, "detected": 277, "podem_aborted": 0,
        "props_checked": 6, "props_proven": 6, "props_falsified": 0,
        "props_covered": 0, "props_unreachable": 0, "props_unknown": 0,
        "props_vacuous": 0},
    ("service_mix", 1000): {
        "faults": 19081, "detected": 15717,
        "props_checked": 52, "props_proven": 52, "props_falsified": 0,
        "props_covered": 0, "props_unreachable": 0, "props_unknown": 0,
        "props_vacuous": 0},
    ("service_mix", 1001): {
        "faults": 21868, "detected": 18159,
        "props_checked": 55, "props_proven": 55, "props_falsified": 0,
        "props_covered": 0, "props_unreachable": 0, "props_unknown": 0,
        "props_vacuous": 0},
}

#: Outcome counts that must be 0 on every input.  ``fault_coverage`` is
#: detected/total, which an aborted fault leaves unchanged, so aborts
#: are checked here.  An engine that cannot decide a property reports
#: it unknown; one whose solver wrongly answers UNSAT makes passing
#: asserts vacuous where there are assumes, and leaves witness covers
#: unreached (see :func:`unreached_witnesses`) where there are none.
MUST_BE_ZERO = ("podem_aborted", "props_falsified", "props_unknown",
                "props_vacuous", "witness_unreached")


def check_outcome(workload: Workload, item_seed: int,
                  outcome: dict[str, int]) -> list[str]:
    failed = [f"{key} == 0" for key in MUST_BE_ZERO
              if outcome.get(key, 0) != 0]
    expected = REFERENCE_OUTCOMES.get((workload.name, item_seed))
    if expected is not None:
        failed += [f"reference {item_seed}: {key} {outcome.get(key)} "
                   f"!= {value}" for key, value in expected.items()
                   if outcome.get(key) != value]
    return failed


# -- lifecycle workloads -------------------------------------------------


def check_lifecycle(report: Any) -> list[str]:
    """Failed sign-off checks of one lifecycle pass (empty when clean)."""
    checks = {
        "STA setup clean": report.sta_setup_clean,
        "routing clean": report.routing_clean,
        "formal sign-off clean": report.formal_clean,
        "qualification passed": report.qualification_passed,
        "yield ramp 82.5% -> 93.3%": (
            round(report.initial_yield * 100, 1) == 82.5
            and round(report.final_yield * 100, 1) == 93.3
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def unreached_witnesses(blocks: dict[str, Any], bmc_reports: dict,
                        depth: int, seed: int) -> int:
    """Blocks whose witness cover the solver failed to reach.

    On each block ``verify_props`` checked, cover the expression of its
    first proven assert.  A proven invariant holds in every reachable
    frame, so the cover must be reached: this puts a satisfiable query
    in front of the engine, which the all-proven workload otherwise
    never does.  It runs after the timed pass.
    """
    from repro.formal import Property, check_properties, derive_properties

    unreached = 0
    for name, module in blocks.items():
        proven = {check.name for check in bmc_reports[name].checks
                  if check.status == "proven"}
        asserts = [prop for prop in derive_properties(module)
                   if prop.kind == "assert" and prop.name in proven]
        if not asserts:
            continue
        cover = Property(name=f"witness_{asserts[0].name}", kind="cover",
                         expr=asserts[0].expr)
        report = check_properties(module, [cover], depth=depth,
                                  workers=1, seed=seed)
        unreached += report.checks[0].status != "covered"
    return unreached


def registry_delta(before: dict, after: dict, stage: str,
                   key: str) -> float:
    return after.get(stage, {}).get(key, 0.0) \
        - before.get(stage, {}).get(key, 0.0)


def lifecycle_pass(workload: Workload, design: int, tracer: Tracer,
                   witness: bool = True) -> dict[str, Any]:
    """One lifecycle pass: ``DesignServiceFlow.run()``, which is the
    ``run_stage`` loop over ``flow_stage_order()``, spelled out so each
    stage gets a span.  Returns the pass's wall time, outcome, failed
    checks and additive per-layer counters.  ``witness`` adds the
    witness covers to the outcome."""
    from repro.core.flow import (
        FLOW_STAGE_DEFS,
        DesignServiceFlow,
        flow_stage_order,
    )
    from repro.perf import REGISTRY

    order = flow_stage_order()
    if tuple(sorted(order)) != tuple(sorted(CORE_STAGES)):
        raise SystemExit(f"e2ebench: flow stages changed: {order}")
    bmc_kwargs = dict(FLOW_STAGE_DEFS["verify_props"].kwargs)
    raw: dict[str, Any] = {}
    results: dict[str, Any] = {}
    reg0 = REGISTRY.as_dict()
    with tracer.wrapped(lifecycle_entry_points()):
        with tracer.span("pass", design=design) as pass_span:
            flow = DesignServiceFlow(scale=workload.scale, seed=design)
            for name in order:
                with tracer.span(f"stage:{name}") as stage_span:
                    results[name] = flow.run_stage(name)
                raw[f"core.{name}.wall_s"] = tracer.duration(stage_span)
                if name == "verify_props":
                    checked_blocks = {block: flow.blocks[block]
                                      for block in results[name][0]}
                    raw["formal.blocks_skipped"] = sum(
                        1 for block in flow.blocks.values()
                        if block.gate_count > bmc_kwargs["max_gates"])
    reg1 = REGISTRY.as_dict()
    report = flow.report
    raw["wall_s"] = tracer.duration(pass_span)
    raw["stage_span_s"] = sum(raw[f"core.{s}.wall_s"] for s in order)

    atpg, _plan = results["insert_dft"]
    raw["dft.podem.faults_targeted"] = atpg.total_faults \
        - atpg.detected_random
    raw["dft.podem.detected"] = atpg.detected_deterministic
    raw["dft.podem.untestable"] = len(atpg.untestable)
    raw["dft.podem.aborted"] = len(atpg.undetected)
    bmc_reports, _bus, _findings = results["verify_props"]
    raw["formal.props_unknown"] = 0
    for bmc in bmc_reports.values():
        for check in bmc.checks:
            stats = dict(check.solver_stats)
            for key in ("conflicts", "decisions", "propagations"):
                raw[f"formal.cdcl.{key}"] = \
                    raw.get(f"formal.cdcl.{key}", 0) + stats.get(key, 0)
            raw["formal.props_unknown"] += check.status == "unknown"
    raw["formal.props_checked"] = report.props_checked
    raw["lint.findings"] = len(results["lint_gate"].findings)
    for name, (stage, key) in {
        "dft.podem.wall_s": ("dft.atpg.podem", "seconds"),
        "dft.fault_sim.wall_s": ("dft.fault_sim", "seconds"),
        "dft.fault_sim.patterns": ("dft.fault_sim", "patterns"),
        "formal.bmc.wall_s": ("formal.bmc", "seconds"),
        "lint.modules.wall_s": ("lint.modules", "seconds"),
        "sim.event.edge.wall_s": ("sim.event.edge", "seconds"),
        "sim.event.edge.calls": ("sim.event.edge", "calls"),
        "physical.anneal.wall_s": ("placement.anneal", "seconds"),
        "physical.anneal.moves": ("placement.anneal", "moves"),
    }.items():
        raw[name] = registry_delta(reg0, reg1, stage, key)
    raw.update({f"store.{key}": value for key, value
                in store_totals(flow.store.stats()).items()})

    outcome = {
        "faults": atpg.total_faults,
        "detected": atpg.detected,
        "podem_aborted": len(atpg.undetected),
        **{f"props_{key}": getattr(report, f"props_{key}") for key in (
            "checked", "proven", "falsified", "covered", "unreachable",
            "vacuous")},
        "props_unknown": raw["formal.props_unknown"],
    }
    if witness:
        outcome["witness_unreached"] = unreached_witnesses(
            checked_blocks, bmc_reports, bmc_kwargs["depth"], design)
    raw["outcome"] = outcome
    raw["coverage"] = report.fault_coverage
    raw["requests"] = 1
    raw["failed_checks"] = check_lifecycle(report) \
        + check_outcome(workload, design, outcome)
    return raw


def store_totals(stats: dict) -> dict[str, float]:
    """Hits, misses and puts of ``ArtifactStore.stats()``, summed over
    every domain."""
    return {key: sum(row.get(key, 0) for domain, row in stats.items()
                     if domain != "_store")
            for key in ("hits", "misses", "puts")}


# -- service workload ----------------------------------------------------


def check_service(cold: list, warm: list, warm_stats: Any) -> list[str]:
    failed = [f"request {r.request_id} not ok" for r in cold if not r.ok]
    if [r.canonical_json() for r in cold] \
            != [r.canonical_json() for r in warm]:
        failed.append("cold and warm reports differ")
    if warm_stats.units_store_hits != warm_stats.units_total:
        failed.append("warm rerun recomputed units")
    return failed


def service_outcome(reports: list) -> dict[str, int]:
    """Fault and property totals over every dft and verify_props result
    delivered to the batch."""
    out = {"faults": 0, "detected": 0, "props_checked": 0,
           **{f"props_{key}": 0 for key in (
               "proven", "falsified", "covered", "unreachable", "unknown",
               "vacuous")}}
    for report in reports:
        for stages in report.body.get("blocks", {}).values():
            dft = stages.get("dft")
            if isinstance(dft, dict) and "coverage" in dft:
                out["detected"] += int(dft["detected"])
                out["faults"] += int(dft["faults"])
            props = stages.get("verify_props")
            if isinstance(props, dict) and "checked" in props:
                out["props_checked"] += int(props["checked"])
                for key, value in props.get("counts", {}).items():
                    out[f"props_{key}"] += int(value)
    return out


def run_service_phase(workload: Workload, mix: list, store: Any,
                      on_event: Callable | None = None):
    from repro.service import DesignService

    service = DesignService(workers=workload.workers, store=store,
                            on_event=on_event)
    try:
        start = time.perf_counter()
        reports = service.run(mix)
        wall = time.perf_counter() - start
    finally:
        service.close()
    return reports, wall, service.stats


def unit_spans(events: list[tuple[float, dict]], workers: int,
               tracer: Tracer, parent: int) -> list[dict[str, Any]]:
    """Unit spans from ``on_event`` timestamps.

    ``unit_start`` marks dispatch to the pool and the computing
    request's ``stage_done`` marks the result's return.  The pool takes
    work first in, first out, so a unit starts running when it was
    dispatched or when a worker last fell free, whichever is later;
    the gap is queue wait.
    """
    pending: dict[tuple, list[float]] = {}
    units = []
    for stamp, event in events:
        key = (event.get("stage"), event.get("block"), event.get("corner"),
               event.get("tenant"))
        if event["type"] == "unit_start":
            pending.setdefault(key, []).append(stamp)
        elif event["type"] == "stage_done" \
                and event.get("source") == "computed":
            units.append((pending[key].pop(0), stamp, event["stage"]))
    free = [float("-inf")] * workers
    spans = []
    for dispatched, done, stage in sorted(units):
        started = max(dispatched, heapq.heappop(free))
        heapq.heappush(free, done)
        spans.append(tracer.add(f"unit:{stage}", started, done, parent,
                                dispatched=dispatched, stage=stage))
    return spans


def service_pass(workload: Workload, mix: list, mix_seed: int,
                 tracer: Tracer) -> dict[str, Any]:
    """One service pass: the whole mix cold on an empty store, then
    warm against the filled one.  Its wall time is the cold batch's."""
    from repro.store import ArtifactStore

    raw: dict[str, Any] = {}
    events: list[tuple[float, dict]] = []
    on_event = ((lambda e: events.append((time.perf_counter(), e)))
                if tracer.enabled else None)
    store = ArtifactStore()
    with tracer.span("pass", requests=len(mix)):
        with tracer.span("phase:cold") as cold_span:
            cold, raw["wall_s"], stats = run_service_phase(
                workload, mix, store, on_event)
        before_warm = store.stats()
        with tracer.span("phase:warm"):
            warm, raw["service.warm_pass_s"], warm_stats = \
                run_service_phase(workload, mix, store)
    spans = unit_spans(events, workload.workers, tracer, cold_span["id"])
    for key in ("units_total", "units_executed", "units_coalesced",
                "units_store_hits", "units_failed"):
        raw[f"service.{key}"] = getattr(stats, key)
    raw["service.unit_spans"] = len(spans)
    raw["service.unit_wait_s"] = sum(s["start"] - s["dispatched"]
                                     for s in spans)
    for stage in SERVICE_STAGES:
        raw[f"service.unit_run_s.{stage}"] = sum(
            tracer.duration(s) for s in spans if s["stage"] == stage)
    before, after = store_totals(before_warm), store_totals(store.stats())
    raw.update({f"store.{key}": value for key, value in after.items()})
    raw["warm_hits"] = after["hits"] - before["hits"]
    raw["warm_lookups"] = raw["warm_hits"] + after["misses"] \
        - before["misses"]
    outcome = service_outcome(cold)
    raw["outcome"] = outcome
    raw["coverage"] = outcome["detected"] / max(outcome["faults"], 1)
    raw["requests"] = len(mix)
    raw["failed_checks"] = check_service(cold, warm, warm_stats) \
        + check_outcome(workload, mix_seed, outcome)
    return raw


# -- runs ----------------------------------------------------------------


#: Traced/untraced pass pairs on the last input that measure tracing
#: cost (one for a lifecycle, where a pass takes 7-12 s).
OVERHEAD_PAIRS = {"lifecycle": 1, "service": 5}

#: Whole pool cycles a timed run makes at least, so that every input is
#: timed at least twice.
MIN_CYCLES = 2


def reset_process_state() -> None:
    """Collect the last pass's garbage and empty the caches keyed on
    design content (compiled simulation, fault and timing programs,
    module analyses), so a repeated input costs what a fresh one does.
    Caches keyed on library cells stay warm, as in a long-lived
    service."""
    from repro.analysis import clear_analysis_memo
    from repro.dft.compiled import clear_fault_program_cache
    from repro.sim.compiled import clear_program_cache
    from repro.sta import nldm

    clear_analysis_memo()
    clear_fault_program_cache()
    clear_program_cache()
    nldm._GRAPH_CACHE.clear()  # no public clear; keyed on fingerprints
    gc.collect()


def run_pass(workload: Workload, item_seed: int, item: Any,
             tracer: Tracer, witness: bool = True) -> dict[str, Any]:
    """One pass from a reset process state, an exception failing the
    pass instead of the run.  ``witness`` runs the lifecycle's witness
    covers after the timed part."""
    reset_process_state()
    start = time.perf_counter()
    try:
        if workload.kind == "lifecycle":
            return lifecycle_pass(workload, item, tracer, witness=witness)
        return service_pass(workload, item, item_seed, tracer)
    except Exception:  # noqa: BLE001 - reported and counted as failed
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - start, "coverage": 0.0,
                "requests": len(item) if workload.kind == "service" else 1,
                "failed_checks": ["pass raised"]}


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` pool children (each
    counted at the largest child's peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_samples(args: argparse.Namespace, first: float) -> list[float]:
    """This process's set-up time plus fresh-process repeats."""
    samples = [first]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def repeat_mismatch(first: dict[str, Any], again: dict[str, Any]) -> list:
    """A repeat of an input must reproduce the first pass's outcome
    (the witness count aside, which one pass per run takes)."""
    if "outcome" not in first or "outcome" not in again:
        return []
    expected = {key: value for key, value in first["outcome"].items()
                if key in again["outcome"]}
    if again["outcome"] != expected \
            or again["coverage"] != first["coverage"]:
        return ["outcome differs from the input's first pass"]
    return []


def untraced_run(workload: Workload, inputs: list, seconds: float,
                 args: argparse.Namespace, setup_s: float) -> dict:
    # Whole cycles only, so every pool input is timed equally often.
    # The witness covers run once, after the seed's design's first
    # pass; every other pass is held to its input's first outcome.
    begin = time.perf_counter()
    passes: list[dict[str, Any]] = []
    firsts: dict[int, dict[str, Any]] = {}
    cycles = 0
    while True:
        for design, item in inputs:
            result = run_pass(workload, design, item, Tracer(False),
                              witness=not passes)
            result["input_seed"] = design
            first = firsts.setdefault(design, result)
            if result is not first:
                result["failed_checks"] += repeat_mismatch(first, result)
            passes.append(result)
            print(f"pass {len(passes) - 1} input {design}: "
                  f"{result['wall_s']:.3f} s"
                  + (f" FAILED {result['failed_checks']}"
                     if result["failed_checks"] else ""), flush=True)
        cycles += 1
        elapsed = time.perf_counter() - begin
        if cycles >= MIN_CYCLES \
                and elapsed + elapsed / cycles > min(seconds, 150.0):
            break
    rss = peak_rss_mb(workload.workers)
    setups = setup_samples(args, setup_s)
    coverage = {p["input_seed"]: p["coverage"] for p in passes}
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_time(passes),
        "fault_coverage": statistics.fmean(coverage.values()),
        "peak_rss_mb": rss,
    }
    print(f"setup samples: {[round(s, 3) for s in setups]}")
    return {"metrics": metrics, "passes": passes,
            "attempted": sum(p["requests"] for p in passes),
            "failed": sum(p["requests"] for p in passes
                          if p["failed_checks"])}


def pass_time(passes: list[dict[str, Any]]) -> float:
    """Mean over the pool's inputs of each input's median pass time.

    Other tenants of the machine slow passes down in stretches from a
    fraction of a second to minutes; the median of an input's repeats
    steps over the worst of them, and the mean over inputs weighs the
    seed's input and each reference equally.  A failed pass may have
    stopped early, so its time is left out."""
    times: dict[int, list[float]] = {}
    for p in passes:
        if not p["failed_checks"]:
            times.setdefault(p["input_seed"], []).append(p["wall_s"])
    if not times:
        return statistics.median(p["wall_s"] for p in passes)
    return statistics.fmean(statistics.median(t) for t in times.values())


def finalize_layers(raw: dict[str, float], workers: int) -> dict:
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: float(raw.get(name, 0.0)) for name in PER_LAYER}
    out["dft.podem.decided_share"] = ratio(
        raw.get("dft.podem.detected", 0) + raw.get("dft.podem.untestable", 0),
        raw.get("dft.podem.faults_targeted", 0))
    out["store.hit_rate"] = ratio(
        raw.get("store.hits", 0),
        raw.get("store.hits", 0) + raw.get("store.misses", 0))
    out["store.warm_hit_rate"] = ratio(raw.get("warm_hits", 0),
                                       raw.get("warm_lookups", 0))
    out["service.dedup_rate"] = ratio(
        raw.get("service.units_coalesced", 0)
        + raw.get("service.units_store_hits", 0),
        raw.get("service.units_total", 0))
    out["service.pool_busy_share"] = ratio(
        sum(raw.get(f"service.unit_run_s.{s}", 0) for s in SERVICE_STAGES),
        raw.get("wall_s", 0) * workers)
    out["trace.stage_coverage"] = ratio(raw.get("stage_span_s", 0),
                                        raw.get("wall_s", 0))
    return out


def traced_run(workload: Workload, inputs: list,
               args: argparse.Namespace) -> dict:
    tracer = Tracer()
    traced = []
    extra_passes: list[dict[str, Any]] = []
    raw: dict[str, float] = {}
    for design, item in inputs:
        tracer.run_id = f"{workload.name}:{args.seed}:{design}"
        result = run_pass(workload, design, item, tracer)
        result["input_seed"] = design
        traced.append(result)
        for key, value in result.items():
            if isinstance(value, (int, float)) and key != "input_seed":
                raw[key] = raw.get(key, 0.0) + value
        print(f"traced input {design}: {result['wall_s']:.3f} s"
              + (f" FAILED {result['failed_checks']}"
                 if result["failed_checks"] else ""), flush=True)

    # Tracing overhead: the last input untraced, paired with its traced
    # pass above (both after every first-use cost is paid), then more
    # traced/untraced pairs where passes are cheap.
    last_seed, last = inputs[-1]
    pairs = []
    for index in range(OVERHEAD_PAIRS[workload.kind]):
        if index:
            again = run_pass(workload, last_seed, last, Tracer(),
                             witness=False)
            extra_passes.append(again)
        else:
            again = traced[-1]
        untraced = run_pass(workload, last_seed, last, Tracer(False),
                            witness=False)
        extra_passes.append(untraced)
        pairs.append((again["wall_s"], untraced["wall_s"]))
    traced_s = statistics.median(t for t, _ in pairs)
    untraced_s = statistics.median(u for _, u in pairs)
    raw["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    layers = finalize_layers(raw, workload.workers)

    self_times = tracer.self_times()
    print("self time by span (s):")
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        if name.startswith(("stage:", "phase:", "unit:", "pass")):
            print(f"  {name:30s} {value:9.3f}")
    print(f"tracing overhead: {raw['trace.overhead_s']:+.3f} s on input "
          f"{inputs[-1][0]} (median of {len(pairs)} pairs: "
          f"{traced_s:.3f} traced vs {untraced_s:.3f} untraced)")
    sidecar = {
        "workload": workload.name, "seed": args.seed,
        "inputs": [design for design, _ in inputs],
        "per_layer": {name: {"value": layers[name],
                             "unit": PER_LAYER[name][0],
                             "kind": kind_of(name)}
                      for name in PER_LAYER},
        "passes": traced,
        "self_time_s": self_times,
        "overhead": {"pairs_traced_untraced_s": pairs},
        "spans": tracer.spans,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(sidecar, indent=1, sort_keys=True))
    print(f"trace written to {path.relative_to(ROOT)}")
    for again in extra_passes:
        again["failed_checks"] += repeat_mismatch(traced[-1], again)
    passes = traced + extra_passes
    return {"metrics": layers, "passes": passes,
            "attempted": sum(p["requests"] for p in passes),
            "failed": sum(p["requests"] for p in passes
                          if p["failed_checks"])}


def kind_of(name: str) -> str:
    return "count" if PER_LAYER[name][0] in ("count", "ratio") else "timing"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up alone and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import_program()
    inputs = make_inputs(workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"{workload.name}: inputs {[d for d, _ in inputs]}, "
          f"set-up {setup_s:.3f} s", flush=True)

    if args.trace:
        out = traced_run(workload, inputs, args)
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        out = untraced_run(workload, inputs, args.seconds, args, setup_s)
        units = END_TO_END
    for name, value in out["metrics"].items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
