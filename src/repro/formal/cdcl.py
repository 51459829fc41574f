"""A small deterministic CDCL SAT solver.

The bounded-model-checking engine of :mod:`repro.formal.bmc` needs a
complete SAT decision procedure that the repository can ship without
external dependencies, and -- like every other engine here -- one whose
answers are a *pure function of the input*.  This is a classic
conflict-driven clause-learning solver in the MiniSat mould:

* **two-watched-literal** unit propagation;
* **1UIP conflict analysis** with clause learning and non-chronological
  backjumping;
* **VSIDS** variable activities (exponential bump/decay) driving the
  decision heuristic, with *fixed seeded tie-breaking*: equal
  activities resolve through a per-variable jitter derived from
  ``crc32(seed, var)``, so two solves of the same formula -- in any
  process, on any worker of a fan-out -- take byte-identical paths;
* **Luby restarts** keyed on conflict counts (never wall time);
* **assumption literals** with failed-assumption core extraction, the
  hook the unsat-core-lite of BMC builds on.

Literals use the DIMACS convention: variable ``v`` is the positive
literal ``v`` and its negation ``-v``; variables are 1-based and
allocated through :meth:`Solver.new_var`.

Storage layout: what unit propagation touches is indexed by the
literal itself.  The value and watch lists have length
``2 * capacity + 1`` and keep ``v`` at index ``v`` and ``-v`` at index
``-v`` -- Python's negative indexing, slot ``len - v`` -- so
``value[lit]`` and ``watches[lit]`` need neither ``abs`` nor a dict.
:meth:`Solver.new_var` doubles the capacity when it runs out and moves
the negative half to the new tail.  Per-variable data (level, reason,
polarity, activity, the analysis ``seen`` marks) lives in lists
indexed by variable.  Propagation compacts each watch list in place
(MiniSat's ``i``/``j`` loop), and the VSIDS heap holds at most one
live entry per variable.

Same-search contract: the layout is not observable.  Watch order, the
decision pick (highest activity + jitter among unassigned variables,
lowest index on ties), conflict analysis and the restart schedule are
fixed, so decisions, conflicts, propagations, models and cores are a
pure function of (clauses in order, seed, assumptions);
``tests/test_cdcl_golden.py`` pins them.  :meth:`Solver.solve` never
consults the clock, the process id, or any global randomness, so the
statistics may be embedded in canonical JSON reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

__all__ = ["SatError", "Solver", "SolverStats", "luby"]

#: Capacity (variables) of the literal-indexed lists of a new solver.
_INITIAL_CAPACITY = 64


class SatError(Exception):
    """Malformed clause or literal handed to the solver."""


def luby(index: int) -> int:
    """The ``index``-th term (1-based) of the Luby restart sequence.

    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... -- the optimal universal restart
    schedule; the solver multiplies it by a base conflict budget.
    """
    if index < 1:
        raise SatError("luby index is 1-based")
    x = index - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolverStats:
    """Deterministic search statistics of one :meth:`Solver.solve`."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned: int = 0
    restarts: int = 0
    max_learned_length: int = 0

    def to_dict(self) -> dict[str, int]:
        """Sorted JSON-ready form."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "learned": self.learned,
            "max_learned_length": self.max_learned_length,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }


class Solver:
    """Deterministic CDCL solver over DIMACS-style integer literals.

    Typical use::

        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve()
        assert solver.value(b)

    After an UNSAT :meth:`solve` under assumptions, :attr:`core` holds
    the subset of assumption literals the refutation actually used.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self.n_vars = 0
        self.stats = SolverStats()
        #: After UNSAT-under-assumptions: the failed assumption subset.
        self.core: tuple[int, ...] = ()
        self._clauses: list[list[int]] = []
        # Literal-indexed (see the module docstring): 1 true, -1 false,
        # 0 free, and the clauses watching each literal.
        self._capacity = _INITIAL_CAPACITY
        size = 2 * _INITIAL_CAPACITY + 1
        self._value: list[int] = [0] * size
        self._watches: list[list[list[int]]] = [[] for _ in range(size)]
        # Variable-indexed; slot 0 is unused.
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._polarity: list[bool] = [False]
        self._seen: list[bool] = [False]
        # VSIDS: heap of (-(activity + jitter), var); ``_in_heap[v]``
        # says whether v has an entry carrying its current key.
        self._activity: list[float] = [0.0]
        self._jitter: list[float] = [0.0]
        #: crc32 of ``f"{seed}:"``, continued with each variable number.
        self._jitter_crc = zlib.crc32(f"{seed}:".encode())
        self._in_heap: list[bool] = [False]
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat = False  # empty clause / level-0 conflict seen

    # -- problem construction -----------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive literal)."""
        self.n_vars += 1
        var = self.n_vars
        if var > self._capacity:
            self._grow()
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._seen.append(False)
        # Tiny per-(seed, var) jitter so exact activity ties still have
        # a fixed, seed-controlled resolution order.
        noise = zlib.crc32(b"%d" % var, self._jitter_crc) / 2**32
        self._activity.append(0.0)
        self._jitter.append(noise * 1e-12)
        self._in_heap.append(True)
        heappush(self._heap, (-(noise * 1e-12), var))
        return var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add one clause; duplicates collapse, tautologies vanish.

        Clauses are added at decision level 0: after a satisfiable
        :meth:`solve` the solver first backtracks there, so the model
        is gone (:meth:`value` raises for every literal not fixed at
        level 0) until the next solve.
        """
        if self._trail_lim:
            self._backtrack(0)
        seen: set[int] = set()
        clause: list[int] = []
        n_vars = self.n_vars
        for lit in lits:
            if not 0 < abs(lit) <= n_vars:
                raise SatError(f"unknown literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        # Drop literals already false at level 0; satisfied clauses
        # vanish entirely.
        value = self._value
        filtered: list[int] = []
        for lit in clause:
            current = value[lit]
            if current == 1:
                return
            if current == 0:
                filtered.append(lit)
        if len(filtered) > 1:
            self._attach(filtered)
        elif not filtered:
            self._unsat = True
        elif not self._enqueue(filtered[0], None) or \
                self._propagate() is not None:
            self._unsat = True

    def _attach(self, clause: list[int]) -> None:
        """Store a clause of two or more literals, watching 0 and 1."""
        self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # -- observation ---------------------------------------------------

    def value(self, lit: int) -> bool:
        """Model value of ``lit`` after a satisfiable solve."""
        if not 0 < abs(lit) <= self.n_vars:
            raise SatError(f"unknown literal {lit}")
        value = self._value[lit]
        if value == 0:
            raise SatError(f"literal {lit} unassigned (no model?)")
        return value == 1

    def model(self) -> dict[int, bool]:
        """The full model as ``{var: bool}`` after a SAT solve."""
        value = self._value
        return {var: value[var] == 1 for var in range(1, self.n_vars + 1)}

    # -- internals -----------------------------------------------------

    def _grow(self) -> None:
        """Double the capacity of the literal-indexed lists."""
        old = self._capacity
        self._capacity = 2 * old
        # ``old`` new slots for v = old+1 .. 2*old, then ``old`` for
        # their negations, between the positive and the negative half.
        self._value[old + 1:old + 1] = [0] * (2 * old)
        self._watches[old + 1:old + 1] = [[] for _ in range(2 * old)]

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self._value
        current = value[lit]
        if current:
            return current == 1
        value[lit] = 1
        value[-lit] = -1
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; returns a conflicting clause."""
        trail = self._trail
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        polarity = self._polarity
        decision_level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict: list[int] | None = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watch_list = watches[false_lit]
            # In-place compaction: kept clauses move down to slot j;
            # ``moved`` counts clauses that left for another watch.
            j = moved = 0
            for clause in watch_list:
                # Normalise: the falsified watch sits at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = value[first]
                if first_value == 1:
                    watch_list[j] = clause  # already satisfied
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        moved += 1
                        break
                else:
                    watch_list[j] = clause
                    j += 1
                    if first_value == -1:
                        conflict = clause
                        break
                    value[first] = 1
                    value[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = decision_level
                    reason[var] = clause
                    polarity[var] = first > 0
                    trail.append(first)
            if conflict is not None:
                # Slots j .. j+moved-1 are the gaps left so far; the
                # clauses after the conflict stay where they are.
                del watch_list[j:j + moved]
                break
            del watch_list[j:]
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return conflict

    def _rescale(self) -> None:
        """Scale activities down by 1e100 and rebuild the heap."""
        activity = self._activity
        jitter = self._jitter
        value = self._value
        in_heap = self._in_heap
        for v in range(1, self.n_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        heap = self._heap
        heap.clear()
        for v in range(1, self.n_vars + 1):
            free = value[v] == 0
            in_heap[v] = free
            if free:
                heap.append((-(activity[v] + jitter[v]), v))
        heapify(heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP learned clause + backjump level for ``conflict``."""
        seen = self._seen
        level = self._level
        trail = self._trail
        reasons = self._reason
        activity = self._activity
        in_heap = self._in_heap
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        counter = 0
        lit = 0
        index = len(trail) - 1
        reason: list[int] | None = conflict
        current_level = len(self._trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # VSIDS bump; the variable is assigned, so its old
                    # heap entry is stale and backtracking re-pushes it.
                    activity[var] += self._var_inc
                    in_heap[var] = False
                    if activity[var] > 1e100:
                        self._rescale()
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            lit = trail[index]
            while not seen[lit if lit > 0 else -lit]:
                index -= 1
                lit = trail[index]
            var = lit if lit > 0 else -lit
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = reasons[var]
        learned[0] = -lit
        for q in learned:
            seen[q if q > 0 else -q] = False
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause; move that
        # literal into watch position 1.
        max_pos = 1
        for k in range(2, len(learned)):
            if level[abs(learned[k])] > level[abs(learned[max_pos])]:
                max_pos = k
        learned[1], learned[max_pos] = learned[max_pos], learned[1]
        return learned, level[abs(learned[1])]

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        value = self._value
        in_heap = self._in_heap
        activity = self._activity
        jitter = self._jitter
        heap = self._heap
        trail = self._trail
        # Reasons of unassigned variables are never read again, so they
        # are left in place.
        for lit in trail[bound:]:
            value[lit] = 0
            value[-lit] = 0
            var = lit if lit > 0 else -lit
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, (-(activity[var] + jitter[var]), var))
        del trail[bound:]
        del trail_lim[level:]
        if self._qhead > bound:
            self._qhead = bound

    def _pick_branch_var(self) -> int:
        """Highest activity + jitter unassigned variable (0 if none)."""
        heap = self._heap
        value = self._value
        activity = self._activity
        jitter = self._jitter
        in_heap = self._in_heap
        while heap:
            key, var = heappop(heap)
            if key != -(activity[var] + jitter[var]):
                continue  # stale: the variable was bumped since
            in_heap[var] = False
            if value[var] == 0:
                return var
        return 0

    def _analyze_final(self, lit: int) -> tuple[int, ...]:
        """Assumptions implicated in the failure of assumption ``lit``.

        ``lit`` was about to be assumed but is already false: walk the
        implication graph of ``-lit`` back to the decisions (which are
        all assumptions in the prefix) and return the used assumption
        literals, ``lit`` included, sorted by variable.
        """
        core: set[int] = {lit}
        seen = [False] * (self.n_vars + 1)
        seen[abs(lit)] = True
        for trail_lit in reversed(self._trail):
            var = abs(trail_lit)
            if not seen[var] or self._level[var] == 0:
                continue
            reason = self._reason[var]
            if reason is None:
                core.add(trail_lit)
            else:
                for q in reason:
                    if self._level[abs(q)] > 0:
                        seen[abs(q)] = True
        return tuple(sorted(core, key=abs))

    # -- search --------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under optional assumption literals.

        Returns True with a complete model (:meth:`value`), or False.
        When assumptions were given and the formula is satisfiable
        without them, :attr:`core` names the assumption subset the
        refutation actually used (unsat-core-lite); an unconditionally
        unsatisfiable formula yields an empty core.
        """
        self.core = ()
        if self._unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        for lit in assumptions:
            if not 0 < abs(lit) <= self.n_vars:
                raise SatError(f"unknown assumption literal {lit}")

        stats = self.stats
        trail_lim = self._trail_lim
        trail = self._trail
        value = self._value
        polarity = self._polarity
        n_assumptions = len(assumptions)
        conflict_budget = 0
        restart_index = 0
        restart_base = 64
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflict_budget -= 1
                if not trail_lim:
                    self._unsat = True
                    return False
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                stats.learned += 1
                if len(learned) > stats.max_learned_length:
                    stats.max_learned_length = len(learned)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None) or \
                            self._propagate() is not None:
                        self._unsat = True
                        return False
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= 0.95
                continue
            if conflict_budget <= 0 and len(trail_lim) > n_assumptions:
                restart_index += 1
                stats.restarts += 1
                conflict_budget = restart_base * luby(restart_index)
                self._backtrack(0)
                continue
            if len(trail_lim) < n_assumptions:
                # Assumptions occupy the first decision levels, in
                # order; a false one refutes the assumption set.
                lit = assumptions[len(trail_lim)]
                current = value[lit]
                if current == -1:
                    self.core = self._analyze_final(lit)
                    self._backtrack(0)
                    return False
                trail_lim.append(len(trail))
                if current == 0:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                return True
            stats.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(var if polarity[var] else -var, None)
