"""Pure-Python CDCL core: first-UIP learning, two-watched literals,
activity-free branching (lowest unassigned variable in a fixed order),
incremental solving under assumptions in the MiniSat style (Een &
Sorensson, "An Extensible SAT-solver", SAT 2003).

Literals are encoded as ``2*v`` (positive) / ``2*v + 1`` (negative) over
1-based variables.  No restarts and no clause deletion: the instances this
workbench produces are small and highly propagating, and determinism is
worth more than raw speed.  A conflict cap guards against surprises; hitting
it raises, it is never reported as UNSAT.

One solver answers many questions about one formula.  `assume(lits)` sets
the assumptions (DIMACS literals) of the next `solve()`, which places them
as pseudo-decisions at levels 1..k before searching; they are not counted
as decisions.  When an assumption is found false, `solve()` returns False
and `failed()` names a subset of the assumptions that the formula refutes.
Learned clauses and level-0 facts carry over from call to call, and
`add_clause` adds a clause between calls; a conflict at level 0 makes the
solver unsatisfiable for good.  `stats()` and the conflict cap cover the
last `solve()` call only.
"""

from __future__ import annotations

from .errors import SolverCapError

UNDEF = -1


class Solver:
    def __init__(self, num_vars: int, clauses, order=None,
                 max_conflicts: int = 5_000_000):
        self.num_vars = num_vars
        self.max_conflicts = max_conflicts
        self.assigns = [UNDEF] * (num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason = [UNDEF] * (num_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
        self.current_level = 0
        self.lits: list[int] = []
        self.start: list[int] = []
        self.size: list[int] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]
        self.order = list(range(1, num_vars + 1)) if order is None else list(order)
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.ok = True
        self._assumptions: list[int] = []
        self._failed: list[int] = []
        self._seen = [False] * (num_vars + 1)
        for clause in clauses:
            if not self._add_clause(clause):
                self.ok = False
                break

    def _add_clause(self, clause) -> bool:
        out = []
        seen = set()
        for lit in clause:
            var = abs(lit)
            if not 1 <= var <= self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            enc = 2 * var + (1 if lit < 0 else 0)
            if enc ^ 1 in seen:
                return True  # tautology
            if enc not in seen:
                seen.add(enc)
                out.append(enc)
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], UNDEF)
        ci = len(self.start)
        self.start.append(len(self.lits))
        self.size.append(len(out))
        self.lits.extend(out)
        self.watches[out[0]].append(ci)
        self.watches[out[1]].append(ci)
        return True

    def add_clause(self, clause) -> None:
        """Add a clause between `solve()` calls.  It is simplified against
        the level-0 assignment first: level-0 literals are not propagated
        again, so a clause watching one of them would never fire."""
        if not self.ok:
            return
        if self.current_level > 0:
            self._backjump(0)
        kept = []
        for lit in clause:
            enc = self._encode(lit)
            if self._lit_true(enc):
                return  # satisfied for good
            if not self._lit_false(enc):
                kept.append(lit)
        if not self._add_clause(kept):
            self.ok = False

    def assume(self, lits) -> None:
        """Set the assumptions (DIMACS literals) of the next `solve()`."""
        self._assumptions = [self._encode(lit) for lit in lits]

    def failed(self) -> list[int]:
        """After `solve()` returned False: the assumptions (DIMACS
        literals) that the formula refutes together; empty when the
        formula is unsatisfiable on its own."""
        return list(self._failed)

    # -- assignment primitives ------------------------------------------

    def _encode(self, lit: int) -> int:
        var = abs(lit)
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"literal {lit} out of range")
        return 2 * var + (1 if lit < 0 else 0)

    def _lit_true(self, lit: int) -> bool:
        return self.assigns[lit >> 1] == (lit & 1) ^ 1

    def _lit_false(self, lit: int) -> bool:
        return self.assigns[lit >> 1] == lit & 1

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = lit >> 1
        value = (lit & 1) ^ 1
        if self.assigns[var] != UNDEF:
            return self.assigns[var] == value
        self.assigns[var] = value
        self.level[var] = self.current_level
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # -- search ----------------------------------------------------------

    def _propagate(self) -> int:
        """Exhaust pending implications; return a conflicting clause id or
        UNDEF."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = lit ^ 1
            ws = self.watches[false_lit]
            kept = []
            i = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                s = self.start[ci]
                if self.lits[s] == false_lit:
                    self.lits[s] = self.lits[s + 1]
                    self.lits[s + 1] = false_lit
                other = self.lits[s]
                if self._lit_true(other):
                    kept.append(ci)
                    continue
                found = False
                for k in range(s + 2, s + self.size[ci]):
                    if not self._lit_false(self.lits[k]):
                        self.lits[s + 1] = self.lits[k]
                        self.lits[k] = false_lit
                        self.watches[self.lits[s + 1]].append(ci)
                        found = True
                        break
                if found:
                    continue
                kept.append(ci)
                if self._lit_false(other):
                    kept.extend(ws[i:])
                    self.watches[false_lit] = kept
                    return ci
                self._enqueue(other, ci)
            self.watches[false_lit] = kept
        return UNDEF

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt, backjump level)
        with the asserting literal first."""
        learnt = [0]
        seen = self._seen
        touched = []
        counter = 0
        p = UNDEF
        index = len(self.trail) - 1
        while True:
            s = self.start[confl]
            for k in range(s, s + self.size[confl]):
                q = self.lits[k]
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    touched.append(var)
                    if self.level[var] == self.current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[var]
        learnt[0] = p ^ 1
        for var in touched:
            seen[var] = False
        if len(learnt) == 1:
            return learnt, 0
        max_k = 1
        for k in range(2, len(learnt)):
            if self.level[learnt[k] >> 1] > self.level[learnt[max_k] >> 1]:
                max_k = k
        learnt[1], learnt[max_k] = learnt[max_k], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _backjump(self, blevel: int) -> None:
        while self.trail and self.level[self.trail[-1] >> 1] > blevel:
            var = self.trail.pop() >> 1
            self.assigns[var] = UNDEF
            self.reason[var] = UNDEF
        self.qhead = len(self.trail)
        self.current_level = blevel

    def _record(self, learnt: list[int]) -> int:
        """Install a learnt clause; returns its id (UNDEF for units)."""
        self.learned += 1
        if len(learnt) == 1:
            return UNDEF
        ci = len(self.start)
        self.start.append(len(self.lits))
        self.size.append(len(learnt))
        self.lits.extend(learnt)
        self.watches[learnt[0]].append(ci)
        self.watches[learnt[1]].append(ci)
        return ci

    def _analyze_final(self, lit: int) -> list[int]:
        """The assumption `lit` is false: collect it and the assumptions
        (pseudo-decisions) its negation was propagated from, as DIMACS
        literals."""
        core = [lit]
        seen = self._seen
        if self.level[lit >> 1] > 0:
            seen[lit >> 1] = True
            for index in range(len(self.trail) - 1, -1, -1):
                q = self.trail[index]
                var = q >> 1
                if self.level[var] == 0:
                    break
                if not seen[var]:
                    continue
                seen[var] = False
                ci = self.reason[var]
                if ci == UNDEF:
                    core.append(q)
                    continue
                s = self.start[ci]
                for k in range(s, s + self.size[ci]):
                    other = self.lits[k] >> 1
                    if other != var and self.level[other] > 0:
                        seen[other] = True
        return [-(c >> 1) if c & 1 else c >> 1 for c in core]

    def solve(self) -> bool:
        assumptions, self._assumptions = self._assumptions, []
        self.decisions = self.conflicts = 0
        self.propagations = self.learned = 0
        self._failed = []
        if not self.ok:
            return False
        if self.current_level > 0:
            self._backjump(0)
        while True:
            confl = self._propagate()
            if confl != UNDEF:
                self.conflicts += 1
                if self.current_level == 0:
                    self.ok = False
                    return False
                if self.conflicts > self.max_conflicts:
                    raise SolverCapError(
                        f"conflict cap {self.max_conflicts} exceeded")
                learnt, blevel = self._analyze(confl)
                self._backjump(blevel)
                ci = self._record(learnt)
                self._enqueue(learnt[0], ci)
                continue
            if self.current_level < len(assumptions):
                lit = assumptions[self.current_level]
                if self._lit_false(lit):
                    self._failed = self._analyze_final(lit)
                    return False
                # An assumption already true opens an empty level.
                self.current_level += 1
                self._enqueue(lit, UNDEF)
                continue
            if len(self.trail) == self.num_vars:
                return True
            var = self._pick_branch_var()
            self.decisions += 1
            self.current_level += 1
            self._enqueue(2 * var, UNDEF)

    def _pick_branch_var(self) -> int:
        for var in self.order:
            if self.assigns[var] == UNDEF:
                return var
        raise AssertionError("no unassigned variable to branch on")

    def model(self) -> list[bool]:
        """Truth values indexed by variable (entry 0 unused)."""
        return [value == 1 for value in self.assigns]

    def stats(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
        }
