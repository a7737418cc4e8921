"""Pure-Python CDCL core: first-UIP learning, two-watched literals,
activity-free branching (lowest unassigned variable in a fixed order),
incremental solving under assumptions in the MiniSat style (Een &
Sorensson, "An Extensible SAT-solver", SAT 2003).

Literals are encoded as ``2*v`` (positive) / ``2*v + 1`` (negative) over
1-based variables, through one table per solver that maps each DIMACS
literal to its encoded int, so the loaded clauses share those 2n int
objects instead of holding a fresh int per entry.  No restarts and no
clause deletion: the instances this workbench produces are small and
highly propagating, and determinism is worth more than raw speed.  A
conflict cap guards against surprises; hitting it raises, it is never
reported as UNSAT.

One solver answers many questions about one formula.  `assume(lits)` sets
the assumptions (DIMACS literals) of the next `solve()`, which places them
as pseudo-decisions at levels 1..k before searching; they are not counted
as decisions.  When an assumption is found false, `solve()` returns False
and `failed()` names a subset of the assumptions that the formula refutes.
Learned clauses and level-0 facts carry over from call to call, and
`add_clause` adds a clause between calls; a conflict at level 0 makes the
solver unsatisfiable for good.  `stats()` and the conflict cap cover the
last `solve()` call only.

Almost every clause of an NP encoding is binary (33,174 of the 34,080
base clauses of NP(4, 3)), so binary clauses are implicit, as in MiniSat:
each lives only as two entries of the per-literal implication lists
`binaries`, indexed like `watches` (``binaries[p]`` holds the other
literal of every binary clause containing ``p``), and never gets a watch.
`_propagate` scans the implication list of a falsified literal before its
long-clause watches.  A long clause (three or more literals, base or
learned) is one list of encoded literals in `clauses`, watched on its
first two; that list object is what `watches` holds, what `reason` holds
for the literal it implies, and what `_propagate` returns when it is
falsified.  A literal implied by a binary clause whose other literal
``q`` is false has the reason code ``BINARY - q``, and a falsified binary
clause is returned as a fresh two-literal list.  `_clause` turns any
reason or conflict into its literals for the analyses.  Learned binary
clauses take the same path.  Each list keeps its clauses in load order,
so the search is a fixed function of the formula, its clause order and
the branching order.
"""

from __future__ import annotations

from .errors import SolverCapError

UNDEF = -1
BINARY = -2  # reason code BINARY - q: a binary clause with q false
MAX_CONFLICTS = 5_000_000  # per solve() call; exceeding it raises


class Solver:
    def __init__(self, num_vars: int, clauses, order=None):
        self.num_vars = num_vars
        self.assigns = [UNDEF] * (num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason = [UNDEF] * (num_vars + 1)
        self.trail: list[int] = []
        self.qhead = 0
        self.current_level = 0
        # clauses: every long clause, base or learned, as one list of
        # encoded literals; watches[p]: the long clauses watching p.
        self.clauses: list[list[int]] = []
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 2)]
        # binaries[p]: the other literal of every binary clause holding p.
        self.binaries: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]
        self.order = list(range(1, num_vars + 1)) if order is None else list(order)
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.ok = True
        self._assumptions: list[int] = []
        self._failed: list[int] = []
        self._seen = [False] * (num_vars + 1)
        # _lits: DIMACS literal -> encoded literal; anything else, 0
        # included, is out of range.
        self._lits = lits = {}
        for var in range(1, num_vars + 1):
            lits[var] = 2 * var
            lits[-var] = 2 * var + 1
        binaries = self.binaries
        for clause in clauses:
            if len(clause) != 2:
                if not self._add_clause(clause):
                    self.ok = False
                    break
                continue
            x, y = clause
            a = lits.get(x)
            b = lits.get(y)
            if a is None or b is None:
                self._encode(x)  # raises for the first unknown literal
                self._encode(y)
            if a == b:
                if not self._enqueue(a, UNDEF):
                    self.ok = False
                    break
            elif a != b ^ 1:  # a tautology is dropped
                binaries[a].append(b)
                binaries[b].append(a)

    def _add_clause(self, clause) -> bool:
        out = []
        seen = set()
        for lit in clause:
            enc = self._encode(lit)
            if enc ^ 1 in seen:
                return True  # tautology
            if enc not in seen:
                seen.add(enc)
                out.append(enc)
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], UNDEF)
        self._store(out)
        return True

    def _store(self, out: list[int]):
        """Install a clause of two or more literals: a binary one in the
        implication lists, a longer one watched on its first two literals.
        Returns the reason that makes it imply `out[0]`."""
        if len(out) == 2:
            self.binaries[out[0]].append(out[1])
            self.binaries[out[1]].append(out[0])
            return BINARY - out[1]
        self.clauses.append(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return out

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
        enc = self._lits.get(lit)
        if enc is None:
            raise ValueError(f"literal {lit} out of range")
        return enc

    def _lit_true(self, lit: int) -> bool:
        return self.assigns[lit >> 1] == (lit & 1) ^ 1

    def _lit_false(self, lit: int) -> bool:
        return self.assigns[lit >> 1] == lit & 1

    def _enqueue(self, lit: int, reason) -> bool:
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

    def _propagate(self):
        """Exhaust pending implications; return the falsified clause as a
        list of literals, or UNDEF."""
        trail = self.trail
        assigns = self.assigns
        level = self.level
        reason = self.reason
        watches = self.watches
        binaries = self.binaries
        current = self.current_level
        qhead = first = self.qhead
        confl = UNDEF
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            code = BINARY - false_lit
            for other in binaries[false_lit]:
                value = assigns[other >> 1]
                if value == UNDEF:
                    var = other >> 1
                    assigns[var] = (other & 1) ^ 1
                    level[var] = current
                    reason[var] = code
                    trail.append(other)
                elif value == other & 1:
                    confl = [other, false_lit]
                    break
            if confl != UNDEF:
                break
            ws = watches[false_lit]
            if not ws:
                continue
            kept = []
            i = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                other = c[0]
                if other == false_lit:
                    other = c[1]
                    c[0] = other
                    c[1] = false_lit
                value = assigns[other >> 1]
                if value == (other & 1) ^ 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if assigns[q >> 1] != q & 1:
                        c[1] = q
                        c[k] = false_lit
                        watches[q].append(c)
                        break
                else:
                    kept.append(c)
                    if value != UNDEF:
                        kept.extend(ws[i:])
                        confl = c
                        break
                    var = other >> 1
                    assigns[var] = (other & 1) ^ 1
                    level[var] = current
                    reason[var] = c
                    trail.append(other)
            watches[false_lit] = kept
            if confl != UNDEF:
                break
        self.propagations += qhead - first
        self.qhead = qhead
        return confl

    @staticmethod
    def _clause(reason, implied: int) -> list[int]:
        """The literals of a reason or conflict; `implied` is the literal
        it implied, needed only for a binary reason code."""
        if type(reason) is list:
            return reason
        return [implied, BINARY - reason]

    def _analyze(self, confl) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt, backjump level)
        with the asserting literal first."""
        learnt = [0]
        seen = self._seen
        level = self.level
        trail = self.trail
        current = self.current_level
        touched = []
        counter = 0
        p = UNDEF
        index = len(trail) - 1
        while True:
            for q in self._clause(confl, p):
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    touched.append(var)
                    if level[var] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
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
            if level[learnt[k] >> 1] > level[learnt[max_k] >> 1]:
                max_k = k
        learnt[1], learnt[max_k] = learnt[max_k], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _backjump(self, blevel: int) -> None:
        trail = self.trail
        level = self.level
        assigns = self.assigns
        reason = self.reason
        cut = len(trail)  # the trail is ordered by level
        while cut and level[trail[cut - 1] >> 1] > blevel:
            cut -= 1
        for lit in trail[cut:]:
            assigns[lit >> 1] = UNDEF
            reason[lit >> 1] = UNDEF
        del trail[cut:]
        self.qhead = cut
        self.current_level = blevel

    def _record(self, learnt: list[int]):
        """Install a learnt clause; returns the reason of its first
        literal (UNDEF for units)."""
        self.learned += 1
        if len(learnt) == 1:
            return UNDEF
        return self._store(learnt)

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
                reason = self.reason[var]
                if reason == UNDEF:
                    core.append(q)
                    continue
                for other in self._clause(reason, q):
                    other >>= 1
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
                if self.conflicts > MAX_CONFLICTS:
                    raise SolverCapError(
                        f"conflict cap {MAX_CONFLICTS} exceeded")
                learnt, blevel = self._analyze(confl)
                self._backjump(blevel)
                self._enqueue(learnt[0], self._record(learnt))
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
