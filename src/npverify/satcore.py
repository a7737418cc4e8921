"""Pure-Python CDCL core: first-UIP learning, two-watched literals,
activity-free branching (lowest unassigned variable in a fixed order),
incremental solving under assumptions in the MiniSat style (Een &
Sorensson, "An Extensible SAT-solver", SAT 2003).

Literals are encoded as ``2*v`` (positive) / ``2*v + 1`` (negative) over
1-based variables, through one table per base index that maps each
DIMACS literal to its encoded int, so the loaded clauses share those 2n
int objects instead of holding a fresh int per entry.  No restarts and no
clause deletion: the instances this workbench produces are small and
highly propagating, and determinism is worth more than raw speed.  A
conflict cap guards against surprises; hitting it raises, it is never
reported as UNSAT.

One solver answers many questions about one formula.  `assume(lits)` sets
the assumptions (DIMACS literals) of the next `solve()`, which places them
as pseudo-decisions at levels 1..k before searching; they are not counted
as decisions.  When an assumption is found false, `solve()` returns False
and `failed()` names a subset of the assumptions that the formula refutes,
analysed from the trail only when it is asked for.
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
clause is returned as a fresh two-literal list; `_analyze` and
`_analyze_final` expand a binary reason code in place.
Learned binary clauses take the same path.  Each list keeps its clauses
in load order, so the search is a fixed function of the formula, its
clause order and the branching order.

The clause database is one class, `BaseIndex`, and `Solver` is the
search on top of it.  A database starts empty, or opens copy-on-write on
an index: it copies the value table and trail, shares the literal table,
copies only the outer list of `binaries`, and replaces an inner list with
a copy the first time it appends to it.  It copies each long clause (one
per profile in an NP encoding), as watching reorders its literals.  Then
it loads its own clauses in one of two ways.  The encoded base of a
domain is written from the walk of its encoding (`cnf.BaseWalk`) by
`_write`: each profile's exactly-one group, then the clauses of each
variant pair, two list appends a clause, with no clause tuple in
between.  Every other clause (a scenario layer's tuple of units and
clauses over a whole index set, and the clause lists tests build) goes
through `_add_clause` one at a time, as a clause that `add_clause` adds
between calls does: it checks every literal's range, drops repeated
literals and tautologies and files the clause by its length.  Both give
the lists of one load of the clauses that iterating the walk yields,
clause by clause.  A base is written once, into an index
that keeps no search state and is read-only from then on, and every
session on that base opens its solver on it.  Every list holds the
base's entries first, in load order, then the solver's own, so the
search is that of one load of the base followed by the solver's
clauses.

Only a watched literal has a watch list: ``watches[p]`` is None until a
long clause first watches ``p``, as MiniSat's scheme needs lists only
for watched literals, so a core on NP(6, 3) holds 85,334 watch lists,
not one for each of its 255,998 literals.

The assignment is one table indexed by encoded literal, as in MiniSat:
``values[lit]`` is 1 when ``lit`` is true, 0 when it is false and UNDEF
when its variable is unassigned, and every assignment or unassignment
writes both ``values[lit]`` and ``values[lit ^ 1]``, so a propagation
step reads a literal's value with one lookup.  `trail_lim` holds the trail
length at which each decision or assumption level opened, so its length
is the current level; a backjump cuts the trail there instead of walking
back over it.  Neither changes the search: the trail order, conflicts,
learned clauses and statistics are those of a variable-indexed table,
pinned by the search digest in `tests/test_verify.py`.
"""

from __future__ import annotations

import random

from .errors import SolverCapError

UNDEF = -1
BINARY = -2  # reason code BINARY - q: a binary clause with q false
MAX_CONFLICTS = 5_000_000  # per solve() call; exceeding it raises


class BaseIndex:
    """One core's clause database: the literal table, the implication
    lists, the long clauses in load order, the level-0 assignment and
    trail, and `ok`.  Built on its own, it is the read-only index of one
    base that every `Solver` on it shares."""

    def __init__(self, num_vars: int, clauses):
        self._open(num_vars, None)
        self.ok = self.ok and self._load_store(clauses)
        # Only a search reads or appends to these after the load.
        del self.level, self.reason, self.trail_lim, self._shared

    def _open(self, num_vars: int, base: BaseIndex | None) -> None:
        """Start empty, or on the index `base` copy-on-write.  Its long
        clauses are copied through `_store`, so a solver watches them,
        in index order, before its own."""
        if base is None:
            size = 2 * num_vars + 2
            # lits: DIMACS literal -> encoded literal; anything else, 0
            # included, is out of range.
            self.lits = lits = {}
            for var in range(1, num_vars + 1):
                lits[var] = 2 * var
                lits[-var] = 2 * var + 1
            # values[lit]: 1 when lit is true, 0 when it is false, UNDEF
            # when its variable is unassigned; values[2*v] is v's own value.
            self.values = [UNDEF] * size
            self.trail: list[int] = []
            # One empty list for every literal, copied before its first
            # append.
            shared: list[list[int]] = [[]] * size
            self.ok = True
        elif base.num_vars != num_vars:
            raise ValueError(f"index over {base.num_vars} variables, "
                             f"not {num_vars}")
        else:
            self.lits = base.lits
            self.values = base.values[:]
            self.trail = base.trail[:]
            shared = base.binaries
            self.ok = base.ok
        self.num_vars = num_vars
        self.level = [0] * (num_vars + 1)
        self.reason = [UNDEF] * (num_vars + 1)
        # trail_lim[d]: the trail length where level d + 1 opened; its
        # length is the current decision level, 0 while loading.
        self.trail_lim: list[int] = []
        # binaries[p]: the other literal of every binary clause holding
        # p; an entry that is still _shared[p] is not this core's own.
        self.binaries = shared[:]
        self._shared = shared
        # clauses: every long clause, base or learned, as one list of
        # encoded literals.
        self.clauses: list[list[int]] = []
        if base is not None:
            for clause in base.clauses:
                self._store(clause[:])

    def _load_store(self, clauses) -> bool:
        """Load `clauses`: the store of an encoded base is written from
        its walk; any other store or sequence of clauses goes through
        `_add_clause` clause by clause.  Returns False when a clause is
        empty or contradicts the units before it, and loads no further."""
        walk = getattr(clauses, "walk", None)
        if walk is not None:
            return self._write(walk)
        return all(map(self._add_clause, clauses))

    def _write(self, walk) -> bool:
        """The index writer: the clauses of the base encoding `walk`,
        written straight into the lists in the order that iterating the
        walk yields them, so the lists are those that `_add_clause`
        builds from that stream clause by clause.
        A profile's exactly-one group makes the implication list of each
        of its negative literals this core's own (when m > 1), so a
        variant pair's clauses append to those lists without a check."""
        lits = self.lits
        binaries = self.binaries
        shared = self._shared
        m = walk.m
        alt_pairs = walk.alt_pairs
        # negs[i][a]: the encoded literal -(i * m + a + 1); imps[i][a]: its
        # implication list.
        negs = []
        imps = []
        for base in walk.groups:
            if m > 1:
                self._store([lits[v] for v in range(base, base + m)])
            elif not self._enqueue(lits[base], UNDEF):
                return False
            row = [lits[-v] for v in range(base, base + m)]
            for a, b in alt_pairs:
                x = row[a]
                y = row[b]
                # Inlined `_own`: a copy before the first append.
                into = binaries[x]
                if into is shared[x]:
                    into = binaries[x] = into[:]
                into.append(y)
                into = binaries[y]
                if into is shared[y]:
                    into = binaries[y] = into[:]
                into.append(x)
            negs.append(row)
            imps.append([binaries[x] for x in row])
        for i, j, forward, backward in walk.pairs():
            neg_i = negs[i]
            neg_j = negs[j]
            imp_i = imps[i]
            imp_j = imps[j]
            for a, b in forward:
                imp_i[a].append(neg_j[b])
                imp_j[b].append(neg_i[a])
            for a, b in backward:
                imp_j[a].append(neg_i[b])
                imp_i[b].append(neg_j[a])
        return True

    def _own(self, lit: int) -> list[int]:
        """This core's own implication list of `lit`, copied from the
        index's on first use."""
        binaries = self.binaries[lit]
        if binaries is self._shared[lit]:
            binaries = self.binaries[lit] = binaries[:]
        return binaries

    def _add_clause(self, clause) -> bool:
        out = []
        seen = set()
        for lit in clause:
            enc = self._encode(lit)
            if enc not in seen:
                seen.add(enc)
                out.append(enc)
        # Every literal is encoded, and so range-checked, before a
        # tautology is dropped.
        if any(enc ^ 1 in seen for enc in out):
            return True  # tautology
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], UNDEF)
        self._store(out)
        return True

    def _store(self, out: list[int]):
        """Install a clause of two or more literals: a binary one in the
        implication lists, a longer one in `clauses`.  Returns the reason
        that makes it imply `out[0]`."""
        if len(out) == 2:
            self._own(out[0]).append(out[1])
            self._own(out[1]).append(out[0])
            return BINARY - out[1]
        self.clauses.append(out)
        return out

    def _encode(self, lit: int) -> int:
        enc = self.lits.get(lit)
        if enc is None:
            raise ValueError(f"literal {lit} out of range")
        return enc

    def _enqueue(self, lit: int, reason) -> bool:
        values = self.values
        if values[lit] != UNDEF:
            return values[lit] == 1
        values[lit] = 1
        values[lit ^ 1] = 0
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True


class Solver(BaseIndex):
    def __init__(self, num_vars: int, clauses, seed=None, base=None):
        """A core on the index `base` with `clauses` loaded on top, or,
        with no index, on an empty database with every clause of
        `clauses`.  It branches on the variables in order, or in an
        order shuffled by `seed` when that is nonzero."""
        # watches[p]: the long clauses watching p, base ones first in
        # index order; None until a clause first watches p.
        self.watches: list[list[list[int]] | None] = [None] * (
            2 * num_vars + 2)
        self._open(num_vars, base)
        self.qhead = 0
        # The branching order, built at the first decision: a core whose
        # questions propagation alone answers never shuffles one.
        self.order: list[int] | None = None
        self._seed = seed
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self._assumptions: list[int] = []
        # The assumption the last solve() found false, if any; read by
        # failed() until the next solve() or add_clause().
        self._refuted = None
        self._seen = [False] * (num_vars + 1)
        self.ok = self.ok and self._load_store(clauses)

    def _store(self, out: list[int]):
        """`BaseIndex._store`, with a long clause watched on its first two
        literals; a literal gets its watch list on first use."""
        if len(out) == 2:
            return super()._store(out)
        self.clauses.append(out)
        watches = self.watches
        for lit in out[0], out[1]:
            ws = watches[lit]
            if ws is None:
                watches[lit] = [out]
            else:
                ws.append(out)
        return out

    def add_clause(self, clause) -> None:
        """Add a clause between `solve()` calls.  It is simplified against
        the level-0 assignment first: level-0 literals are not propagated
        again, so a clause watching one of them would never fire."""
        if not self.ok:
            return
        self._refuted = None
        if self.trail_lim:
            self._backjump(0)
        values = self.values
        kept = []
        for lit in clause:
            value = values[self._encode(lit)]
            if value == 1:
                return  # satisfied for good
            if value != 0:
                kept.append(lit)
        if not self._add_clause(kept):
            self.ok = False

    def assume(self, lits) -> None:
        """Set the assumptions (DIMACS literals) of the next `solve()`."""
        self._assumptions = [self._encode(lit) for lit in lits]

    def failed(self) -> list[int]:
        """After `solve()` returned False, and before the next `solve()`
        or `add_clause()`: the assumptions (DIMACS literals) that the
        formula refutes together; empty when the formula is unsatisfiable
        on its own.  Analysed on request from the trail that `solve()`
        left, so a sweep that never asks pays nothing for it."""
        if self._refuted is None:
            return []
        return self._analyze_final(self._refuted)

    # -- search ----------------------------------------------------------

    def _propagate(self):
        """Exhaust pending implications; return the falsified clause as a
        list of literals, or UNDEF."""
        trail = self.trail
        values = self.values
        level = self.level
        reason = self.reason
        watches = self.watches
        binaries = self.binaries
        current = len(self.trail_lim)
        qhead = first = self.qhead
        confl = UNDEF
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            code = BINARY - false_lit
            for other in binaries[false_lit]:
                value = values[other]
                if value == 1:
                    continue
                if value == UNDEF:
                    values[other] = 1
                    values[other ^ 1] = 0
                    var = other >> 1
                    level[var] = current
                    reason[var] = code
                    trail.append(other)
                else:
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
                value = values[other]
                if value == 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if values[q] != 0:
                        c[1] = q
                        c[k] = false_lit
                        # As in `_store`: a list on first use.
                        into = watches[q]
                        if into is None:
                            watches[q] = [c]
                        else:
                            into.append(c)
                        break
                else:
                    kept.append(c)
                    if value != UNDEF:
                        kept.extend(ws[i:])
                        confl = c
                        break
                    values[other] = 1
                    values[other ^ 1] = 0
                    var = other >> 1
                    level[var] = current
                    reason[var] = c
                    trail.append(other)
            watches[false_lit] = kept
            if confl != UNDEF:
                break
        self.propagations += qhead - first
        self.qhead = qhead
        return confl

    def _analyze(self, confl) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt, backjump level)
        with the asserting literal first."""
        learnt = [0]
        seen = self._seen
        level = self.level
        trail = self.trail
        current = len(self.trail_lim)
        touched = []
        counter = 0
        p = UNDEF
        index = len(trail) - 1
        while True:
            if type(confl) is not list:  # a binary reason code
                confl = (p, BINARY - confl)
            for q in confl:
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
        values = self.values
        reason = self.reason
        cut = self.trail_lim[blevel]
        del self.trail_lim[blevel:]
        for lit in trail[cut:]:
            values[lit] = UNDEF
            values[lit ^ 1] = UNDEF
            reason[lit >> 1] = UNDEF
        del trail[cut:]
        self.qhead = cut

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
                if type(reason) is not list:  # a binary reason code
                    reason = (q, BINARY - reason)
                for other in reason:
                    other >>= 1
                    if other != var and self.level[other] > 0:
                        seen[other] = True
        return [-(c >> 1) if c & 1 else c >> 1 for c in core]

    def solve(self) -> bool:
        assumptions, self._assumptions = self._assumptions, []
        self.decisions = self.conflicts = 0
        self.propagations = self.learned = 0
        self._refuted = None
        if not self.ok:
            return False
        if self.trail_lim:
            self._backjump(0)
        while True:
            confl = self._propagate()
            if confl != UNDEF:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                if self.conflicts > MAX_CONFLICTS:
                    raise SolverCapError(
                        f"conflict cap {MAX_CONFLICTS} exceeded")
                learnt, blevel = self._analyze(confl)
                self._backjump(blevel)
                self._enqueue(learnt[0], self._record(learnt))
                continue
            level = len(self.trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                if self.values[lit] == 0:
                    self._refuted = lit
                    return False
                # An assumption already true opens an empty level.
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, UNDEF)
                continue
            if len(self.trail) == self.num_vars:
                return True
            var = self._pick_branch_var()
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * var, UNDEF)

    def _pick_branch_var(self) -> int:
        order = self.order
        if order is None:
            order = self.order = list(range(1, self.num_vars + 1))
            if self._seed:
                random.Random(self._seed).shuffle(order)
        for var in order:
            if self.values[2 * var] == UNDEF:
                return var
        raise AssertionError("no unassigned variable to branch on")

    def model(self) -> list[bool]:
        """Truth values indexed by variable (entry 0 unused)."""
        return [value == 1 for value in self.values[::2]]

    def stats(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
        }
