# cython: boundscheck=False, wraparound=False, initializedcheck=False
"""Compiled CDCL core: a mechanical port of `npverify.satcore` (keep the
two in lockstep; same decision order, same learned clauses, same models).

Literals are encoded as ``2*v`` (positive) / ``2*v + 1`` (negative) over
1-based variables.  First-UIP learning, two-watched literals, activity-free
branching, no restarts, no clause deletion; incremental solving under
assumptions (`assume`, `failed`, `add_clause`), with `stats()` and the
conflict cap covering the last `solve()` call only.
"""

from libc.stdlib cimport free, malloc, realloc
from libc.string cimport memset

from .errors import SolverCapError

cdef int UNDEF = -1


cdef struct IntVec:
    int *data
    int size
    int cap


cdef inline void vec_init(IntVec *v, int cap) noexcept:
    v.data = <int *> malloc(cap * sizeof(int))
    v.size = 0
    v.cap = cap


cdef inline void vec_push(IntVec *v, int value) noexcept:
    if v.size == v.cap:
        v.cap = v.cap * 2 if v.cap else 4
        v.data = <int *> realloc(v.data, v.cap * sizeof(int))
    v.data[v.size] = value
    v.size += 1


cdef class Solver:
    cdef int num_vars
    cdef long max_conflicts
    cdef signed char *assigns      # UNDEF / 0 / 1 per variable
    cdef int *level
    cdef int *reason
    cdef int *trail
    cdef int trail_len
    cdef int qhead
    cdef int current_level
    cdef IntVec lits
    cdef IntVec start
    cdef IntVec size
    cdef IntVec *watches           # 2 * num_vars + 2 literal slots
    cdef int *order
    cdef signed char *seen
    cdef public long decisions
    cdef public long conflicts
    cdef public long propagations
    cdef public long learned
    cdef bint ok
    cdef list assumptions_        # encoded literals for the next solve()
    cdef list failed_             # DIMACS literals from analyze_final

    def __cinit__(self, int num_vars, clauses, order=None,
                  long max_conflicts=5_000_000):
        cdef int i
        self.num_vars = num_vars
        self.max_conflicts = max_conflicts
        self.assigns = <signed char *> malloc(num_vars + 1)
        memset(self.assigns, 0xFF, num_vars + 1)  # UNDEF == -1
        self.level = <int *> malloc((num_vars + 1) * sizeof(int))
        memset(self.level, 0, (num_vars + 1) * sizeof(int))
        self.reason = <int *> malloc((num_vars + 1) * sizeof(int))
        for i in range(num_vars + 1):
            self.reason[i] = UNDEF
        self.trail = <int *> malloc((num_vars + 1) * sizeof(int))
        self.trail_len = 0
        self.qhead = 0
        self.current_level = 0
        vec_init(&self.lits, 1024)
        vec_init(&self.start, 256)
        vec_init(&self.size, 256)
        self.watches = <IntVec *> malloc((2 * num_vars + 2) * sizeof(IntVec))
        for i in range(2 * num_vars + 2):
            vec_init(&self.watches[i], 2)
        self.order = <int *> malloc(num_vars * sizeof(int))
        if order is None:
            for i in range(num_vars):
                self.order[i] = i + 1
        else:
            seq = list(order)
            if len(seq) != num_vars:
                raise ValueError("order must list every variable once")
            for i in range(num_vars):
                self.order[i] = seq[i]
        self.seen = <signed char *> malloc(num_vars + 1)
        memset(self.seen, 0, num_vars + 1)
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.ok = True
        self.assumptions_ = []
        self.failed_ = []
        for clause in clauses:
            if not self._add_clause(clause):
                self.ok = False
                break

    def __dealloc__(self):
        cdef int i
        free(self.assigns)
        free(self.level)
        free(self.reason)
        free(self.trail)
        free(self.lits.data)
        free(self.start.data)
        free(self.size.data)
        if self.watches != NULL:
            for i in range(2 * self.num_vars + 2):
                free(self.watches[i].data)
            free(self.watches)
        free(self.order)
        free(self.seen)

    cdef bint _add_clause(self, clause) except? False:
        cdef list out = []
        cdef set seen_lits = set()
        cdef int var, enc
        for lit in clause:
            var = abs(lit)
            if var < 1 or var > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            enc = 2 * var + (1 if lit < 0 else 0)
            if enc ^ 1 in seen_lits:
                return True  # tautology
            if enc not in seen_lits:
                seen_lits.add(enc)
                out.append(enc)
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], UNDEF)
        cdef int ci = self.start.size
        vec_push(&self.start, self.lits.size)
        vec_push(&self.size, len(out))
        for enc in out:
            vec_push(&self.lits, enc)
        vec_push(&self.watches[out[0]], ci)
        vec_push(&self.watches[out[1]], ci)
        return True

    def add_clause(self, clause):
        """Add a clause between `solve()` calls, simplified against the
        level-0 assignment first."""
        cdef int enc
        cdef list kept = []
        if not self.ok:
            return
        if self.current_level > 0:
            self._backjump(0)
        for lit in clause:
            enc = self._encode(lit)
            if self._lit_true(enc):
                return  # satisfied for good
            if not self._lit_false(enc):
                kept.append(lit)
        if not self._add_clause(kept):
            self.ok = False

    def assume(self, lits):
        """Set the assumptions (DIMACS literals) of the next `solve()`."""
        self.assumptions_ = [self._encode(lit) for lit in lits]

    def failed(self):
        """After `solve()` returned False: the assumptions (DIMACS
        literals) that the formula refutes together."""
        return list(self.failed_)

    cdef int _encode(self, lit) except -1:
        cdef int var = abs(lit)
        if var < 1 or var > self.num_vars:
            raise ValueError(f"literal {lit} out of range")
        return 2 * var + (1 if lit < 0 else 0)

    cdef inline bint _lit_true(self, int lit) noexcept:
        return self.assigns[lit >> 1] == (lit & 1) ^ 1

    cdef inline bint _lit_false(self, int lit) noexcept:
        return self.assigns[lit >> 1] == (lit & 1)

    cdef bint _enqueue(self, int lit, int reason) noexcept:
        cdef int var = lit >> 1
        cdef signed char value = (lit & 1) ^ 1
        if self.assigns[var] != UNDEF:
            return self.assigns[var] == value
        self.assigns[var] = value
        self.level[var] = self.current_level
        self.reason[var] = reason
        self.trail[self.trail_len] = lit
        self.trail_len += 1
        return True

    cdef int _propagate(self) noexcept:
        cdef int lit, false_lit, ci, s, other, k, i, w
        cdef IntVec *ws
        cdef bint found
        while self.qhead < self.trail_len:
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = lit ^ 1
            ws = &self.watches[false_lit]
            w = 0
            i = 0
            while i < ws.size:
                ci = ws.data[i]
                i += 1
                s = self.start.data[ci]
                if self.lits.data[s] == false_lit:
                    self.lits.data[s] = self.lits.data[s + 1]
                    self.lits.data[s + 1] = false_lit
                other = self.lits.data[s]
                if self._lit_true(other):
                    ws.data[w] = ci
                    w += 1
                    continue
                found = False
                for k in range(s + 2, s + self.size.data[ci]):
                    if not self._lit_false(self.lits.data[k]):
                        self.lits.data[s + 1] = self.lits.data[k]
                        self.lits.data[k] = false_lit
                        vec_push(&self.watches[self.lits.data[s + 1]], ci)
                        found = True
                        break
                if found:
                    continue
                ws.data[w] = ci
                w += 1
                if self._lit_false(other):
                    while i < ws.size:
                        ws.data[w] = ws.data[i]
                        w += 1
                        i += 1
                    ws.size = w
                    return ci
                self._enqueue(other, ci)
            ws.size = w
        return UNDEF

    cdef tuple _analyze(self, int confl):
        cdef list learnt = [0]
        cdef list touched = []
        cdef int counter = 0
        cdef int p = UNDEF
        cdef int index = self.trail_len - 1
        cdef int s, k, q, var, max_k
        while True:
            s = self.start.data[confl]
            for k in range(s, s + self.size.data[confl]):
                q = self.lits.data[k]
                if q == p:
                    continue
                var = q >> 1
                if not self.seen[var] and self.level[var] > 0:
                    self.seen[var] = 1
                    touched.append(var)
                    if self.level[var] == self.current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not self.seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            index -= 1
            var = p >> 1
            self.seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[var]
        learnt[0] = p ^ 1
        for var in touched:
            self.seen[var] = 0
        if len(learnt) == 1:
            return learnt, 0
        max_k = 1
        for k in range(2, len(learnt)):
            if self.level[<int> learnt[k] >> 1] > self.level[<int> learnt[max_k] >> 1]:
                max_k = k
        learnt[1], learnt[max_k] = learnt[max_k], learnt[1]
        return learnt, self.level[<int> learnt[1] >> 1]

    cdef void _backjump(self, int blevel) noexcept:
        cdef int var
        while self.trail_len and self.level[self.trail[self.trail_len - 1] >> 1] > blevel:
            self.trail_len -= 1
            var = self.trail[self.trail_len] >> 1
            self.assigns[var] = UNDEF
            self.reason[var] = UNDEF
        self.qhead = self.trail_len
        self.current_level = blevel

    cdef int _record(self, list learnt):
        self.learned += 1
        if len(learnt) == 1:
            return UNDEF
        cdef int ci = self.start.size
        vec_push(&self.start, self.lits.size)
        vec_push(&self.size, len(learnt))
        cdef int enc
        for enc in learnt:
            vec_push(&self.lits, enc)
        vec_push(&self.watches[<int> learnt[0]], ci)
        vec_push(&self.watches[<int> learnt[1]], ci)
        return ci

    cdef list _analyze_final(self, int lit):
        cdef list core = [lit]
        cdef int index, q, var, ci, s, k, other
        if self.level[lit >> 1] > 0:
            self.seen[lit >> 1] = 1
            for index in range(self.trail_len - 1, -1, -1):
                q = self.trail[index]
                var = q >> 1
                if self.level[var] == 0:
                    break
                if not self.seen[var]:
                    continue
                self.seen[var] = 0
                ci = self.reason[var]
                if ci == UNDEF:
                    core.append(q)
                    continue
                s = self.start.data[ci]
                for k in range(s, s + self.size.data[ci]):
                    other = self.lits.data[k] >> 1
                    if other != var and self.level[other] > 0:
                        self.seen[other] = 1
        return [-(c >> 1) if c & 1 else c >> 1 for c in core]

    def solve(self):
        cdef int confl, var, ci, blevel, lit
        cdef list learnt
        cdef list assumptions = self.assumptions_
        self.assumptions_ = []
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.failed_ = []
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
                self._enqueue(<int> learnt[0], ci)
                continue
            if self.current_level < len(assumptions):
                lit = assumptions[self.current_level]
                if self._lit_false(lit):
                    self.failed_ = self._analyze_final(lit)
                    return False
                # An assumption already true opens an empty level.
                self.current_level += 1
                self._enqueue(lit, UNDEF)
                continue
            if self.trail_len == self.num_vars:
                return True
            var = self._pick_branch_var()
            self.decisions += 1
            self.current_level += 1
            self._enqueue(2 * var, UNDEF)

    cdef int _pick_branch_var(self) except? -2:
        cdef int i, var
        for i in range(self.num_vars):
            var = self.order[i]
            if self.assigns[var] == UNDEF:
                return var
        raise AssertionError("no unassigned variable to branch on")

    def model(self):
        """Truth values indexed by variable (entry 0 unused)."""
        cdef int var
        return [self.assigns[var] == 1 for var in range(self.num_vars + 1)]

    def stats(self):
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
        }
