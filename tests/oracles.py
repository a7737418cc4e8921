"""Independent brute-force oracles.

Everything here re-derives results from first principles with the dumbest
workable algorithm and shares no code with the package (plain tuples in,
plain values out), so agreement between package and oracle is meaningful.
"""

import itertools


def all_orders(m):
    return list(itertools.permutations(range(m)))


def prefers(ordering, a, b):
    """True iff `a` comes before `b`; scans rather than indexes."""
    for alt in ordering:
        if alt == a:
            return True
        if alt == b:
            return False
    raise ValueError(f"{a} and {b} not both in {ordering}")


def has_dominated_pair(profile):
    m = len(profile[0])
    for a in range(m):
        for b in range(m):
            if a != b and all(prefers(v, a, b) for v in profile):
                return True
    return False


def np_members(n, m):
    """The Non-Paretian domain by direct filtering."""
    return [p for p in itertools.product(all_orders(m), repeat=n)
            if not has_dominated_pair(p)]


def np_star_members(n, m):
    return [p for p in np_members(n, m) if p[-2] == p[-1]]


def np_count_inclusion_exclusion(n, m):
    """|NP(n, m)| by inclusion-exclusion over the unanimity events
    E(a,b) = "every voter prefers a to b"."""
    orderings = all_orders(m)
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    total = 0
    for k in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, k):
            consistent = sum(
                1 for o in orderings
                if all(prefers(o, a, b) for a, b in subset))
            total += (-1) ** k * consistent ** n
    return total


def manipulations(choice, members):
    """All (p, q, voter) triples where `voter` gains at p by reporting as
    in q, by the definitional double loop over ordered profile pairs."""
    member_set = set(members)
    found = []
    for p in members:
        for q in member_set:
            diff = [h for h in range(len(p)) if p[h] != q[h]]
            if len(diff) != 1:
                continue
            h = diff[0]
            gp, gq = choice(p), choice(q)
            if gp != gq and prefers(p[h], gq, gp):
                found.append((p, q, h))
    return found


def is_strategy_proof(choice, members):
    return not manipulations(choice, members)


def pair_dictator(voter, a, b):
    """The two-valued rule that follows `voter`'s ranking of {a, b}; this
    is strategy-proof on any domain (only the pivotal voter can move the
    outcome, and only against their own ranking)."""
    def choice(profile):
        return a if prefers(profile[voter], a, b) else b
    return choice


def known_sp_rules(n, m):
    """A family of rules that are strategy-proof by elementary arguments:
    dictators, constants, and two-valued pair dictators."""
    out = {}
    for voter in range(n):
        out[f"dictator{voter}"] = (lambda v: lambda p: p[v][0])(voter)
    for alt in range(m):
        out[f"constant{alt}"] = (lambda a: lambda p: a)(alt)
    for voter in range(n):
        for a in range(m):
            for b in range(a + 1, m):
                out[f"pair{voter}_{a}{b}"] = pair_dictator(voter, a, b)
    return out


def eval_clause(clause, assignment):
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def eval_clauses(clauses, assignment):
    return all(eval_clause(c, assignment) for c in clauses)


def brute_sat(num_vars, clauses):
    """Exhaustive satisfiability for tiny formulas."""
    for mask in range(1 << num_vars):
        assignment = {v: bool(mask >> (v - 1) & 1)
                      for v in range(1, num_vars + 1)}
        if eval_clauses(clauses, assignment):
            return assignment
    return None


def bracket_moves(ordering, a, b, part):
    """Every rearrangement of one voter's (a, b) bracket, `a` above `b`,
    by enumerating all permutations of the segment: part 1 permutes the
    interior together with b and keeps those where b strictly rises, part
    2 permutes a together with the interior and keeps those where a
    strictly falls.  Sorted by the moved endpoint's new rank, then
    lexicographically."""
    top = next(i for i, alt in enumerate(ordering) if alt == a)
    bottom = next(i for i, alt in enumerate(ordering) if alt == b)
    if part == 1:
        lo, hi, moved = top + 1, bottom + 1, b
    else:
        lo, hi, moved = top, bottom, a
    old = next(i for i, alt in enumerate(ordering) if alt == moved)
    found = []
    for perm in itertools.permutations(ordering[lo:hi]):
        candidate = ordering[:lo] + perm + ordering[hi:]
        new = next(i for i, alt in enumerate(candidate) if alt == moved)
        if (new < old) if part == 1 else (new > old):
            found.append((new, candidate))
    return [candidate for _, candidate in sorted(found)]


def variant_pairs(members):
    """Every unordered pair of members that differ at exactly one voter,
    as (i, j, voter) with i < j in list order.  Two profiles that agree
    at all voters but one agree at the first or at the second voter, so
    only pairs sharing one of those two orderings are compared."""
    found = set()
    for shared in (0, 1):
        groups = {}
        for i, p in enumerate(members):
            groups.setdefault(p[shared], []).append(i)
        for group in groups.values():
            for i, j in itertools.combinations(group, 2):
                p, q = members[i], members[j]
                diff = [h for h in range(len(p)) if p[h] != q[h]]
                if len(diff) == 1:
                    found.add((i, j, diff[0]))
    return found
