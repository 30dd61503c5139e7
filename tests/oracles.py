"""Brute-force twins of every semantics, written from the raw definitions.

Everything here quantifies literally: candidate sets are drawn from the
full powerset of actions (or revision literals) over the given atoms,
minimality loops enumerate all subsets, and the existential definitions
(justified weak repairs and revisions, supported revisions) search over
all witnesses. Nothing is shared with the engine beyond the plain data
classes, so agreement between the two routes is meaningful evidence.

All functions return sets of frozensets and take the atom alphabet
explicitly; they are exponential on purpose and only suitable for the
small instances the test suites generate.
"""

from __future__ import annotations

import itertools

from aicrepair.model import AicRule, Literal, RevLiteral, RevRule, UpdateAction


def subsets(pool):
    items = list(pool)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


def consistent(xs) -> bool:
    return len({x.atom for x in xs}) == len(set(xs))


# -- constraint side -----------------------------------------------------


def holds(db, literal: Literal) -> bool:
    return (literal.atom in db) == literal.positive


def satisfies_rule(db, rule: AicRule) -> bool:
    return not all(holds(db, l) for l in rule.body)


def satisfies(db, program) -> bool:
    return all(satisfies_rule(db, r) for r in program)


def apply(db, actions) -> frozenset[str]:
    inserted = {a.atom for a in actions if a.insert}
    deleted = {a.atom for a in actions if not a.insert}
    return (frozenset(db) | inserted) - deleted


def canonical_key(actions) -> tuple:
    """Sort sets of update actions into canonical order: by their elements,
    each sorted by atom, the insertion before the deletion."""
    return tuple(sorted((a.atom, not a.insert) for a in actions))


def all_actions(atoms) -> list[UpdateAction]:
    return [UpdateAction(a, s) for a in sorted(atoms) for s in (True, False)]


def ne(db, result, atoms) -> frozenset[UpdateAction]:
    """No-effect actions: insertions of atoms in both databases and
    deletions of atoms in neither."""
    keep = {UpdateAction(a, True) for a in atoms if a in db and a in result}
    drop = {UpdateAction(a, False) for a in atoms if a not in db and a not in result}
    return frozenset(keep | drop)


def weak_repairs(db, program, atoms) -> set[frozenset]:
    found = set()
    for u in subsets(all_actions(atoms)):
        if not consistent(u):
            continue
        if any((a.atom in db) == a.insert for a in u):
            continue
        if satisfies(apply(db, u), program):
            found.add(u)
    return found


def repairs(db, program, atoms) -> set[frozenset]:
    weak = weak_repairs(db, program, atoms)
    return {
        u
        for u in weak
        if not any(satisfies(apply(db, v), program) for v in subsets(u) if v != u)
    }


def founded_action(db, program, u, action) -> bool:
    result = apply(db, u)
    for r in program:
        if action not in r.head:
            continue
        others = r.head - {action}
        up = {Literal(b.atom, not b.insert) for b in r.head}
        nup = r.body - up
        if all(holds(result, l) for l in nup) and all(
            holds(result, Literal(b.atom, not b.insert)) for b in others
        ):
            return True
    return False


def founded_set(db, program, u) -> bool:
    return all(founded_action(db, program, u, a) for a in u)


def founded_weak_repairs(db, program, atoms) -> set[frozenset]:
    return {u for u in weak_repairs(db, program, atoms) if founded_set(db, program, u)}


def founded_repairs(db, program, atoms) -> set[frozenset]:
    return {u for u in repairs(db, program, atoms) if founded_set(db, program, u)}


def closed_under(program, u) -> bool:
    made_true = {Literal(a.atom, a.insert) for a in u}
    for r in program:
        up = {Literal(b.atom, not b.insert) for b in r.head}
        nup = r.body - up
        if nup <= made_true and not (r.head & u):
            return False
    return True


def justified_action_sets(db, program, atoms) -> set[frozenset]:
    found = set()
    for u in subsets(all_actions(atoms)):
        if not consistent(u):
            continue
        core = ne(db, apply(db, u), atoms)
        if not core <= u:
            continue
        if not closed_under(program, u):
            continue
        if any(
            core <= v and closed_under(program, v) for v in subsets(u) if v != u
        ):
            continue
        found.add(u)
    return found


def justified_weak_repairs(db, program, atoms) -> set[frozenset]:
    """Via the primary, existential definition: subtract the no-effect set
    from each justified action set."""
    return {
        u - ne(db, apply(db, u), atoms)
        for u in justified_action_sets(db, program, atoms)
    }


def justified_repairs(db, program, atoms) -> set[frozenset]:
    return {
        e
        for e in justified_weak_repairs(db, program, atoms)
        if not any(satisfies(apply(db, v), program) for v in subsets(e) if v != e)
    }


def normalize(program) -> tuple[AicRule, ...]:
    out = []
    for r in program:
        if len(r.head) <= 1:
            out.append(r)
        else:
            for a in sorted(r.head, key=lambda x: (x.atom, not x.insert)):
                out.append(AicRule(r.body, frozenset({a})))
    return tuple(out)


# -- revision side -------------------------------------------------------


def holds_rev(db, literal: RevLiteral) -> bool:
    return (literal.atom in db) == literal.is_in


def satisfies_rev_rule(db, rule: RevRule) -> bool:
    if all(holds_rev(db, l) for l in rule.body):
        return any(holds_rev(db, l) for l in rule.head)
    return True


def satisfies_rev(db, program) -> bool:
    return all(satisfies_rev_rule(db, r) for r in program)


def apply_rev(db, literals) -> frozenset[str]:
    added = {l.atom for l in literals if l.is_in}
    removed = {l.atom for l in literals if not l.is_in}
    return (frozenset(db) | added) - removed


def all_rev_literals(atoms) -> list[RevLiteral]:
    return [RevLiteral(a, s) for a in sorted(atoms) for s in (True, False)]


def inertia(db, result, atoms) -> frozenset[RevLiteral]:
    stay = {RevLiteral(a, True) for a in atoms if a in db and a in result}
    out = {RevLiteral(a, False) for a in atoms if a not in db and a not in result}
    return frozenset(stay | out)


def weak_revisions(db, program, atoms) -> set[frozenset]:
    found = set()
    for u in subsets(all_rev_literals(atoms)):
        if not consistent(u):
            continue
        if u & inertia(db, apply_rev(db, u), atoms):
            continue
        if satisfies_rev(apply_rev(db, u), program):
            found.add(u)
    return found


def revisions(db, program, atoms) -> set[frozenset]:
    weak = weak_revisions(db, program, atoms)
    return {
        u
        for u in weak
        if not any(
            satisfies_rev(apply_rev(db, v), program) for v in subsets(u) if v != u
        )
    }


def founded_rev_literal(db, program, e, literal) -> bool:
    result = apply_rev(db, e)
    for r in program:
        if literal not in r.head:
            continue
        others = r.head - {literal}
        if all(holds_rev(result, l) for l in r.body) and all(
            holds_rev(result, b.dual()) for b in others
        ):
            return True
    return False


def founded_rev_set(db, program, e) -> bool:
    return all(founded_rev_literal(db, program, e, l) for l in e)


def founded_weak_revisions(db, program, atoms) -> set[frozenset]:
    return {
        e for e in weak_revisions(db, program, atoms) if founded_rev_set(db, program, e)
    }


def founded_revisions(db, program, atoms) -> set[frozenset]:
    return {
        e for e in revisions(db, program, atoms) if founded_rev_set(db, program, e)
    }


def closed_under_rev(program, u) -> bool:
    for r in program:
        if r.body <= u and not (r.head & u):
            return False
    return True


def justified_updates(db, program, atoms) -> set[frozenset]:
    """Consistent minimal sets closed under the program together with the
    inertia literals (taken as body-free rules, so every closed set must
    contain them)."""
    found = set()
    for u in subsets(all_rev_literals(atoms)):
        if not consistent(u):
            continue
        frame = inertia(db, apply_rev(db, u), atoms)
        if not frame <= u:
            continue
        if not closed_under_rev(program, u):
            continue
        if any(
            frame <= v and closed_under_rev(program, v) for v in subsets(u) if v != u
        ):
            continue
        found.add(u)
    return found


def justified_weak_revisions(db, program, atoms) -> set[frozenset]:
    return {
        u - inertia(db, apply_rev(db, u), atoms)
        for u in justified_updates(db, program, atoms)
    }


def justified_revisions(db, program, atoms) -> set[frozenset]:
    return {
        e
        for e in justified_weak_revisions(db, program, atoms)
        if not any(
            satisfies_rev(apply_rev(db, v), program) for v in subsets(e) if v != e
        )
    }


def supported_updates(db, program, atoms) -> set[frozenset]:
    """Consistent fixpoints: the set equals the heads of the rules whose
    bodies hold in the updated database. A triggered rule with an empty
    head asks for the unsatisfiable, so no set qualifies then. Normal
    programs only."""
    found = set()
    for u in subsets(all_rev_literals(atoms)):
        if not consistent(u):
            continue
        result = apply_rev(db, u)
        triggered = [
            r for r in program if all(holds_rev(result, b) for b in r.body)
        ]
        if any(not r.head for r in triggered):
            continue
        heads = frozenset(l for r in triggered for l in r.head)
        if u == heads:
            found.add(u)
    return found


def supported_revisions(db, program, atoms) -> set[frozenset]:
    return {
        u - inertia(db, apply_rev(db, u), atoms)
        for u in supported_updates(db, program, atoms)
    }


def normalize_rev(program) -> tuple[RevRule, ...]:
    out = []
    for r in program:
        if len(r.head) <= 1:
            out.append(r)
        else:
            ordered_head = sorted(r.head, key=lambda x: (x.atom, not x.is_in))
            for a in ordered_head:
                extra = {b.dual() for b in r.head if b != a}
                out.append(RevRule(frozenset({a}), r.body | extra))
    return tuple(out)


# -- disjunctive programs -------------------------------------------------


def models_positive(interp, rules) -> bool:
    """Model check for reduct rules (pairs of head atoms, positive body)."""
    return all(
        not pos <= interp or (head & interp) for head, pos in rules
    )


def reduct(program, m) -> list[tuple[frozenset, frozenset]]:
    """The Gelfond-Lifschitz reduct by ``m``: the rules whose negative body
    avoids ``m``, as pairs of head atoms and positive body."""
    return [(r.head, r.pos_body) for r in program if not (r.neg_body & m)]


def answer_sets(program, atoms) -> set[frozenset]:
    found = set()
    for m in subsets(sorted(atoms)):
        rules = reduct(program, m)
        if not models_positive(m, rules):
            continue
        if any(models_positive(n, rules) for n in subsets(m) if n != m):
            continue
        found.add(m)
    return found


# -- clause search -------------------------------------------------------
#
# The reference for ``model.clause_search``, on its masks rather than on
# sets: the search node by node, over all positions as one block.


def clause_search(clauses, n: int) -> list[int]:
    """The masks over ``n`` positions that make no clause ``(m, f)`` hold
    (``x & m != f``), in the order of their sorted positions."""
    by_last = [[] for _ in range(n)]
    for m, f in clauses:
        if not m:
            return []
        by_last[m.bit_length() - 1].append((m, f))
    return block_search(by_last, 0, n)[0]


def block_search(by_last, lo: int, hi: int) -> tuple[list[int], int]:
    """The masks over positions ``lo`` to ``hi - 1`` that make no clause
    hold, and the nodes visited. The search assigns the positions in
    order, depth first, and tests each clause when its last position
    (``by_last``) is assigned, cutting the branch there. From a node it
    first follows the branch that sets no further bit, then each child
    that sets one more, lowest first, with its whole subtree, so the masks
    come out in the order of their sorted positions."""
    found = []
    nodes = 1
    todo = [(lo, 0)]
    while todo:
        start, x = todo.pop()
        i = start
        children = []
        while i < hi:
            checks = by_last[i]
            y = x | 1 << i
            for m, f in checks:
                if y & m == f:
                    break
            else:
                children.append((i + 1, y))
            for m, f in checks:
                if x & m == f:
                    break
            else:
                i += 1
                continue
            break
        else:
            found.append(x)
        nodes += i - start + len(children)
        todo.extend(reversed(children))
    return found, nodes
