"""The factorised, bit-packed single-chase kernel for branch pairs.

The baseline pair loop in :mod:`repro.propagation.check` materializes a
symbolic instance per branch pair, couples it through the query's LHS
pattern and chases with ``dict``/``SymVar`` churn.  This module replays
exactly that computation on a *packed* representation:

- every cell of a materialized pair is interned to a dense integer id —
  constants by value (Sigma pattern constants first, then instance
  constants in walk order), chase variables after them in
  first-occurrence order — so ``equate``/``resolve`` become array
  union-find operations;
- the source CFDs compile once per template into flat per-row programs
  (premise checks as ``(cell, const_node)`` id pairs, Case-1 group keys
  as cell-id tuples) consumed by a fixpoint loop;
- the k² branch-pair space is factorised: pairs whose packed structure
  is identical share one *template*, the template's sigma-chased base
  state is computed once, and coupled chase outcomes are cached per
  packed premise signature ``(template, lhs pattern)`` — so isomorphic
  pairs and same-LHS queries never re-chase.

Soundness rests on chase confluence: the extended chase applies only
equality-generating consequences, so its result is the least fixpoint of
a closure operator — order-independent, and ``closure(base ∪ coupling) =
closure(closure(base) ∪ coupling)``.  The packed verdict (same class /
class constant) therefore coincides with the baseline's resolved-cell
comparison.  A violation found is then proven from Sigma's CFD objects
by :meth:`PackedPairRunner.certify`, not from the compiled rules; the
witness path instead re-chases the flagged pair on the baseline, whose
chased instance is the witness's, so counterexamples are byte-identical.
``tests/test_kernel.py``, ``tests/test_pair_certificate.py`` and the
fuzz matrix enforce all of this differentially.

The kernel covers exactly the shared-single-chase setting
(``BranchPairCache.can_share_chase``); every other construct falls back
to the baseline (see ``docs/kernel.md``).
"""

from __future__ import annotations

import weakref
from functools import partial
from operator import itemgetter
from typing import Any, Iterable

from ..algebra.ops import AttrEq
from ..core.chase import SymVar
from ..core.lru import LRUCache
from ..core.values import is_const, is_wildcard

__all__ = ["PackedPairRunner", "UNDEFINED"]

#: Sentinel chase outcome: the coupled instance is unsatisfiable.
UNDEFINED = object()

_MISSING = object()


class _Template:
    """The packed form shared by all structurally identical branch pairs.

    ``const_boundary`` splits the node space: ids below it are the
    constants present at build time (each its own singleton value class),
    ids at or above are chase variables — except ids appended later by
    :meth:`PackedPairRunner._coupled_state` for pattern constants unseen
    at build time, which carry their own id in ``cnode`` directly.
    """

    __slots__ = (
        "const_ids",
        "const_boundary",
        "node_count",
        "equalities",
        "const_rules",
        "pair_rules",
        "cells1",
        "cells2",
        "rows",
        "base_state",
        "outcomes",
    )

    def __init__(self) -> None:
        self.const_ids: dict[Any, int] = {}
        self.const_boundary = 0
        self.node_count = 0
        self.equalities: list[tuple[int, int]] = []
        # [(checks, rhs_cell, target_const_node)]
        self.const_rules: list[tuple[tuple[tuple[int, int], ...], int, int]] = []
        # [[(checks, key_cells, rhs_cell)]] — one program per Case-1 CFD
        self.pair_rules: list[
            list[tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]]
        ] = []
        self.cells1: dict[str, int] = {}
        self.cells2: dict[str, int] = {}
        self.rows: dict[str, list[dict[str, int]]] = {}  # relation -> packed rows
        self.base_state: Any = None  # lazy: (parent, cnode) | UNDEFINED
        self.outcomes: LRUCache | None = None  # lhs -> (parent, cnode) | UNDEFINED

    def intern_const(self, value: Any) -> int:
        """Node id for *value*, appending past the var range if new."""
        node = self.const_ids.get(value)
        if node is None:
            node = self.node_count
            self.const_ids[value] = node
            self.node_count += 1
        return node


def _find(parent: list[int], node: int) -> int:
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


class _Conflict(Exception):
    """Two distinct constants were equated — the chase is undefined."""


def _union(parent: list[int], cnode: list[int], a: int, b: int) -> bool:
    ra = _find(parent, a)
    rb = _find(parent, b)
    if ra == rb:
        return False
    ca = cnode[ra]
    cb = cnode[rb]
    if ca >= 0 and cb >= 0 and ca != cb:
        raise _Conflict
    parent[rb] = ra
    if ca < 0 and cb >= 0:
        cnode[ra] = cb
    return True


class PackedPairRunner:
    """One Sigma's packed pair loop over one :class:`BranchPairCache`.

    Built (and cached) per ``(view cache, sigma_key)``; ``find_violation``
    answers the Case-1/Case-2 half of ``check._pair_violation`` — it
    returns the first violating ordered pair with its chased state, or
    ``None``, and :meth:`certify` proves such a hit.  The caller owns the
    decision of when this kernel applies (single-chase setting, cache
    enabled); after a run it must consult :attr:`usable` — a ``False``
    means the runner met a construct it cannot intern (e.g. an
    unhashable constant, or ``nan``) and the whole query must be
    re-answered on the baseline path.
    """

    def __init__(self, sigma: list, cache, capacity: int | None = None) -> None:
        self._sigma = sigma
        # BranchPairCache (base pairs).  The cache owns this runner; a
        # strong back-reference would make the pair a cycle that keeps
        # every tableau alive until a full garbage collection.
        self._cache = weakref.ref(cache)
        # The cache's EngineStats, ticked in place (it holds no cache).
        self._stats = cache.stats
        self._evicted = partial(cache.stats.tick, "tableau_evictions")
        self._capacity = capacity
        self._templates: dict[tuple, _Template] = {}
        self._packs: dict[tuple[int, int], _Template | None] = {}
        self.usable = True
        self._checks: dict[str, tuple[list, list]] | None = None

    # ------------------------------------------------------------------
    # Packing: pair -> template (+ structural dedup).
    # ------------------------------------------------------------------

    def _pack(self, i: int, j: int) -> _Template | None:
        pack = self._packs.get((i, j), _MISSING)
        if pack is not _MISSING:
            return pack
        base = self._cache().base_pair(i, j)
        if base is None:
            self._packs[(i, j)] = None
            return None
        instance, cells1, cells2 = base

        # Deterministic node numbering, constants strictly before vars:
        # Sigma pattern constants in compiled order, then the instance's
        # own constants in sorted-relation row-major walk order, then the
        # chase variables in the same walk order.  Two pairs whose walks
        # produce identical node sequences are semantically isomorphic
        # and share one template.
        const_ids: dict[Any, int] = {}
        const_values: list[Any] = []

        def intern_const(value: Any) -> int:
            node = const_ids.get(value)
            if node is None:
                if value != value:
                    # nan: a dict key matches itself, a chase compare never does.
                    raise TypeError(f"constant {value!r} is not equal to itself")
                node = len(const_values)
                const_ids[value] = node
                const_values.append(value)
            return node

        try:
            for cfd in self._sigma:
                if cfd.is_equality:
                    continue
                for _, entry in cfd.lhs:
                    if is_const(entry):
                        intern_const(entry.value)
                if is_const(cfd.rhs_entry):
                    intern_const(cfd.rhs_entry.value)

            resolved: dict[str, list[dict[str, Any]]] = {}
            for rel in sorted(instance.relations):
                resolved[rel] = [
                    {attr: instance.resolve(row[attr]) for attr in sorted(row)}
                    for row in instance.relations[rel]
                ]
            rc1 = {a: instance.resolve(c) for a, c in sorted(cells1.items())}
            rc2 = {a: instance.resolve(c) for a, c in sorted(cells2.items())}
            for rows in resolved.values():
                for row in rows:
                    for value in row.values():
                        if not isinstance(value, SymVar):
                            intern_const(value)
            for cellmap in (rc1, rc2):
                for value in cellmap.values():
                    if not isinstance(value, SymVar):
                        intern_const(value)

            offset = len(const_values)
            var_ids: dict[SymVar, int] = {}

            def node_of(value: Any) -> int:
                if isinstance(value, SymVar):
                    node = var_ids.get(value)
                    if node is None:
                        node = offset + len(var_ids)
                        var_ids[value] = node
                    return node
                return const_ids[value]

            sig_parts: list[Any] = [tuple(const_values)]
            packed_rows: dict[str, list[dict[str, int]]] = {}
            for rel, rows in resolved.items():
                rows_out = []
                for row in rows:
                    packed = {attr: node_of(value) for attr, value in row.items()}
                    rows_out.append(packed)
                    sig_parts.append((rel, tuple(packed.items())))
                packed_rows[rel] = rows_out
            c1 = {attr: node_of(value) for attr, value in rc1.items()}
            c2 = {attr: node_of(value) for attr, value in rc2.items()}
        except TypeError:
            # Unhashable constant, or nan — the runner cannot intern this
            # instance; the whole query falls back to the baseline.
            self.usable = False
            self._packs[(i, j)] = None
            return None

        signature = (
            tuple(sig_parts),
            tuple(sorted(c1.items())),
            tuple(sorted(c2.items())),
        )
        template = self._templates.get(signature)
        if template is None:
            template = self._build_template(
                const_ids, offset, packed_rows, c1, c2, offset + len(var_ids)
            )
            self._templates[signature] = template
        self._packs[(i, j)] = template
        return template

    def _build_template(
        self, const_ids, const_boundary, packed_rows, c1, c2, node_count
    ) -> _Template:
        template = _Template()
        template.const_ids = dict(const_ids)
        template.const_boundary = const_boundary
        template.node_count = node_count
        template.cells1 = c1
        template.cells2 = c2
        template.rows = packed_rows
        template.outcomes = LRUCache(self._capacity, on_evict=self._evicted)

        for cfd in self._sigma:
            rows = packed_rows.get(cfd.relation, [])
            if cfd.is_equality:
                a = cfd.lhs[0][0]
                b = cfd.rhs[0][0]
                template.equalities.extend((row[a], row[b]) for row in rows)
                continue
            checks_proto = [
                (name, template.const_ids[entry.value])
                for name, entry in cfd.lhs
                if not is_wildcard(entry)
            ]
            rhs_attr = cfd.rhs_attr
            rhs_entry = cfd.rhs_entry
            if is_const(rhs_entry):
                target = template.const_ids[rhs_entry.value]
                for row in rows:
                    checks = tuple((row[name], cn) for name, cn in checks_proto)
                    template.const_rules.append((checks, row[rhs_attr], target))
            elif len(rows) > 1:
                # A single matching row forms a singleton group — no
                # equating can happen, so one-row programs are no-ops.
                lhs_names = [name for name, _ in cfd.lhs]
                template.pair_rules.append(
                    [
                        (
                            tuple((row[name], cn) for name, cn in checks_proto),
                            tuple(row[name] for name in lhs_names),
                            row[rhs_attr],
                        )
                        for row in rows
                    ]
                )
        return template

    # ------------------------------------------------------------------
    # The packed chase.
    # ------------------------------------------------------------------

    @staticmethod
    def _fixpoint(template: _Template, parent: list[int], cnode: list[int]) -> bool:
        """Chase to fixpoint; ``False`` means undefined (conflict).

        The find/union steps are inlined (no helper calls) — this loop is
        the entire hot path of a cold sweep and CPython call overhead was
        the dominant cost of the non-inlined version.
        """
        const_rules = template.const_rules
        pair_rules = template.pair_rules
        changed = True
        while changed:
            changed = False
            for checks, rhs_cell, target in const_rules:
                forced = True
                for cell, want in checks:
                    while parent[cell] != cell:
                        parent[cell] = parent[parent[cell]]
                        cell = parent[cell]
                    if cnode[cell] != want:
                        forced = False
                        break
                if not forced:
                    continue
                # union(rhs_cell, target); target is a constant node
                ra = rhs_cell
                while parent[ra] != ra:
                    parent[ra] = parent[parent[ra]]
                    ra = parent[ra]
                rb = target
                while parent[rb] != rb:
                    parent[rb] = parent[parent[rb]]
                    rb = parent[rb]
                if ra == rb:
                    continue
                ca = cnode[ra]
                cb = cnode[rb]
                if ca >= 0 and cb >= 0 and ca != cb:
                    return False
                parent[rb] = ra
                if ca < 0 and cb >= 0:
                    cnode[ra] = cb
                changed = True
            for program in pair_rules:
                if len(program) == 2:
                    # The dominant shape (single-branch views pair two
                    # copies): compare the two rows' group keys directly,
                    # skipping the anchors dict and key-tuple churn.
                    (checks_a, key_a, rhs_a), (checks_b, key_b, rhs_b) = program
                    forced = True
                    for cell, want in checks_a:
                        while parent[cell] != cell:
                            parent[cell] = parent[parent[cell]]
                            cell = parent[cell]
                        if cnode[cell] != want:
                            forced = False
                            break
                    if forced:
                        for cell, want in checks_b:
                            while parent[cell] != cell:
                                parent[cell] = parent[parent[cell]]
                                cell = parent[cell]
                            if cnode[cell] != want:
                                forced = False
                                break
                    if not forced:
                        continue
                    same = True
                    for idx, cell in enumerate(key_a):
                        while parent[cell] != cell:
                            parent[cell] = parent[parent[cell]]
                            cell = parent[cell]
                        other = key_b[idx]
                        while parent[other] != other:
                            parent[other] = parent[parent[other]]
                            other = parent[other]
                        if cell != other:
                            same = False
                            break
                    if not same:
                        continue
                    ra = rhs_a
                    while parent[ra] != ra:
                        parent[ra] = parent[parent[ra]]
                        ra = parent[ra]
                    rb = rhs_b
                    while parent[rb] != rb:
                        parent[rb] = parent[parent[rb]]
                        rb = parent[rb]
                    if ra == rb:
                        continue
                    ca = cnode[ra]
                    cb = cnode[rb]
                    if ca >= 0 and cb >= 0 and ca != cb:
                        return False
                    parent[rb] = ra
                    if ca < 0 and cb >= 0:
                        cnode[ra] = cb
                    changed = True
                    continue
                anchors: dict[tuple[int, ...], int] = {}
                for checks, key_cells, rhs_cell in program:
                    forced = True
                    for cell, want in checks:
                        while parent[cell] != cell:
                            parent[cell] = parent[parent[cell]]
                            cell = parent[cell]
                        if cnode[cell] != want:
                            forced = False
                            break
                    if not forced:
                        continue
                    key_list = []
                    for cell in key_cells:
                        while parent[cell] != cell:
                            parent[cell] = parent[parent[cell]]
                            cell = parent[cell]
                        key_list.append(cell)
                    key = tuple(key_list)
                    anchor = anchors.get(key)
                    if anchor is None:
                        anchors[key] = rhs_cell
                        continue
                    ra = anchor
                    while parent[ra] != ra:
                        parent[ra] = parent[parent[ra]]
                        ra = parent[ra]
                    rb = rhs_cell
                    while parent[rb] != rb:
                        parent[rb] = parent[parent[rb]]
                        rb = parent[rb]
                    if ra == rb:
                        continue
                    ca = cnode[ra]
                    cb = cnode[rb]
                    if ca >= 0 and cb >= 0 and ca != cb:
                        return False
                    parent[rb] = ra
                    if ca < 0 and cb >= 0:
                        cnode[ra] = cb
                    changed = True
        return True

    def _base_state(self, template: _Template):
        state = template.base_state
        if state is not None:
            return state
        parent = list(range(template.node_count))
        cnode = [
            node if node < template.const_boundary else -1
            for node in range(template.node_count)
        ]
        try:
            for a, b in template.equalities:
                _union(parent, cnode, a, b)
        except _Conflict:
            template.base_state = UNDEFINED
            return UNDEFINED
        if not self._fixpoint(template, parent, cnode):
            template.base_state = UNDEFINED
            return UNDEFINED
        template.base_state = (parent, cnode)
        return template.base_state

    def _coupled_state(self, template: _Template, lhs):
        """Chase outcome for one packed premise signature (cached).

        Mirrors the baseline's coupled/chased tier bookkeeping on the
        shared :class:`BranchPairCache` stats so the engine stats and
        perf-smoke assertions read the same signals either way.
        """
        stats = self._stats
        state = template.outcomes.get(lhs, _MISSING)
        if state is not _MISSING:
            stats.coupled_hits += 1
            stats.chased_hits += 1
            return state
        stats.coupled_misses += 1
        stats.chased_misses += 1
        stats.chase_invocations += 1
        base = self._base_state(template)
        if base is UNDEFINED:
            # Unsatisfiable before coupling; the baseline would discover
            # the same conflict inside its coupled chase.
            template.outcomes.put(lhs, UNDEFINED)
            return UNDEFINED
        couplings: list[tuple[int, int]] = []
        for attr, entry in lhs:
            cell1 = template.cells1[attr]
            cell2 = template.cells2[attr]
            if is_const(entry):
                node = template.intern_const(entry.value)
                couplings.append((cell1, node))
                couplings.append((cell2, node))
            else:
                couplings.append((cell1, cell2))
        parent = list(base[0])
        cnode = list(base[1])
        for node in range(len(parent), template.node_count):
            parent.append(node)
            cnode.append(node)  # nodes appended past base are constants
        try:
            for a, b in couplings:
                _union(parent, cnode, a, b)
        except _Conflict:
            template.outcomes.put(lhs, UNDEFINED)
            return UNDEFINED
        if not self._fixpoint(template, parent, cnode):
            template.outcomes.put(lhs, UNDEFINED)
            return UNDEFINED
        state = (parent, cnode)
        template.outcomes.put(lhs, state)
        return state

    # ------------------------------------------------------------------
    # The pair loop.
    # ------------------------------------------------------------------

    def find_violation(self, phi, pairs: Iterable[tuple[int, int]]):
        """First ordered pair on which *phi* is violated, else ``None``.

        A hit is ``((i, j), template, chased (parent, cnode) state)``.
        *phi* must be normal form, non-equality, non-trivial, its
        constants equal to themselves; *pairs* must iterate in the
        baseline loop's order so the flagged pair — and hence the
        reconstructed witness — is identical.  A ``None`` with
        :attr:`usable` now ``False`` is *not* an answer: rerun the query
        on the baseline.
        """
        rhs_attr = phi.rhs_attr
        rhs_entry = phi.rhs_entry
        rhs_const = is_const(rhs_entry)
        for i, j in pairs:
            template = self._pack(i, j)
            if template is None:
                if not self.usable:
                    return None
                continue  # unsatisfiable branch pair: nothing to violate
            state = self._coupled_state(template, phi.lhs)
            if state is UNDEFINED:
                continue
            parent, cnode = state
            r1 = _find(parent, template.cells1[rhs_attr])
            r2 = _find(parent, template.cells2[rhs_attr])
            violated = r1 != r2
            if not violated and rhs_const:
                want = template.const_ids.get(rhs_entry.value, -2)
                violated = cnode[r1] != want
            if violated:
                return (i, j), template, state
        return None

    # ------------------------------------------------------------------
    # The certificate.
    # ------------------------------------------------------------------

    def _sigma_checks(self) -> dict[str, tuple[list, list]]:
        """Sigma by relation, read off the CFD objects once: equality
        forms as ``(a, b)``, the rest as ``(match, want, key, rhs_attr,
        target)`` — getters of the LHS constant items and of the LHS,
        the constants matched, the RHS constant (or :data:`_MISSING`)."""
        checks = self._checks
        if checks is None:
            checks = {}  # published only once complete: checks run on threads
            for cfd in self._sigma:
                equalities, rules = checks.setdefault(cfd.relation, ([], []))
                if cfd.is_equality:
                    equalities.append((cfd.lhs[0][0], cfd.rhs[0][0]))
                    continue
                consts = [(attr, e.value) for attr, e in cfd.lhs if is_const(e)]
                rules.append((
                    itemgetter(*[attr for attr, _ in consts]) if consts else None,
                    consts[0][1] if len(consts) == 1 else tuple(v for _, v in consts),
                    itemgetter(*cfd.lhs_attrs) if cfd.lhs else (lambda t: ()),
                    cfd.rhs_attr,
                    cfd.rhs_entry.value if is_const(cfd.rhs_entry) else _MISSING,
                ))
            self._checks = checks
        return checks

    def certify(self, phi, hit) -> bool:
        """Whether *hit*'s chased state alone proves ``Sigma |/=_V phi``.

        Instantiated — a class holding a constant carries it, any other
        class a fresh value equal to nothing else — the state is a source
        instance D.  ``True`` iff D |= Sigma by Definition 2.1 (read off
        the CFD objects, never the compiled rules), both summary tuples
        pass their branch's selection and ``Rc`` constants, and they
        agree on *phi*'s LHS and violate its RHS.  The state is only
        read: no path compression into the cached arrays.
        """
        (i, j), template, (parent, cnode) = hit
        constants = {node: value for value, node in template.const_ids.items()}
        fresh: dict[int, object] = {}

        def instantiate(cells: dict[str, int]) -> dict[str, Any]:
            out = {}
            for attr, node in cells.items():
                while parent[node] != node:
                    node = parent[node]
                c = cnode[node]
                out[attr] = constants[c] if c >= 0 else fresh.setdefault(node, object())
            return out

        for relation, rows in template.rows.items():
            equalities, rules = self._sigma_checks().get(relation, ((), ()))
            tuples = [instantiate(row) for row in rows]
            if any(t[a] != t[b] for a, b in equalities for t in tuples):
                return False
            for match, want, key, rhs_attr, target in rules:
                groups: dict[Any, Any] = {}
                for t in tuples:
                    if match is None or match(t) == want:
                        rhs = t[rhs_attr]
                        if (target is not _MISSING and rhs != target) or (
                            groups.setdefault(key(t), rhs) != rhs
                        ):
                            return False
        t1, t2 = instantiate(template.cells1), instantiate(template.cells2)
        branches = self._cache().branches
        for branch, t in ((branches[i], t1), (branches[j], t2)):
            if any(
                t[sel.left] != t[sel.right]
                if isinstance(sel, AttrEq)
                else t[sel.attr] != sel.value
                for sel in branch.selection
            ) or any(t[attr] != value for attr, value in branch.constants.items()):
                return False
        for attr, entry in phi.lhs:
            if t1[attr] != t2[attr] or (is_const(entry) and t1[attr] != entry.value):
                return False
        rhs, entry = phi.rhs_attr, phi.rhs_entry
        return t1[rhs] != t2[rhs] or (is_const(entry) and t1[rhs] != entry.value)
