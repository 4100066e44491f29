"""Promise checking: mutual satisfiability of a set of promises.

"The most critical part of the promise manager is the code that guarantees
the validity of non-expired promises by ensuring that sufficient resources
are available to satisfy every active predicate." (paper, §8)

The engine answers one question: *can every demand in this set be honoured
simultaneously from disjoint resources, given the current resource state?*
Section 9 stresses the disjointness: two promises ``balance>100`` and
``balance>50`` jointly require 150 — unlike integrity constraints, demands
add up.

Per the paper's per-view algorithms (§8):

* anonymous pools — "sums the quantities of the specified resource required
  by all unexpired promises" and compares with availability;
* named instances — "no duplicate promises for the resource" and the
  instance is not taken;
* property views — "bipartite graph matching" between demand slots and
  untaken instances (§5), via Hopcroft–Karp.

All three interact on instance collections (a named promise for seat 24G
must be excluded from the pool backing an 'any economy seat' promise —
§3.2), so instance-level demands are solved as one matching problem.

``Or`` predicates are handled by trying DNF branch combinations, bounded by
:data:`MAX_COMBINATIONS` per independent group of demands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import PredicateUnsupported
from .matching import is_perfect_for_left, unmatched_lefts
from .predicates import (
    AtomicPredicate,
    InstanceAvailable,
    Predicate,
    PropertyMatch,
    QuantityAtLeast,
    ResourceStateView,
)

MAX_COMBINATIONS = 256
"""Upper bound on Or-branch combinations tried across one independent
group of demands (see :func:`check_satisfiable`)."""


@dataclass(frozen=True)
class Demand:
    """One participant in a satisfiability check.

    ``owner_id`` is the promise id (or, for a candidate not yet granted,
    its request id); diagnostics point back at it.
    """

    owner_id: str
    predicates: tuple[Predicate, ...]

    def branch_choices(self) -> list[list[AtomicPredicate]]:
        """All DNF branch combinations of this demand's predicates.

        Each element is one way to satisfy the whole demand (a conjunction
        of atoms).
        """
        per_predicate = [predicate.dnf() for predicate in self.predicates]
        combos: list[list[AtomicPredicate]] = []
        for combo in itertools.product(*per_predicate):
            merged: list[AtomicPredicate] = []
            for branch in combo:
                merged.extend(branch)
            combos.append(merged)
            if len(combos) > MAX_COMBINATIONS:
                raise PredicateUnsupported(
                    f"demand {self.owner_id} expands to more than "
                    f"{MAX_COMBINATIONS} branch combinations"
                )
        return combos


@dataclass(frozen=True)
class Slot:
    """One unit of instance demand: ``owner_id`` needs one instance.

    ``index`` distinguishes the k slots of a count-k property demand;
    ``atom_index`` distinguishes atoms within the owner's conjunction.
    """

    owner_id: str
    atom_index: int
    index: int


@dataclass
class CheckResult:
    """Outcome of a satisfiability check."""

    ok: bool
    reason: str = ""
    failed_owners: tuple[str, ...] = ()
    assignment: dict[Slot, str] = field(default_factory=dict)
    pool_usage: dict[str, int] = field(default_factory=dict)
    chosen_branches: dict[str, int] = field(default_factory=dict)

    @classmethod
    def failure(
        cls, reason: str, failed_owners: Iterable[str] = ()
    ) -> "CheckResult":
        """Build a failed result."""
        return cls(ok=False, reason=reason, failed_owners=tuple(failed_owners))

    def instances_for(self, owner_id: str) -> list[str]:
        """Instances the satisfying assignment gave to ``owner_id``."""
        return sorted(
            instance_id
            for slot, instance_id in self.assignment.items()
            if slot.owner_id == owner_id
        )


def check_satisfiable(
    demands: Sequence[Demand],
    state: ResourceStateView,
    tagged_instances: Mapping[str, str] | None = None,
    pool_offsets: Mapping[str, int] | None = None,
) -> CheckResult:
    """Can all ``demands`` be honoured simultaneously from ``state``?

    ``tagged_instances`` maps instance ids to the owner id they are
    already promised to (allocated-tags / tentative strategies); such an
    instance may only back its owner's slots.  ``pool_offsets`` adds
    capacity per pool that is known to be held outside ``available`` (the
    escrowed units of pool-strategy promises included in the check).

    Demands that share no resource cannot constrain each other, so the
    set is split into independent groups (:func:`_independent_groups`)
    and each is solved on its own: :data:`MAX_COMBINATIONS` bounds a
    group's Or-branches, not the whole set's, and the verdict on a group
    does not depend on which other groups were handed in.  The first
    failing group's diagnostics are returned.
    """
    tagged = dict(tagged_instances or {})
    offsets = dict(pool_offsets or {})
    merged = CheckResult(ok=True)
    for group in _independent_groups(demands, state):
        result = _check_group(group, state, tagged, offsets)
        if not result.ok:
            return result
        merged.assignment.update(result.assignment)
        merged.pool_usage.update(result.pool_usage)
        merged.chosen_branches.update(result.chosen_branches)
    return merged


def _independent_groups(
    demands: Sequence[Demand], state: ResourceStateView
) -> list[list[Demand]]:
    """Partition ``demands`` into groups that share no resource.

    Two demands interact only through a pool both count on or a
    collection both draw instances from (a named instance counts as its
    collection), directly or through a chain of other demands.  Groups
    come out in order of their first demand, each in the given order.
    """
    groups: list[tuple[set[str], list[int]]] = []  # (resources, demand indexes)
    for index, demand in enumerate(demands):
        resources = set()
        for predicate in demand.predicates:
            for resource_id in predicate.resources():
                instance = state.instance(resource_id)
                resources.add(instance.collection_id if instance else resource_id)
        members = [index]
        for group in [group for group in groups if group[0] & resources]:
            groups.remove(group)
            resources |= group[0]
            members += group[1]
        groups.append((resources, sorted(members)))
    groups.sort(key=lambda group: group[1][0])
    return [[demands[index] for index in members] for __, members in groups]


def _check_group(
    demands: Sequence[Demand],
    state: ResourceStateView,
    tagged: Mapping[str, str],
    offsets: Mapping[str, int],
) -> CheckResult:
    """Solve one independent group.

    Tries Or-branch combinations in order and returns the first fully
    satisfiable one; when none fits, the result's diagnostics describe the
    *last* combination's failure.
    """
    per_demand_branches: list[list[list[AtomicPredicate]]] = [
        demand.branch_choices() for demand in demands
    ]
    total = 1
    for branches in per_demand_branches:
        total *= len(branches)
        if total > MAX_COMBINATIONS:
            raise PredicateUnsupported(
                f"demand set expands to more than {MAX_COMBINATIONS} "
                f"branch combinations"
            )

    last_failure = CheckResult.failure("no demands to check")
    for combo_indices in itertools.product(
        *[range(len(branches)) for branches in per_demand_branches]
    ):
        branch_atoms = [
            per_demand_branches[i][combo_indices[i]]
            for i in range(len(demands))
        ]
        result = _check_one_combination(demands, branch_atoms, state, tagged, offsets)
        if result.ok:
            result.chosen_branches = {
                demands[i].owner_id: combo_indices[i]
                for i in range(len(demands))
            }
            return result
        last_failure = result
    return last_failure


def _check_one_combination(
    demands: Sequence[Demand],
    branch_atoms: Sequence[Sequence[AtomicPredicate]],
    state: ResourceStateView,
    tagged: Mapping[str, str],
    offsets: Mapping[str, int],
) -> CheckResult:
    """Check a single conjunction-per-demand combination."""
    # ---- anonymous pools: per-pool demand sums -------------------------
    pool_usage: dict[str, int] = {}
    pool_owners: dict[str, list[str]] = {}
    for demand, atoms in zip(demands, branch_atoms):
        for atom in atoms:
            if isinstance(atom, QuantityAtLeast):
                pool_usage[atom.pool_id] = (
                    pool_usage.get(atom.pool_id, 0) + atom.amount
                )
                pool_owners.setdefault(atom.pool_id, []).append(demand.owner_id)
    for pool_id, needed in pool_usage.items():
        capacity = state.pool_available(pool_id) + offsets.get(pool_id, 0)
        if needed > capacity:
            return CheckResult.failure(
                f"pool {pool_id!r}: promises demand {needed} units but only "
                f"{capacity} are available",
                failed_owners=pool_owners[pool_id],
            )

    # ---- instances: one matching problem across named + property -------
    adjacency: dict[Slot, list[str]] = {}
    slot_descriptions: dict[Slot, str] = {}
    for demand, atoms in zip(demands, branch_atoms):
        for atom_index, atom in enumerate(atoms):
            if isinstance(atom, InstanceAvailable):
                slot = Slot(demand.owner_id, atom_index, 0)
                instance = state.instance(atom.instance_id)
                candidates: list[str] = []
                if (
                    instance is not None
                    and not instance.is_taken
                    and tagged.get(instance.instance_id, demand.owner_id)
                    == demand.owner_id
                ):
                    candidates = [instance.instance_id]
                adjacency[slot] = candidates
                slot_descriptions[slot] = atom.describe()
            elif isinstance(atom, PropertyMatch):
                candidates = [
                    instance.instance_id
                    for instance in state.instances_in(atom.collection_id)
                    if not instance.is_taken
                    and tagged.get(instance.instance_id, demand.owner_id)
                    == demand.owner_id
                    and atom.matches_instance(instance, state)
                ]
                for unit in range(atom.count):
                    slot = Slot(demand.owner_id, atom_index, unit)
                    adjacency[slot] = candidates
                    slot_descriptions[slot] = atom.describe()

    if adjacency:
        saturated, matching = is_perfect_for_left(adjacency)
        if not saturated:
            missing = unmatched_lefts(adjacency, matching)
            owners = sorted({slot.owner_id for slot in missing})
            details = "; ".join(
                f"{slot.owner_id} needs {slot_descriptions[slot]}"
                for slot in missing[:3]
            )
            return CheckResult.failure(
                f"cannot assign disjoint instances: {details}",
                failed_owners=owners,
            )
        assignment = {slot: str(instance) for slot, instance in matching.items()}
    else:
        assignment = {}

    return CheckResult(
        ok=True,
        assignment=assignment,
        pool_usage=pool_usage,
    )


def demands_of_promises(promises: Iterable) -> list[Demand]:
    """Build demands from promise objects (anything with
    ``promise_id``/``predicates``)."""
    return [
        Demand(owner_id=promise.promise_id, predicates=tuple(promise.predicates))
        for promise in promises
    ]
