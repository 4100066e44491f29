"""The gateway's layer invariant: a composite grant means all legs or
compensation.

Every case runs one cross-shard message through a
:class:`~repro.cluster.ClusterGateway` over in-process shards while one
shard the message involves suffers a fault — its request dropped, its
reply dropped, or the shard dead until :meth:`flush_pending` — and the
message is one request, two requests (the second avoiding the faulty
shard), a swap releasing an older composite, or a swap releasing an
older plain promise held on the faulty shard.  After the flush:

* a rejected request leaves no live sub-promise on any shard;
* an accepted composite has exactly one live sub-promise on each shard
  it spans;
* once everything is released, every pool is back at stock and every
  shard's :class:`~repro.tools.doctor.Doctor` finds nothing;
* a rejected swap's old promise still holds on every shard (§6: "if
  these new promises cannot be granted, the existing promises must
  continue to hold").  The cases the known per-shard swap gap breaks
  are strict xfails that fail on this check alone.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterGateway
from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.protocol.client import PromiseClient
from repro.protocol.messages import Message
from repro.protocol.retry import RetryPolicy
from repro.services.deployment import Deployment
from repro.tools.doctor import Doctor

from .conftest import STOCK, ToggleTransport, build_shards

pytestmark = pytest.mark.cluster

#: (fleet size, the involved shard the fault hits)
VICTIMS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
FAULTS = ("request-drop", "reply-drop", "dead-until-flush")
SHAPES = ("one-request", "two-requests", "swap", "plain-swap")


class OldPromiseLost(AssertionError):
    """A rejected swap did not leave its old promise holding."""


def known_swap_gap(shape: str, fault: str) -> bool:
    """The cases ROADMAP item 2's swap gap still breaks.

    A swap's ``releases`` ride inside the sub-requests, so a shard that
    executed its leg released its old member atomically with it although
    another leg failed.  A composite ``swap`` always has such a shard; a
    ``plain-swap`` does when its home executed and only the reply was
    dropped.
    """
    return shape == "swap" or (shape == "plain-swap" and fault == "reply-drop")


CASES = [
    pytest.param(
        shards,
        victim,
        fault,
        shape,
        id=f"{shards}-shards-victim-{victim}-{fault}-{shape}",
        marks=pytest.mark.xfail(
            strict=True,
            raises=OldPromiseLost,
            reason="ROADMAP item 2: swap releases ride inside sub-requests",
        )
        if known_swap_gap(shape, fault)
        else (),
    )
    for shards, victim in VICTIMS
    for fault in FAULTS
    for shape in SHAPES
]


def live_ids(deployments: list[Deployment]) -> list[set[str]]:
    return [
        {promise.promise_id for promise in d.manager.active_promises()}
        for d in deployments
    ]


def request(request_id: str, products: list[str], releases=()):
    return PromiseRequest(
        request_id=request_id,
        client_id="alice",
        predicates=tuple(P(f"quantity('{p}') >= 2") for p in products),
        duration=60,
        releases=tuple(releases),
    )


@pytest.mark.parametrize("shards,victim,fault,shape", CASES)
def test_a_composite_is_all_legs_or_compensated(shards, victim, fault, shape):
    ring, deployments, pools = build_shards(shards)
    toggles = [ToggleTransport(d.transport) for d in deployments]
    gateway = ClusterGateway(toggles, ring=ring)
    client = PromiseClient("alice", gateway, retry=RetryPolicy.none())
    everywhere = [owned[0] for owned in pools]

    old_id = None
    if shape in ("swap", "plain-swap"):
        # The old promise: a composite over every shard, or a plain
        # promise on the faulty shard alone.
        held = everywhere if shape == "swap" else [everywhere[victim]]
        old = client.request_promise(
            "shop", [P(f"quantity('{p}') >= 2") for p in held], 60
        )
        assert old.accepted
        old_id = old.promise_id
    before = live_ids(deployments)

    requests = [request("alice:r-a", everywhere, [old_id] if old_id else ())]
    if shape == "two-requests":
        others = [p for p in everywhere if p != everywhere[victim]]
        requests.append(request("alice:r-b", others))
    inner = deployments[victim].transport
    next_delivery = inner.metrics.value("transport.sent") + 1
    if fault == "request-drop":
        inner.plan_request_drop(next_delivery)
    elif fault == "reply-drop":
        inner.plan_reply_drop(next_delivery)
    else:
        toggles[victim].dead = True

    reply = gateway.send(
        Message(
            message_id="alice:m-1",
            sender="alice",
            recipient="shop",
            promise_requests=tuple(requests),
        )
    )
    toggles[victim].dead = False
    gateway.flush_pending()
    assert gateway.pending_compensations == 0

    responses = {r.correlation: r for r in reply.promise_responses}
    assert not responses["alice:r-a"].accepted
    after = live_ids(deployments)
    new = [now - then for now, then in zip(after, before)]
    if shape == "two-requests":
        # The second request never touched the faulty shard: it stands,
        # one sub-promise on each shard it spans and nowhere else, and
        # compensating the first released none of it.
        accepted = responses["alice:r-b"]
        assert accepted.accepted
        assert [len(ids) for ids in new] == [
            0 if shard == victim else 1 for shard in range(shards)
        ]
        client.release("shop", accepted.promise_id)
    else:
        assert new == [set()] * shards
    kept = [then & now for then, now in zip(before, after)]
    if old_id is not None:
        client.release("shop", old_id)

    assert live_ids(deployments) == [set()] * shards
    for deployment, owned in zip(deployments, pools):
        with deployment.store.begin() as txn:
            for pool_id in owned:
                pool = deployment.resources.pool(txn, pool_id)
                assert (pool.available, pool.allocated) == (STOCK, 0)
        assert Doctor(deployment.manager).check() == []
        deployment.close()
    if kept != before:
        raise OldPromiseLost(
            f"rejected swap kept {kept} of its old promise {before}"
        )
