"""Shared builders for the pipelined hot-path suite.

Everything here wires the full concurrent stack: a WAL-backed
deployment, a :class:`PromiseServer` with parallel keyed dispatch whose
requests each end in one WAL barrier, and message builders matching the
shop idiom the rest of the test tree uses.
"""

from __future__ import annotations

from repro.core.parser import P
from repro.core.promise import PromiseRequest
from repro.net import PromiseServer
from repro.net.server import NET_REPLY_JOURNAL_TABLE
from repro.protocol.messages import Message
from repro.recovery import ReplyJournal
from repro.services.deployment import Deployment
from repro.services.merchant import MerchantService

PRODUCTS = 8
STOCK = 100


def pools(products: int = PRODUCTS) -> list[str]:
    return [f"product-{n}" for n in range(products)]


def build_shop(
    tmp_path,
    products: int = PRODUCTS,
    stock: int = STOCK,
) -> Deployment:
    shop = Deployment(name="shop", wal_path=str(tmp_path / "shop.wal"))
    shop.add_service(MerchantService())
    shop.use_pool_strategy(*pools(products))
    with shop.seed() as txn:
        for pool in pools(products):
            shop.resources.create_pool(txn, pool, stock)
    return shop


def build_server(shop: Deployment, workers: int = 4, **kwargs) -> PromiseServer:
    journal = ReplyJournal(shop.store, table=NET_REPLY_JOURNAL_TABLE)
    server = PromiseServer(workers=workers, reply_journal=journal, **kwargs)
    server.attach_store(shop.store)
    server.register(
        "shop", shop.endpoint.handle, keys=shop.endpoint.dispatch_keys
    )
    return server


def grant_message(
    message_id: str,
    request_id: str,
    product: str,
    amount: int = 1,
    client: str = "pipeline-test",
) -> Message:
    return Message(
        message_id=message_id,
        sender=client,
        recipient="shop",
        promise_requests=(
            PromiseRequest(
                request_id,
                (P(f"quantity('{product}') >= {amount}"),),
                60,
                client_id=client,
            ),
        ),
    )
