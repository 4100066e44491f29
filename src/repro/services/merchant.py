"""The merchant ordering service (paper, §1, §2, §7 and Figure 1).

The running example throughout the paper: an order-handling process checks
stock, obtains a promise that the goods "will not be sold to anyone else
for the duration of the order handling process", organises payment and
shipping, and finally purchases the stock atomically with releasing the
promise.  Without promises, "payment arrives for an accepted order when
there is insufficient stock on hand" is a normal-path case the programmer
must code for (§1) — the benchmarks measure exactly that difference.

Stock lives in anonymous pools (§3.1), one per product.  Orders are
business records in the ``orders`` table.
"""

from __future__ import annotations

import itertools

from ..core.manager import ActionContext, ActionResult
from ..resources.manager import InsufficientResources
from ..storage.store import Store
from .base import ApplicationService

ORDERS_TABLE = "merchant_orders"


class MerchantService(ApplicationService):
    """Order handling over anonymous product stock."""

    name = "merchant"

    def __init__(self) -> None:
        self._order_ids = itertools.count(1)

    def setup(self, store: Store) -> None:
        """Create the orders table."""
        store.create_table(ORDERS_TABLE)

    # ----------------------------------------------------------- operations

    def op_place_order(
        self,
        ctx: ActionContext,
        customer: str,
        product: str,
        quantity: int,
    ) -> ActionResult:
        """Open an order record (no stock is touched yet).

        In the Figure-1 flow the client calls this after its stock promise
        was granted; the promise — not this operation — is what guarantees
        the goods stay available while payment and shipping are arranged.
        """
        order_id = f"ord-{next(self._order_ids)}"
        ctx.txn.insert(
            ORDERS_TABLE,
            order_id,
            {
                "order_id": order_id,
                "customer": customer,
                "product": product,
                "quantity": int(quantity),
                "status": "open",
                "paid": False,
            },
        )
        return ActionResult.ok(order_id)

    def op_pay(self, ctx: ActionContext, order_id: str) -> ActionResult:
        """Record payment for an open order."""
        order = ctx.txn.get_or_none(ORDERS_TABLE, order_id)
        if order is None:
            return ActionResult.failed(f"unknown order {order_id!r}")
        if order["status"] != "open":  # type: ignore[index]
            return ActionResult.failed(
                f"order {order_id!r} is {order['status']!r}"  # type: ignore[index]
            )
        updated = {**order, "paid": True}  # type: ignore[dict-item]
        ctx.txn.put(ORDERS_TABLE, order_id, updated)
        return ActionResult.ok(order_id)

    def op_complete_order(self, ctx: ActionContext, order_id: str) -> ActionResult:
        """Close a paid order.

        Clients send this with the stock promise in the environment,
        release-on-success — the promised units are consumed atomically
        with the completion (Figure 1's final step).
        """
        order = ctx.txn.get_or_none(ORDERS_TABLE, order_id)
        if order is None:
            return ActionResult.failed(f"unknown order {order_id!r}")
        if not order.get("paid"):  # type: ignore[union-attr]
            return ActionResult.failed(f"order {order_id!r} is not paid")
        if order["status"] != "open":  # type: ignore[index]
            return ActionResult.failed(
                f"order {order_id!r} is {order['status']!r}"  # type: ignore[index]
            )
        updated = {**order, "status": "completed"}  # type: ignore[dict-item]
        ctx.txn.put(ORDERS_TABLE, order_id, updated)
        return ActionResult.ok(order_id)

    def op_cancel_order(self, ctx: ActionContext, order_id: str) -> ActionResult:
        """Abandon an order (the client releases its promise separately)."""
        order = ctx.txn.get_or_none(ORDERS_TABLE, order_id)
        if order is None:
            return ActionResult.failed(f"unknown order {order_id!r}")
        if order["status"] != "open":  # type: ignore[index]
            return ActionResult.failed(
                f"order {order_id!r} is {order['status']!r}"  # type: ignore[index]
            )
        updated = {**order, "status": "cancelled"}  # type: ignore[dict-item]
        ctx.txn.put(ORDERS_TABLE, order_id, updated)
        return ActionResult.ok(order_id)

    def op_sell(
        self, ctx: ActionContext, product: str, quantity: int
    ) -> ActionResult:
        """Sell stock directly, with no promise protection.

        This is the unprotected check-then-act path — what concurrent
        order processes (and the optimistic baseline) do.  Under promise
        protection the post-action check will roll this back whenever it
        would violate someone's granted promise.
        """
        try:
            ctx.resources.remove_stock(ctx.txn, product, int(quantity))
        except InsufficientResources as exc:
            return ActionResult.failed(str(exc))
        return ActionResult.ok(quantity)

    def op_restock(
        self, ctx: ActionContext, product: str, quantity: int
    ) -> ActionResult:
        """Goods received: add stock to a product pool."""
        ctx.resources.add_stock(ctx.txn, product, int(quantity))
        return ActionResult.ok(quantity)

    def op_stock_level(self, ctx: ActionContext, product: str) -> ActionResult:
        """Report a pool's available/allocated counters."""
        pool = ctx.resources.pool(ctx.txn, product)
        return ActionResult.ok(
            {"available": pool.available, "allocated": pool.allocated}
        )

    def op_order_status(self, ctx: ActionContext, order_id: str) -> ActionResult:
        """Read one order record."""
        order = ctx.txn.get_or_none(ORDERS_TABLE, order_id)
        if order is None:
            return ActionResult.failed(f"unknown order {order_id!r}")
        return ActionResult.ok(order)
