"""Figure 1, live: the merchant ordering process over the SOAP protocol.

Runs the exact walkthrough of the paper's Figure 1 — promise request,
grant, order processing under concurrent sales, and the atomic
purchase+release — through the full stack: client stub → XML envelope →
transport → promise endpoint → promise manager → merchant application →
resource manager.  Then runs the rejection branch.

Run:  python examples/merchant_ordering.py
"""

from repro import Environment, P
from repro.services import Deployment, MerchantService


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> None:
    shop = Deployment(name="merchant")
    shop.add_service(MerchantService())
    shop.use_pool_strategy("pink_widgets")
    with shop.seed() as txn:
        shop.resources.create_pool(txn, "pink_widgets", 12)

    order_process = shop.client("order-process")
    rival = shop.client("rival-process")

    banner("Order process: determine we need 5 pink widgets to be in stock")
    response = order_process.request_promise(
        "merchant", [P("quantity('pink_widgets') >= 5")], duration=30
    )
    print(f"promise manager: {'ACCEPTED' if response.accepted else 'REJECTED'} "
          f"as {response.promise_id} for {response.duration} ticks")

    banner("Concurrent order processes sell the same goods meanwhile")
    for amount in (4, 3, 1):
        outcome = rival.call(
            "merchant", "merchant", "sell",
            {"product": "pink_widgets", "quantity": amount},
        )
        print(f"rival sells {amount}: {'ok' if outcome.success else outcome.reason}")

    banner("Order process: continue processing order (payment, shippers)")
    order = order_process.call(
        "merchant", "merchant", "place_order",
        {"customer": "ada", "product": "pink_widgets", "quantity": 5},
    )
    print(f"order opened: {order.value}")
    paid = order_process.call("merchant", "merchant", "pay", {"order_id": order.value})
    print(f"payment recorded: {paid.success}")

    banner("Purchase stock atomically with releasing the promise")
    done = order_process.call(
        "merchant", "merchant", "complete_order", {"order_id": order.value},
        environment=Environment.of(response.promise_id, release=[response.promise_id]),
    )
    print(f"complete_order: {done.success}; released promises: {list(done.released)}")

    stock = order_process.call(
        "merchant", "merchant", "stock_level", {"product": "pink_widgets"}
    )
    print(f"stock after fulfilment: {stock.value}")

    banner("Rejection branch: a second order for 5 more widgets")
    second = order_process.request_promise(
        "merchant", [P("quantity('pink_widgets') >= 5")], duration=30
    )
    print(f"promise manager: REJECTED ({second.reason})")
    print("order process terminates, telling the customer goods are unavailable")

    banner("What actually went over the wire")
    metrics = shop.transport.metrics
    sent = metrics.value("transport.sent")
    wire_bytes = metrics.value("transport.bytes_on_wire")
    print(f"{sent} request messages, {wire_bytes} bytes of XML")
    print("first envelope:")
    print(shop.transport.wire_log[0])


if __name__ == "__main__":
    main()
