// Unit and integration tests for the inter-kernel messaging layer:
// channels (ordering, backpressure, latency stamps), node dispatch,
// blocking vs non-blocking handlers, RPC, and fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rko/msg/fabric.hpp"
#include "rko/sim/actor.hpp"

namespace rko::msg {
namespace {

using namespace rko::time_literals;
using sim::Actor;
using sim::Engine;

struct PingPayload {
    int value = 0;
};
static_assert(std::is_trivially_copyable_v<PingPayload>);

struct Harness {
    Engine engine;
    topo::CostModel costs;
    std::unique_ptr<Fabric> fabric;

    explicit Harness(int nkernels, FabricConfig config = {}) {
        fabric = std::make_unique<Fabric>(engine, costs, nkernels, config);
    }

    void start() { fabric->start_all(); }

    void finish() {
        fabric->request_stop_all();
        engine.run();
        EXPECT_TRUE(fabric->all_stopped());
    }
};

TEST(Message, PayloadRoundTrip) {
    Message m;
    m.set_payload(PingPayload{41});
    EXPECT_EQ(m.payload_as<PingPayload>().value, 41);
    EXPECT_EQ(m.hdr.payload_size, sizeof(PingPayload));
    EXPECT_EQ(m.wire_size(), sizeof(MessageHeader) + sizeof(PingPayload));
}

TEST(MsgTypeNames, AllNamed) {
    for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
        EXPECT_STRNE(msg_type_name(static_cast<MsgType>(i)), "unknown");
    }
}

TEST(Channel, DeliversInOrderWithLatency) {
    Engine engine;
    topo::CostModel costs;
    costs.msg_wire_latency = 10_us;
    int delivered = 0;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    Actor sender(engine, "sender", [&](Actor&) {
        for (int i = 0; i < 3; ++i) {
            channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{i}));
        }
    });
    Actor receiver(engine, "receiver", [&](Actor& self) {
        while (delivered < 3) {
            MessagePtr m = channel.try_pop();
            if (m == nullptr) {
                self.sleep_for(1_us);
                continue;
            }
            EXPECT_EQ(m->payload_as<PingPayload>().value, delivered);
            EXPECT_GE(self.now(), m->ready_at);
            ++delivered;
        }
    });
    sender.start();
    receiver.start();
    engine.run();
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(channel.sent(), 3u);
    // Each message needed the 10 us wire latency before visibility.
    EXPECT_GE(engine.now(), 10_us);
}

TEST(Channel, BackpressureBlocksSender) {
    Engine engine;
    topo::CostModel costs;
    Channel channel(engine, costs, 0, 1, 2, nullptr);
    int sent = 0;
    Actor sender(engine, "sender", [&](Actor&) {
        for (int i = 0; i < 4; ++i) {
            channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{i}));
            ++sent;
        }
    });
    Actor receiver(engine, "receiver", [&](Actor& self) {
        self.sleep_for(100_us);
        while (channel.try_pop() != nullptr) {
        }
        self.sleep_for(100_us);
        while (channel.try_pop() != nullptr) {
        }
    });
    sender.start();
    receiver.start();
    engine.run();
    EXPECT_EQ(sent, 4);
    EXPECT_GT(channel.backpressure_time(), 0);
}

TEST(Channel, TryPopRespectsReadyAt) {
    Engine engine;
    topo::CostModel costs;
    costs.msg_wire_latency = 1_ms;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    bool popped_early = false;
    Actor sender(engine, "s", [&](Actor& self) {
        channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{1}));
        // Immediately after send the message is still in flight.
        popped_early = (channel.try_pop() != nullptr);
        self.sleep_for(2_ms);
        EXPECT_NE(channel.try_pop(), nullptr);
    });
    sender.start();
    engine.run();
    EXPECT_FALSE(popped_early);
}

TEST(Node, NonBlockingHandlerRunsOnDispatcher) {
    Harness h(2);
    int handled = 0;
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            EXPECT_TRUE(node.in_nonblocking_handler());
            EXPECT_EQ(m->payload_as<PingPayload>().value, 7);
            ++handled;
        });
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                               PingPayload{7}));
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(handled, 1);
    h.finish();
}

TEST(Node, RpcRoundTrip) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            const int v = m->payload_as<PingPayload>().value;
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{v * 2}));
        });
    h.start();
    int answer = 0;
    Nanos rtt = 0;
    Actor app(h.engine, "app", [&](Actor& self) {
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{21}));
        rtt = self.now() - t0;
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(answer, 42);
    // RTT must cover two enqueues + two dispatches at minimum.
    EXPECT_GE(rtt, 2 * (h.costs.msg_enqueue + h.costs.msg_dispatch));
    h.finish();
}

TEST(Node, BlockingHandlerMayRpcToThirdKernel) {
    // k0 asks k1 (blocking handler), whose handler asks k2 (non-blocking).
    Harness h(3);
    h.fabric->node(2).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            MessagePtr nested = node.rpc(
                2, make_message(MsgType::kPing, MsgKind::kRequest,
                                PingPayload{m->payload_as<PingPayload>().value * 10}));
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        nested->payload_as<PingPayload>()));
        });
    h.start();
    int answer = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kVmaOp, MsgKind::kRequest, PingPayload{4}));
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answer, 41);
    h.finish();
}

TEST(Node, RpcAllFansOutAndCollectsInOrder) {
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [k](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{static_cast<int>(k) * 100}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{0});
        auto replies = h.fabric->node(0).rpc_all({1, 2, 3}, request);
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{100, 200, 300}));
    h.finish();
}

TEST(Node, ConcurrentRpcsFromManyActors) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    int completed = 0;
    std::vector<std::unique_ptr<Actor>> apps;
    for (int i = 0; i < 16; ++i) {
        apps.push_back(std::make_unique<Actor>(h.engine, "app", [&, i](Actor&) {
            MessagePtr reply = h.fabric->node(0).rpc(
                1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{i}));
            EXPECT_EQ(reply->payload_as<PingPayload>().value, i);
            ++completed;
        }));
        apps.back()->start();
    }
    h.engine.run_until(10_ms);
    EXPECT_EQ(completed, 16);
    h.finish();
}

TEST(Node, DispatchCountersPerType) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.fabric->node(1).register_handler(MsgType::kTaskExit, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        for (int i = 0; i < 3; ++i) {
            h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                                   PingPayload{i}));
        }
        h.fabric->node(0).send(1, make_message(MsgType::kTaskExit, MsgKind::kOneway,
                                               PingPayload{0}));
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(h.fabric->node(1).dispatched(MsgType::kPing), 3u);
    EXPECT_EQ(h.fabric->node(1).dispatched(MsgType::kTaskExit), 1u);
    EXPECT_EQ(h.fabric->node(1).total_dispatched(), 4u);
    EXPECT_EQ(h.fabric->total_messages(), 4u);
    EXPECT_GT(h.fabric->total_bytes(), 0u);
    h.finish();
}

TEST(Fabric, PeersOfExcludesSelf) {
    Engine engine;
    topo::CostModel costs;
    Fabric fabric(engine, costs, 4);
    EXPECT_EQ(fabric.peers_of(2), (std::vector<KernelId>{0, 1, 3}));
    EXPECT_EQ(fabric.nkernels(), 4);
}

TEST(Fabric, WireLatencyRaisesRpcRtt) {
    auto measure = [](Nanos wire) {
        Harness h(2);
        h.costs.msg_wire_latency = wire;
        h.fabric = std::make_unique<Fabric>(h.engine, h.costs, 2);
        h.fabric->node(1).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            m->payload_as<PingPayload>()));
            });
        h.start();
        Nanos rtt = 0;
        Actor app(h.engine, "app", [&](Actor& self) {
            const Nanos t0 = self.now();
            h.fabric->node(0).rpc(1, make_message(MsgType::kPing, MsgKind::kRequest,
                                                  PingPayload{1}));
            rtt = self.now() - t0;
        });
        app.start();
        h.engine.run_until(100_ms);
        h.finish();
        return rtt;
    };
    const Nanos fast = measure(0);
    const Nanos slow = measure(20_us);
    // The doorbell wake overlaps the in-flight window, so the added RTT is
    // two wire latencies minus up to two doorbell latencies.
    topo::CostModel defaults;
    EXPECT_GE(slow, fast + 2 * 20_us - 2 * defaults.msg_doorbell);
    EXPECT_LE(slow, fast + 2 * 20_us);
}


TEST(Node, LeafHandlerMayTakeLocalLocks) {
    // Leaf handlers run on a dedicated pool and may park briefly on local
    // locks whose holders never await — verify one does and completes.
    Harness h(2);
    sim::SpinLock local_lock;
    int handled = 0;
    h.fabric->node(1).register_handler(
        MsgType::kPageInvalidateRange, HandlerClass::kLeaf,
        [&](Node& node, MessagePtr m) {
            local_lock.lock();
            // Intentional: this is exactly the behaviour under test.
            h.engine.current().sleep_for(1_us); // rko-lint: allow(lock-across-await): lock-convoy behaviour is what this test measures
            local_lock.unlock();
            ++handled;
            node.reply(*m, make_message(MsgType::kPageInvalidateRange,
                                        MsgKind::kReply, PingPayload{1}));
        });
    h.start();
    // A local actor on kernel 1 holds the lock while the message arrives.
    Actor holder(h.engine, "holder", [&](Actor& self) {
        local_lock.lock();
        self.sleep_for(20_us); // rko-lint: allow(lock-across-await): holder must pin the lock so the handler above contends
        local_lock.unlock();
    });
    holder.start();
    int done = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).rpc(1, make_message(MsgType::kPageInvalidateRange,
                                              MsgKind::kRequest, PingPayload{0}));
        ++done;
    });
    app.start(1_us);
    h.engine.run_until(10_ms);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(done, 1);
    h.finish();
}

TEST(Node, RpcAllEmptyTargetsReturnsImmediately) {
    Harness h(2);
    h.start();
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{0});
        auto replies = h.fabric->node(0).rpc_all({}, request);
        EXPECT_TRUE(replies.empty());
        returned = true;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    h.finish();
}

TEST(Node, DeliveryLatencyHistogramPopulated) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        for (int i = 0; i < 10; ++i) {
            h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                                   PingPayload{i}));
        }
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(h.fabric->node(1).delivery_latency().count(), 10u);
    h.finish();
}

TEST(Channel, BytesAccountingMatchesWireSize) {
    Engine engine;
    topo::CostModel costs;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    Actor sender(engine, "s", [&](Actor&) {
        channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{1}));
    });
    sender.start();
    engine.run();
    EXPECT_EQ(channel.bytes_sent(), sizeof(MessageHeader) + sizeof(PingPayload));
    (void)channel.try_pop();
}

TEST(Node, BlockingHandlersRunConcurrentlyOnWorkerPool) {
    // Two slow blocking handlers must overlap (pool size >= 2), so total
    // service time is ~one handler duration, not two.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            h.engine.current().sleep_for(100_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    int completed = 0;
    Nanos finished_at = 0;
    std::vector<std::unique_ptr<Actor>> apps;
    for (int i = 0; i < 2; ++i) {
        apps.push_back(std::make_unique<Actor>(h.engine, "app", [&, i](Actor& self) {
            h.fabric->node(0).rpc(1, make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                                  PingPayload{i}));
            ++completed;
            finished_at = self.now();
        }));
        apps.back()->start();
    }
    h.engine.run_until(10_ms);
    EXPECT_EQ(completed, 2);
    EXPECT_LT(finished_at, 180_us); // overlapped, not serialized (200 us+)
    h.finish();
}

TEST(Node, KworkerQueueWaitIsMeasured) {
    // Six slow blocking handlers land together on a node with four
    // kworkers: two of them wait about a handler's time for a free one.
    FabricConfig config;
    config.nworkers_per_node = 4;
    Harness h(2, config);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            h.engine.current().sleep_for(100_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    std::vector<std::unique_ptr<Actor>> apps;
    for (int i = 0; i < 6; ++i) {
        apps.push_back(std::make_unique<Actor>(h.engine, "app", [&, i](Actor&) {
            h.fabric->node(0).rpc(1, make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                                  PingPayload{i}));
        }));
        apps.back()->start();
    }
    h.engine.run_until(10_ms);
    const base::Histogram& wait = h.fabric->node(1).kworker_queue();
    EXPECT_EQ(wait.count(), 6u);
    EXPECT_GE(wait.max(), 90_us);
    EXPECT_EQ(h.fabric->node(0).kworker_queue().count(), 0u); // replies never queue
    h.finish();
}

TEST(Node, DelegateAnswersOnRequesterTicketAndLateReplyIsDropped) {
    // k1 forwards k0's request to k2 with k0's ticket; k2 answers it at
    // once, and k1 answers it too, later. k0 takes the delegate's reply;
    // the second reply on the completed ticket is dropped and counted.
    struct Forwarded {
        KernelId requester;
        std::uint64_t ticket;
    };
    Harness h(3);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            node.send(2, make_message(MsgType::kTaskExit, MsgKind::kOneway,
                                      Forwarded{m->hdr.src, m->hdr.ticket}));
            h.engine.current().sleep_for(50_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply, PingPayload{1}));
        });
    h.fabric->node(2).register_handler(
        MsgType::kTaskExit, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            const auto& fwd = m->payload_as<Forwarded>();
            node.reply_to(fwd.requester, fwd.ticket,
                          make_message(MsgType::kVmaOp, MsgKind::kReply, PingPayload{2}));
        });
    h.start();
    int answer = 0;
    KernelId answered_by = -1;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kVmaOp, MsgKind::kRequest, PingPayload{0}));
        answer = reply->payload_as<PingPayload>().value;
        answered_by = reply->hdr.src;
    });
    app.start();
    h.engine.run_until(5_ms);
    EXPECT_EQ(answer, 2);
    EXPECT_EQ(answered_by, 2);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    EXPECT_EQ(h.fabric->node(0).dead_letters(), 1u); // k1's late reply
    h.finish();
}

TEST(Node, RpcScatterHeterogeneousPayloadsCollectInItemOrder) {
    // Unlike rpc_all (one request copied to every destination), rpc_scatter
    // ships a DIFFERENT message per item; replies land in item order.
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{m->payload_as<PingPayload>().value * 2}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        // Deliberately not in destination order.
        for (const auto& [dst, v] : {std::pair{3, 30}, {1, 10}, {2, 20}}) {
            items.push_back({static_cast<KernelId>(dst),
                             make_message(MsgType::kPing, MsgKind::kRequest,
                                          PingPayload{v})});
        }
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{60, 20, 40}));
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).scatter_posts(), 3u);
    h.finish();
}

TEST(Node, RpcScatterRepeatedDestinationKeepsSlotsDistinct) {
    // Two items to the SAME kernel: the ticket, not the source, must route
    // each reply to its own slot.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        items.push_back({1, make_message(MsgType::kPing, MsgKind::kRequest,
                                         PingPayload{100})});
        items.push_back({1, make_message(MsgType::kPing, MsgKind::kRequest,
                                         PingPayload{200})});
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{101, 201}));
    h.finish();
}

TEST(Node, RpcScatterEmptyReturnsImmediately) {
    Harness h(2);
    h.start();
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        auto replies = h.fabric->node(0).rpc_scatter({});
        EXPECT_TRUE(replies.empty());
        returned = true;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    h.finish();
}

/// A request for `parts` reply parts; part i answers value * 10 + i.
struct PartsPayload {
    int value = 0;
    std::uint32_t parts = 1;
};

/// Inline kPing handler answering every part of a PartsPayload request.
void answer_parts(Node& node, MessagePtr m) {
    const auto req = m->payload_as<PartsPayload>();
    for (std::uint32_t i = 0; i < req.parts; ++i) {
        node.reply_part(*m, i,
                        make_message(MsgType::kPing, MsgKind::kReply,
                                     PingPayload{req.value * 10 + static_cast<int>(i)}));
    }
}

Node::ScatterItem parts_item(KernelId dst, int value, std::uint32_t parts) {
    return {dst,
            make_message(MsgType::kPing, MsgKind::kRequest, PartsPayload{value, parts}),
            parts};
}

std::vector<int> part_values(const std::vector<MessagePtr>& replies) {
    std::vector<int> values;
    for (const auto& r : replies) {
        values.push_back(r == nullptr ? -1 : r->payload_as<PingPayload>().value);
    }
    return values;
}

TEST(Node, RpcScatterMultiPartRepliesFillConsecutiveSlots) {
    // Multi-part items, single-reply items and a repeated destination in one
    // scatter: every part lands in its own slot, items in post order and
    // each item's parts in part order.
    Harness h(3);
    for (KernelId k = 1; k < 3; ++k) {
        h.fabric->node(k).register_handler(MsgType::kPing, HandlerClass::kInline,
                                           answer_parts);
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        items.push_back(parts_item(2, 1, 3));
        items.push_back(parts_item(1, 2, 1));
        items.push_back(parts_item(2, 3, 2));
        items.push_back(parts_item(1, 4, 4));
        RpcStatus status = RpcStatus::kPeerDead;
        answers = part_values(h.fabric->node(0).rpc_scatter(std::move(items), &status));
        EXPECT_EQ(status, RpcStatus::kOk);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{10, 11, 12, 20, 30, 31, 40, 41, 42, 43}));
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).scatter_posts(), 4u);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(Node, RpcAllCountsAsOneScatterBatch) {
    // rpc_all delegates to rpc_scatter: N posts, one park, one batch.
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            m->payload_as<PingPayload>()));
            });
    }
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{5});
        auto replies = h.fabric->node(0).rpc_all({1, 2, 3}, request);
        EXPECT_EQ(replies.size(), 3u);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).scatter_posts(), 3u);
    EXPECT_EQ(h.fabric->node(0).scatter_fanout().count(), 1u);
    h.finish();
}

TEST(NodeElastic, RpcToDeadPeerFailsImmediately) {
    Harness h(2);
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        h.fabric->node(0).set_peer_dead(1);
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}),
            &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(elapsed, 0); // fails without touching the wire
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 1u);
    h.finish();
}

TEST(NodeElastic, FailPendingUnparksInFlightRpc) {
    // The reply never comes (the handler swallows the request); declaring
    // the peer dead mid-wait must synthesize the failure and unpark.
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) { /* no reply */ });
    h.start();
    RpcStatus status = RpcStatus::kOk;
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}),
            &status);
        EXPECT_EQ(reply, nullptr);
        returned = true;
    });
    app.start();
    Actor reaper(h.engine, "reaper",
                 [&](Actor&) { h.fabric->node(0).set_peer_dead(1); });
    reaper.start(200_us);
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(NodeElastic, RpcTimedTimesOutAndDropsLateReply) {
    // The peer is merely slow: the timed rpc gives up, tombstones the
    // ticket, and the straggler reply is dropped instead of asserting.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            h.engine.current().sleep_for(500_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc_timed(
            1, make_message(MsgType::kVmaOp, MsgKind::kRequest, PingPayload{1}),
            100_us, &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(5_ms);
    EXPECT_EQ(status, RpcStatus::kTimeout);
    EXPECT_GE(elapsed, 100_us);
    EXPECT_LT(elapsed, 500_us);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    EXPECT_GE(h.fabric->node(0).dead_letters(), 1u); // the dropped straggler
    h.finish();
}

TEST(NodeElastic, RpcRetryBacksOffInVirtualTimeThenReportsLastFailure) {
    Harness h(2);
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        h.fabric->node(0).set_peer_dead(1);
        const Nanos t0 = self.now();
        MessagePtr reply = rpc_retry(
            h.fabric->node(0), 1,
            [] {
                return make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1});
            },
            3, 10_us, &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(elapsed, 10_us + 20_us); // exponential: sleeps before retries 2, 3
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 3u);
    h.finish();
}

TEST(NodeElastic, RpcRetrySucceedsFirstTryOnLivePeer) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.start();
    RpcStatus status = RpcStatus::kPeerDead;
    int answer = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = rpc_retry(
            h.fabric->node(0), 1,
            [] {
                return make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{41});
            },
            3, 10_us, &status);
        ASSERT_NE(reply, nullptr);
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(status, RpcStatus::kOk);
    EXPECT_EQ(answer, 42);
    h.finish();
}

TEST(NodeElastic, ScatterToDeadPeerLeavesNullSlotOthersComplete) {
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [k](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{static_cast<int>(k)}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).set_peer_dead(2);
        std::vector<Node::ScatterItem> items;
        for (KernelId k = 1; k < 4; ++k) {
            items.push_back({k, make_message(MsgType::kPing, MsgKind::kRequest,
                                             PingPayload{0})});
        }
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        ASSERT_EQ(replies.size(), 3u);
        EXPECT_NE(replies[0], nullptr);
        EXPECT_EQ(replies[1], nullptr); // the dead destination's slot
        EXPECT_NE(replies[2], nullptr);
        for (auto& r : replies) {
            answers.push_back(r == nullptr ? -1 : r->payload_as<PingPayload>().value);
        }
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{1, -1, 3}));
    h.finish();
}

TEST(NodeElastic, MultiPartScatterToDeadPeerNullsEveryPart) {
    Harness h(3);
    for (KernelId k = 1; k < 3; ++k) {
        h.fabric->node(k).register_handler(MsgType::kPing, HandlerClass::kInline,
                                           answer_parts);
    }
    h.start();
    std::vector<int> answers;
    RpcStatus status = RpcStatus::kOk;
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).set_peer_dead(2);
        std::vector<Node::ScatterItem> items;
        items.push_back(parts_item(1, 1, 2));
        items.push_back(parts_item(2, 2, 3));
        items.push_back(parts_item(1, 3, 1));
        answers = part_values(h.fabric->node(0).rpc_scatter(std::move(items), &status));
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{10, 11, -1, -1, -1, 30}));
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 3u); // one per part
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

/// Blocking kVmaOp handler: sends parts 0..`sent`-1 of a PartsPayload
/// request, then stalls for 500 us before the rest.
void answer_parts_slowly(sim::Engine& engine, Node& node, const MessagePtr& m,
                         std::uint32_t sent) {
    const auto req = m->payload_as<PartsPayload>();
    for (std::uint32_t i = 0; i < req.parts; ++i) {
        if (i == sent) engine.current().sleep_for(500_us);
        node.reply_part(*m, i,
                        make_message(MsgType::kVmaOp, MsgKind::kReply,
                                     PingPayload{req.value * 10 + static_cast<int>(i)}));
    }
}

TEST(NodeElastic, PeerDeathMidReplyNullsTheMissingParts) {
    // The destination answers 2 of 5 parts, then dies: the arrived parts
    // stay, the other 3 are nulled and the waiter unparks.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking,
        [&](Node& node, MessagePtr m) { answer_parts_slowly(h.engine, node, m, 2); });
    h.start();
    std::vector<int> answers;
    RpcStatus status = RpcStatus::kOk;
    Nanos returned_at = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        std::vector<Node::ScatterItem> items;
        items.push_back({1,
                         make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                      PartsPayload{7, 5}),
                         5});
        answers = part_values(h.fabric->node(0).rpc_scatter(std::move(items), &status));
        returned_at = self.now();
    });
    app.start();
    Actor killer(h.engine, "killer", [&](Actor&) {
        h.fabric->node(1).set_dead();
        h.fabric->node(0).set_peer_dead(1);
    });
    killer.start(200_us);
    h.engine.run_until(5_ms);
    EXPECT_EQ(answers, (std::vector<int>{70, 71, -1, -1, -1}));
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(returned_at, 200_us);
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 3u);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(NodeElastic, StreamingScatterHandsEachPartOnAsItLands) {
    // The streaming form hands the 2 parts the destination answers at once
    // on long before it dies, each while the rest are still outstanding;
    // the 3 parts the death fails follow as null. Each hand-off sleeps
    // 10 us, and no part landing meanwhile cuts that sleep short.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking,
        [&](Node& node, MessagePtr m) { answer_parts_slowly(h.engine, node, m, 2); });
    h.start();
    struct HandOff {
        std::size_t slot;
        int value;
        Nanos at;
        Nanos slept;
        std::size_t pending;
    };
    std::vector<HandOff> handed;
    RpcStatus status = RpcStatus::kOk;
    Nanos returned_at = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        std::vector<Node::ScatterItem> items;
        items.push_back({1,
                         make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                      PartsPayload{7, 5}),
                         5});
        h.fabric->node(0).rpc_scatter(
            std::move(items),
            [&](std::size_t slot, MessagePtr reply) {
                const Nanos at = self.now();
                const std::size_t pending = h.fabric->node(0).pending_replies();
                self.sleep_for(10_us);
                handed.push_back({slot,
                                  reply == nullptr ? -1 : reply->payload_as<PingPayload>().value,
                                  at, self.now() - at, pending});
            },
            &status);
        returned_at = self.now();
    });
    app.start();
    Actor killer(h.engine, "killer", [&](Actor&) {
        h.fabric->node(1).set_dead();
        h.fabric->node(0).set_peer_dead(1);
    });
    killer.start(200_us);
    h.engine.run_until(5_ms);
    ASSERT_EQ(handed.size(), 5u);
    for (std::size_t i = 0; i < handed.size(); ++i) {
        EXPECT_EQ(handed[i].slot, i);
        EXPECT_EQ(handed[i].value, i < 2 ? 70 + static_cast<int>(i) : -1) << "slot " << i;
        EXPECT_EQ(handed[i].slept, 10_us) << "slot " << i;
    }
    EXPECT_LT(handed[1].at, 200_us);
    EXPECT_EQ(handed[0].pending, 4u);
    EXPECT_EQ(handed[2].at, 200_us);
    EXPECT_EQ(returned_at, 230_us);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(NodeElastic, CallerKilledMidMultiPartWaitThrowsLocalNodeDead) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking,
        [&](Node& node, MessagePtr m) { answer_parts_slowly(h.engine, node, m, 1); });
    h.start();
    bool unwound = false;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        items.push_back({1,
                         make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                      PartsPayload{7, 3}),
                         3});
        try {
            h.fabric->node(0).rpc_scatter(std::move(items));
        } catch (const LocalNodeDead&) {
            unwound = true;
        }
    });
    app.start();
    Actor killer(h.engine, "killer", [&](Actor&) { h.fabric->node(0).set_dead(); });
    killer.start(200_us);
    h.engine.run_until(5_ms);
    EXPECT_TRUE(unwound);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(NodeElastic, SetDeadFailsPendingWithLocalNodeDeadAndBlackHoles) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) { /* no reply */ });
    h.start();
    bool unwound = false;
    Actor app(h.engine, "app", [&](Actor&) {
        try {
            h.fabric->node(0).rpc(
                1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}));
        } catch (const LocalNodeDead&) {
            unwound = true;
        }
    });
    app.start();
    Actor killer(h.engine, "killer", [&](Actor&) { h.fabric->node(0).set_dead(); });
    killer.start(100_us);
    // Traffic AT the dead node is black-holed, not asserted on.
    Actor peer(h.engine, "peer", [&](Actor&) {
        h.fabric->node(1).send(0, make_message(MsgType::kTaskExit, MsgKind::kOneway,
                                               PingPayload{0}));
    });
    peer.start(200_us);
    h.engine.run_until(1_ms);
    EXPECT_TRUE(unwound);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    EXPECT_TRUE(h.fabric->node(0).dead());
    EXPECT_GE(h.fabric->node(0).dead_letters(), 1u);
    h.finish();
}

} // namespace
} // namespace rko::msg
