#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "comm/cluster.hpp"
#include "comm/tags.hpp"
#include "comm/communicator.hpp"
#include "comm/mailbox.hpp"
#include "comm/network_model.hpp"
#include "comm/progress.hpp"
#include "comm/transport.hpp"
#include "obs/trace.hpp"
#include "p2p_handles.hpp"

namespace {

using gtopk::comm::Cluster;
using gtopk::comm::Communicator;
using gtopk::comm::InProcTransport;
using gtopk::comm::kAnySource;
using gtopk::comm::kAsyncTagBase;
using gtopk::comm::kTagTestAux;
using gtopk::comm::kTagTestData;
using gtopk::comm::kTagTestValue;
using gtopk::comm::kAnyTag;
using gtopk::comm::Mailbox;
using gtopk::comm::MailboxClosed;
using gtopk::comm::Message;
using gtopk::comm::NetworkModel;
using gtopk::comm::ProgressSource;
using gtopk::test::recv_bytes;
using gtopk::test::recv_vec;
using gtopk::test::send_bytes;
using gtopk::test::send_vec;

Message make_msg(int source, int tag, std::size_t n = 0) {
    Message m;
    m.source = source;
    m.tag = tag;
    m.payload.resize(n);
    return m;
}

TEST(MailboxTest, MatchesExactSourceAndTag) {
    Mailbox mb;
    mb.push(make_msg(1, kTagTestData));
    mb.push(make_msg(2, kTagTestAux));
    const std::optional<Message> m = mb.try_pop(2, kTagTestAux);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->source, 2);
    EXPECT_EQ(m->tag, kTagTestAux);
    EXPECT_EQ(mb.size(), 1u);
}

TEST(MailboxTest, WildcardSourceMatchesFirstArrival) {
    Mailbox mb;
    mb.push(make_msg(3, kTagTestData));
    const std::optional<Message> m = mb.try_pop(kAnySource, kTagTestData);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->source, 3);
}

TEST(MailboxTest, WildcardTagMatches) {
    Mailbox mb;
    mb.push(make_msg(1, kTagTestValue));
    const std::optional<Message> m = mb.try_pop(1, kAnyTag);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, kTagTestValue);
}

TEST(MailboxTest, PreservesFifoPerSourceTag) {
    Mailbox mb;
    for (int i = 0; i < 5; ++i) {
        mb.push(make_msg(1, kTagTestData, static_cast<std::size_t>(i)));
    }
    for (std::size_t i = 0; i < 5; ++i) {
        const std::optional<Message> m = mb.try_pop(1, kTagTestData);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(m->payload.size(), i);
    }
}

TEST(MailboxTest, TryPopReturnsNulloptWhenNoMatch) {
    Mailbox mb;
    mb.push(make_msg(1, kTagTestData));
    EXPECT_FALSE(mb.try_pop(2, kTagTestData).has_value());
    EXPECT_TRUE(mb.try_pop(1, kTagTestData).has_value());
}

TEST(MailboxTest, CloseThrowsInWaiters) {
    // A consumer polling for a message that never comes sees the close.
    Mailbox mb;
    std::thread consumer([&] {
        EXPECT_THROW(
            for (;;) {
                (void)mb.try_pop(1, kTagTestData);
                std::this_thread::yield();
            },
            MailboxClosed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mb.close();
    consumer.join();
}

TEST(TransportTest, RejectsBadRanks) {
    InProcTransport t(2);
    EXPECT_THROW(t.deliver(2, make_msg(0, 0)), std::out_of_range);
    EXPECT_THROW(t.try_receive(-1, 0, kTagTestData), std::out_of_range);
    EXPECT_THROW(InProcTransport(0), std::invalid_argument);
}

TEST(TransportTest, CountsDeliveries) {
    InProcTransport t(2);
    t.deliver(1, make_msg(0, 0));
    t.deliver(0, make_msg(1, 0));
    EXPECT_EQ(t.delivered_count(), 2u);
}

TEST(CommunicatorTest, SendRecvRoundTrip) {
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<float> v{1.0f, 2.0f, 3.0f};
            send_vec(comm, 1, kTagTestData, v);
        } else {
            const std::vector<float> v = recv_vec<float>(comm, 0, kTagTestData);
            ASSERT_EQ(v.size(), 3u);
            EXPECT_EQ(v[2], 3.0f);
        }
    });
}

TEST(CommunicatorTest, SendToSelfForbidden) {
    Cluster::run(1, NetworkModel::free(), [](Communicator& comm) {
        std::vector<float> v{1.0f};
        EXPECT_THROW(send_vec(comm, 0, 0, v), std::invalid_argument);
    });
}

TEST(CommunicatorTest, VirtualClockFollowsAlphaBetaModel) {
    const NetworkModel net{1e-3, 4e-8};  // alpha=1ms, beta=4e-8 s/elem
    auto result = Cluster::run_timed(2, net, [&](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<float> v(1000, 1.0f);  // 4000 bytes = 1000 elements
            send_vec(comm, 1, kTagTestData, v);
        } else {
            (void)recv_vec<float>(comm, 0, kTagTestData);
        }
    });
    const double expected = 1e-3 + 1000 * 4e-8;
    EXPECT_NEAR(result.final_time_s[0], expected, 1e-12);  // sender pays
    EXPECT_NEAR(result.final_time_s[1], expected, 1e-12);  // receiver waits
}

TEST(CommunicatorTest, ReceiverWaitsForSlowSender) {
    const NetworkModel net{1.0, 0.0};  // one virtual second per message
    auto result = Cluster::run_timed(2, net, [&](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<float> v(10, 0.0f);
            send_vec(comm, 1, kTagTestData, v);
            send_vec(comm, 1, kTagTestAux, v);
        } else {
            (void)recv_bytes(comm, 0, kTagTestData);
            (void)recv_bytes(comm, 0, kTagTestAux);
        }
    });
    // Sender's clock: 2s after two sends; receiver waits for arrival at 2s.
    EXPECT_NEAR(result.final_time_s[0], 2.0, 1e-12);
    EXPECT_NEAR(result.final_time_s[1], 2.0, 1e-12);
}

TEST(CommunicatorTest, StatsAccumulate) {
    auto stats = Cluster::run(2, NetworkModel::one_gbps_ethernet(),
                              [](Communicator& comm) {
                                  std::vector<float> v(100, 0.0f);
                                  if (comm.rank() == 0) {
                                      send_vec(comm, 1, kTagTestData, v);
                                  } else {
                                      (void)recv_bytes(comm, 0, kTagTestData);
                                  }
                              });
    EXPECT_EQ(stats[0].messages_sent, 1u);
    EXPECT_EQ(stats[0].bytes_sent, 400u);
    EXPECT_EQ(stats[1].messages_received, 1u);
    EXPECT_EQ(stats[1].bytes_received, 400u);
    EXPECT_GT(stats[0].comm_time_s, 0.0);
}

TEST(CommunicatorTest, SendValueRoundTrip) {
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        if (comm.rank() == 0) {
            send_vec(comm, 1, kTagTestValue, std::vector<std::int64_t>{123456789LL});
        } else {
            EXPECT_EQ(recv_vec<std::int64_t>(comm, 0, kTagTestValue),
                      std::vector<std::int64_t>{123456789LL});
        }
    });
}

TEST(ClusterTest, PropagatesWorkerException) {
    EXPECT_THROW(
        Cluster::run(2, NetworkModel::free(),
                     [](Communicator& comm) {
                         if (comm.rank() == 0) {
                             throw std::runtime_error("worker failure");
                         }
                         // Rank 1 waits forever in a receive handle; the
                         // abort must wake it.
                         (void)recv_bytes(comm, 0, 1);
                     }),
        std::runtime_error);
}

TEST(ClusterTest, RunsEveryRankExactlyOnce) {
    std::atomic<int> count{0};
    std::atomic<int> rank_mask{0};
    Cluster::run(4, NetworkModel::free(), [&](Communicator& comm) {
        count.fetch_add(1);
        rank_mask.fetch_or(1 << comm.rank());
        EXPECT_EQ(comm.size(), 4);
    });
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(rank_mask.load(), 0b1111);
}

TEST(CommunicatorTest, TracedSpansAgreeWithCommStats) {
    // The tracer's per-message send_async/recv_async spans and metric
    // counters must tell the same story as the CommStats accumulators: same
    // bytes, same message counts, and the clock advance every wait() adds
    // to comm_time_s ends at the rank's latest span.
    const int world = 3;
    gtopk::obs::Tracer tracer(world);
    const auto stats = Cluster::run(
        world, NetworkModel::one_gbps_ethernet(),
        [](Communicator& comm) {
            ASSERT_NE(comm.tracer(), nullptr);
            // Ring: everyone sends a rank-dependent payload to the right.
            const int next = (comm.rank() + 1) % comm.size();
            const int prev = (comm.rank() + comm.size() - 1) % comm.size();
            std::vector<float> v(
                static_cast<std::size_t>(10 * (comm.rank() + 1)), 1.0f);
            send_vec(comm, next, 1, v);
            (void)recv_vec<float>(comm, prev, 1);
        },
        &tracer);

    std::uint64_t stats_sent_bytes = 0, stats_msgs = 0;
    for (const auto& s : stats) {
        stats_sent_bytes += s.bytes_sent;
        stats_msgs += s.messages_sent;
    }

    std::uint64_t span_sent_bytes = 0, span_recv_bytes = 0;
    std::uint64_t send_spans = 0, recv_spans = 0;
    for (int r = 0; r < world; ++r) {
        double last_event_s = 0.0;
        for (const auto& span : tracer.rank_spans(r)) {
            if (std::string(span.name) == "send_async") {
                span_sent_bytes += static_cast<std::uint64_t>(span.attrs.bytes);
                send_spans += 1;
            } else if (std::string(span.name) == "recv_async") {
                span_recv_bytes += static_cast<std::uint64_t>(span.attrs.bytes);
                recv_spans += 1;
            } else {
                continue;
            }
            last_event_s = std::max(last_event_s, span.v_end_s);
        }
        // Per-rank: the clock starts at 0 and only the waits move it, so
        // comm_time_s is exactly the latest send end or arrival.
        EXPECT_EQ(last_event_s, stats[static_cast<std::size_t>(r)].comm_time_s);
    }
    EXPECT_EQ(span_sent_bytes, stats_sent_bytes);
    EXPECT_EQ(span_recv_bytes, stats_sent_bytes);  // every byte arrived
    EXPECT_EQ(send_spans, stats_msgs);
    EXPECT_EQ(recv_spans, stats_msgs);

    // Metrics registry agrees too.
    const auto& metrics = tracer.metrics();
    ASSERT_NE(metrics.find_counter("comm.bytes_sent"), nullptr);
    EXPECT_EQ(metrics.find_counter("comm.bytes_sent")->value(), stats_sent_bytes);
    EXPECT_EQ(metrics.find_counter("comm.bytes_received")->value(), stats_sent_bytes);
    const auto* msg_hist = metrics.find_histogram("comm.message_bytes");
    ASSERT_NE(msg_hist, nullptr);
    EXPECT_EQ(msg_hist->count(), stats_msgs);
    EXPECT_EQ(msg_hist->sum(), stats_sent_bytes);
    const auto* depth_hist = metrics.find_histogram("mailbox.depth");
    ASSERT_NE(depth_hist, nullptr);
    EXPECT_EQ(depth_hist->count(), stats_msgs);  // one sample per delivery
}

TEST(CommunicatorTest, AbsoluteTagHandlesPruneTheNicBusyList) {
    // ps and telemetry run absolute-tag handles, which draw no async tags.
    // Their start() must still drop NIC occupancy that ended before the
    // clock: without the prune every send would stay on the busy list and
    // reserve_nic's first-fit scan would grow with the run.
    Cluster::run(2, NetworkModel::one_gbps_ethernet(), [](Communicator& comm) {
        const std::vector<float> v(8, 1.0f);
        for (int i = 0; i < 64; ++i) {
            if (comm.rank() == 0) {
                send_vec(comm, 1, kTagTestData, v);
            } else {
                (void)recv_bytes(comm, 0, kTagTestData);
            }
            EXPECT_LE(comm.nic_busy_count(), 1u) << "iteration " << i;
        }
        // And they leave the SPMD tag cursor where it started.
        EXPECT_EQ(comm.fresh_async_tags(0), kAsyncTagBase);
    });
}

// pump_progress: the round order every in-flight handle is pumped in.

/// Logs its id on each pump; optionally completes (unregisters) itself on
/// its first one, as a handle whose last op ran does.
class LoggingSource : public ProgressSource {
public:
    LoggingSource(Communicator& comm, std::vector<int>& log, int id, int priority,
                  bool completes = false)
        : comm_(comm), log_(log), id_(id), priority_(priority), completes_(completes) {}

    bool pump_some() override {
        log_.push_back(id_);
        if (completes_) comm_.remove_progress_source(this);
        return id_ == 2;
    }
    int pump_priority() const override { return priority_; }

private:
    Communicator& comm_;
    std::vector<int>& log_;
    int id_;
    int priority_;
    bool completes_;
};

TEST(PumpProgressTest, AscendingPriorityStableAmongTiesAndSurvivesCompletion) {
    Cluster::run(1, NetworkModel::free(), [](Communicator& comm) {
        std::vector<int> log;
        // Registration order 0..5; priorities 2, 0, 2, 1, 0, 2.
        LoggingSource s0(comm, log, 0, 2);
        LoggingSource s1(comm, log, 1, 0, /*completes=*/true);
        LoggingSource s2(comm, log, 2, 2);
        LoggingSource s3(comm, log, 3, 1, /*completes=*/true);
        LoggingSource s4(comm, log, 4, 0);
        LoggingSource s5(comm, log, 5, 2);
        for (LoggingSource* s : {&s0, &s1, &s2, &s3, &s4, &s5}) {
            comm.add_progress_source(s);
        }
        // Sources 1 and 3 complete mid-round: the round still pumps every
        // source registered when it began, each once and in order.
        EXPECT_TRUE(comm.pump_progress());
        EXPECT_EQ(log, (std::vector<int>{1, 4, 3, 0, 2, 5}));
        log.clear();
        EXPECT_TRUE(comm.pump_progress());
        EXPECT_EQ(log, (std::vector<int>{4, 0, 2, 5}));
        // Without the one source that reports progress, a round reports none.
        comm.remove_progress_source(&s2);
        log.clear();
        EXPECT_FALSE(comm.pump_progress());
        EXPECT_EQ(log, (std::vector<int>{4, 0, 5}));
        for (LoggingSource* s : {&s0, &s4, &s5}) comm.remove_progress_source(s);
        EXPECT_FALSE(comm.pump_progress());
    });
}

// fresh_async_tags: the SPMD tag cursor every collective's handle draws
// its block from.

TEST(FreshTagsTest, BlocksAreDisjointAndAscending) {
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        const int a = comm.fresh_async_tags(3);
        const int b = comm.fresh_async_tags(1);
        EXPECT_EQ(a, kAsyncTagBase);
        EXPECT_EQ(b, a + 3);
        EXPECT_THROW(comm.fresh_async_tags(-1), std::invalid_argument);
    });
}

TEST(FreshTagsTest, WrapsSafelyNearIntMaxWhenNothingIsInFlight) {
    // Regression: the counter used to overflow silently into negative tags
    // (UB) after ~2^31 tags. It must now wrap back to the base — sound
    // because no async-band message is pending.
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        comm.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 5);
        const int base = comm.fresh_async_tags(10);
        EXPECT_EQ(base, kAsyncTagBase);
        EXPECT_EQ(comm.fresh_async_tags(1), kAsyncTagBase + 10);
        // The recycled block is immediately usable. Rank 0 waits for the
        // ready token so rank 1 has provably wrapped before the recycled
        // tag hits its mailbox (the wrap would otherwise refuse, seeing a
        // pending async-band message).
        std::vector<float> v{1.0f};
        if (comm.rank() == 0) {
            (void)recv_bytes(comm, 1, kTagTestAux);
            send_vec(comm, 1, base, v);
        } else {
            send_vec(comm, 0, kTagTestAux, v);
            EXPECT_EQ(recv_vec<float>(comm, 0, base).size(), 1u);
        }
    });
}

TEST(FreshTagsTest, WrapRefusedWhileFreshTagMessageIsInFlight) {
    // Recycling tags while an old async-band message is still undelivered
    // could mis-match it against the new block, so the wrap must throw.
    // The stale message carries a tag at or past the end of the block being
    // allocated — tags INSIDE the new block are exempt, because at large P
    // wrapped-ahead peers legitimately have the current collective's
    // messages in flight with exactly those tags.
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        std::vector<float> v{1.0f};
        if (comm.rank() == 0) {
            send_vec(comm, 1, kAsyncTagBase + 50, v);  // stays pending
            send_vec(comm, 1, kTagTestAux, v);         // "sent" signal
        } else {
            (void)recv_bytes(comm, 0, kTagTestAux);  // async-band msg arrived first
            comm.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 5);
            EXPECT_THROW(comm.fresh_async_tags(10), std::logic_error);
            (void)recv_bytes(comm, 0, kAsyncTagBase + 50);  // drain; wrap legal again
            comm.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 5);
            EXPECT_EQ(comm.fresh_async_tags(10), kAsyncTagBase);
        }
    });
}

TEST(FreshTagsTest, WrapToleratesInFlightTrafficInsideTheNewBlock) {
    // The large-P fix: a fast peer that already wrapped may have sent this
    // collective's messages with tags from the recycled block before a slow
    // rank even allocates it. Those must not trip the staleness gate.
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        std::vector<float> v{1.0f};
        if (comm.rank() == 0) {
            send_vec(comm, 1, kAsyncTagBase + 3, v);  // inside new block
            send_vec(comm, 1, kTagTestAux, v);
        } else {
            (void)recv_bytes(comm, 0, kTagTestAux);
            comm.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 5);
            EXPECT_EQ(comm.fresh_async_tags(10), kAsyncTagBase);
            EXPECT_EQ(recv_vec<float>(comm, 0, kAsyncTagBase + 3).size(), 1u);
        }
    });
}

TEST(NetworkModelTest, TransferTimeMatchesDefinition) {
    const NetworkModel net = NetworkModel::one_gbps_ethernet();
    EXPECT_DOUBLE_EQ(net.transfer_time_elems(0), net.alpha_s);
    EXPECT_NEAR(net.transfer_time_elems(1000) - net.alpha_s, 1000 * net.beta_s, 1e-15);
    // Bytes and element paths agree for 4-byte multiples.
    EXPECT_DOUBLE_EQ(net.transfer_time_s(4000), net.transfer_time_elems(1000));
}

TEST(NetworkModelTest, PaperConstants) {
    const NetworkModel net = NetworkModel::one_gbps_ethernet();
    EXPECT_DOUBLE_EQ(net.alpha_s, 0.436e-3);
    EXPECT_DOUBLE_EQ(net.beta_s, 3.6e-8);
}

}  // namespace
