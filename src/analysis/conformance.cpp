#include "analysis/conformance.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/tags.hpp"

namespace gtopk::analysis {

using collectives::CommOp;
using collectives::Schedule;
using collectives::kVariableBytes;

SchedulePredictor::SchedulePredictor(int world)
    : world_(world), async_cursor_(comm::kAsyncTagBase) {
    if (world < 1) throw std::invalid_argument("SchedulePredictor: world < 1");
    edges_.resize(static_cast<std::size_t>(world) * static_cast<std::size_t>(world));
}

void SchedulePredictor::add(const Schedule& sched) {
    if (sched.world != world_) {
        throw std::invalid_argument("SchedulePredictor: world mismatch for " +
                                    sched.proto);
    }
    const int base = sched.absolute_tags ? 0 : async_cursor_;
    for (int rank = 0; rank < world_; ++rank) {
        for (const CommOp& op : sched.rank_ops(rank)) {
            if (op.kind != CommOp::Kind::Send) continue;
            ExpectedMsg m;
            m.src = rank;
            m.dst = op.peer;
            m.tag = base + op.tag_offset;
            m.bytes = op.bytes;
            m.proto = sched.proto;
            m.round = op.round;
            edges_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(world_) +
                   static_cast<std::size_t>(op.peer)]
                .push_back(std::move(m));
            ++total_;
        }
    }
    if (!sched.absolute_tags) async_cursor_ += sched.tag_count;
}

const std::vector<ExpectedMsg>& SchedulePredictor::edge(int src, int dst) const {
    return edges_[static_cast<std::size_t>(src) * static_cast<std::size_t>(world_) +
                  static_cast<std::size_t>(dst)];
}

ConformanceReport diff_conformance(const SchedulePredictor& predictor,
                                   std::span<const comm::RecordedMsg> actual,
                                   ConformanceMode mode) {
    const int world = predictor.world();
    ConformanceReport report;
    report.expected_messages = predictor.total_messages();
    report.actual_messages = static_cast<std::int64_t>(actual.size());

    // Split the recorded stream into per-edge subsequences (already in
    // sender program order within each edge).
    std::vector<std::vector<comm::RecordedMsg>> got(
        static_cast<std::size_t>(world) * static_cast<std::size_t>(world));
    for (const comm::RecordedMsg& m : actual) {
        if (m.src < 0 || m.src >= world || m.dst < 0 || m.dst >= world) {
            report.ok = false;
            report.divergence = "recorded message with out-of-world endpoint " +
                                std::to_string(m.src) + " -> " + std::to_string(m.dst);
            return report;
        }
        got[static_cast<std::size_t>(m.src) * static_cast<std::size_t>(world) +
            static_cast<std::size_t>(m.dst)]
            .push_back(m);
    }

    // Earliest-seq divergence across edges = "first" in a run-meaningful
    // sense; length mismatches report at the end of the shorter stream.
    std::uint64_t best_seq = UINT64_MAX;
    std::string best;
    auto report_at = [&](std::uint64_t seq, std::string msg) {
        if (seq < best_seq) {
            best_seq = seq;
            best = std::move(msg);
        }
    };

    for (int src = 0; src < world; ++src) {
        for (int dst = 0; dst < world; ++dst) {
            std::vector<ExpectedMsg> exp_by_tag;
            const std::vector<ExpectedMsg>* exp_p = &predictor.edge(src, dst);
            auto& act =
                got[static_cast<std::size_t>(src) * static_cast<std::size_t>(world) +
                    static_cast<std::size_t>(dst)];
            if (mode == ConformanceMode::kTagStream) {
                // Collapse nondeterministic cross-handle interleaving: both
                // sides keyed by tag, within-tag order preserved.
                exp_by_tag = *exp_p;
                std::stable_sort(
                    exp_by_tag.begin(), exp_by_tag.end(),
                    [](const ExpectedMsg& a, const ExpectedMsg& b) { return a.tag < b.tag; });
                std::stable_sort(act.begin(), act.end(),
                                 [](const comm::RecordedMsg& a, const comm::RecordedMsg& b) {
                                     return a.tag < b.tag;
                                 });
                exp_p = &exp_by_tag;
            }
            const auto& exp = *exp_p;
            const std::size_t n = std::min(exp.size(), act.size());
            bool edge_diverged = false;
            for (std::size_t i = 0; i < n; ++i) {
                const ExpectedMsg& e = exp[i];
                const comm::RecordedMsg& a = act[i];
                if (a.tag != e.tag ||
                    (e.bytes != kVariableBytes && a.bytes != e.bytes)) {
                    report_at(a.seq,
                              "edge " + std::to_string(src) + " -> " +
                                  std::to_string(dst) + ", message #" +
                                  std::to_string(i) + ": expected tag " +
                                  std::to_string(e.tag) +
                                  (e.bytes == kVariableBytes
                                       ? std::string()
                                       : " (" + std::to_string(e.bytes) + " bytes)") +
                                  " from " + e.proto + " round " +
                                  std::to_string(e.round) + ", observed tag " +
                                  std::to_string(a.tag) + " (" +
                                  std::to_string(a.bytes) + " bytes)");
                    edge_diverged = true;
                    break;
                }
                ++report.matched_messages;
            }
            if (edge_diverged) continue;
            if (act.size() > exp.size()) {
                report_at(act[exp.size()].seq,
                          "edge " + std::to_string(src) + " -> " + std::to_string(dst) +
                              ": " + std::to_string(act.size() - exp.size()) +
                              " extra message(s) beyond the " +
                              std::to_string(exp.size()) + " scheduled, first has tag " +
                              std::to_string(act[exp.size()].tag));
            } else if (exp.size() > act.size()) {
                const ExpectedMsg& e = exp[act.size()];
                report_at(UINT64_MAX - 1,
                          "edge " + std::to_string(src) + " -> " + std::to_string(dst) +
                              ": missing " + std::to_string(exp.size() - act.size()) +
                              " scheduled message(s), next expected tag " +
                              std::to_string(e.tag) + " from " + e.proto + " round " +
                              std::to_string(e.round));
            }
        }
    }

    if (!best.empty()) {
        report.ok = false;
        report.divergence = std::move(best);
    }
    return report;
}

}  // namespace gtopk::analysis
