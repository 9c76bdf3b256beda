// Explicit-state explorer for the protocheck model checker.
//
// A Model describes a small-world protocol instance as a labeled transition
// system over VALUE-TYPE states:
//
//   struct Model {
//     struct State { ... };                       // copyable value
//     struct Action { ... };                      // copyable value
//     State initial() const;
//     std::vector<Action> actions(const State&) const;   // enabled actions
//     State apply(const State&, const Action&) const;    // successor
//     std::string describe(const Action&) const;         // trace labels
//     // Invariant check: name of the violated invariant, nullopt if sound.
//     std::optional<std::string> check(const State&) const;
//     bool is_goal(const State&) const;           // liveness target
//     bool is_fair(const Action&) const;          // guaranteed-to-fire class
//     // Canonical fingerprint: equal iff states are equivalent. Used ONLY
//     // as the visited-set key; traces replay concrete states from
//     // initial(), so every trace is a real executable run.
//     std::vector<std::uint64_t> encode(const State&) const;
//   };
//
// explore() runs breadth-first search from initial() with a canonical-key
// visited set, checking every discovered state's invariants. The FIRST
// violation aborts the search with a minimal-depth counterexample trace
// (BFS order guarantees minimality over canonical classes). A state with
// no enabled actions that is not a goal is reported as a deadlock. Only
// the frontier holds concrete states; a discovered state keeps its key,
// its parent edge and its goal bit, and a trace is rebuilt by replaying
// the parent edges from initial().
//
// Liveness under fairness: after a clean sweep, every reachable state must
// be able to reach a goal state using FAIR actions only — fair actions are
// the ones the runtime guarantees eventually happen (a pending send is
// sent, an in-flight message is delivered or dropped BY the adversary's
// budget, the backoff timer fires recover). A reachable state with no fair
// path to any goal is a livelock: the adversary can park the protocol
// there forever even though the network eventually behaves. Computed as
// reverse BFS over the fair edge set from all goal states.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gtopk::analysis::protocheck {

struct ExploreLimits {
    /// Hard cap on discovered states; exceeding it truncates the sweep
    /// (report.truncated) instead of running away. Verification is only
    /// exhaustive when the sweep finishes under the cap.
    std::uint64_t max_states = 2'000'000;
};

template <typename Model>
struct TraceStep {
    typename Model::Action action;
    std::string label;
};

template <typename Model>
struct CheckReport {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t max_depth = 0;
    bool truncated = false;
    /// Name of the first violated invariant ("deadlock" for a stuck
    /// non-goal state, "livelock: ..." for a fairness violation).
    std::optional<std::string> violation;
    /// Executable action sequence from the initial state into the
    /// violating (or livelocked) state.
    std::vector<TraceStep<Model>> trace;

    bool clean() const { return !violation && !truncated; }
};

namespace detail {

inline std::string key_bytes(const std::vector<std::uint64_t>& enc) {
    std::string k(enc.size() * sizeof(std::uint64_t), '\0');
    if (!enc.empty()) std::memcpy(k.data(), enc.data(), k.size());
    return k;
}

}  // namespace detail

template <typename Model>
CheckReport<Model> explore(const Model& model, const ExploreLimits& limits = {}) {
    using State = typename Model::State;
    CheckReport<Model> report;

    std::vector<std::uint32_t> depth;
    // (parent id, index into actions(parent)); root parent is itself.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parent;
    std::vector<std::vector<std::uint32_t>> fair_out;  // fair successor ids
    std::vector<char> goal;
    std::unordered_map<std::string, std::uint32_t> visited;

    const auto rebuild_trace = [&](std::uint32_t id) {
        std::vector<std::uint32_t> chain;
        while (parent[id].first != id) {
            chain.push_back(parent[id].second);
            id = parent[id].first;
        }
        State cur = model.initial();
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            typename Model::Action a = model.actions(cur)[*it];
            report.trace.push_back({a, model.describe(a)});
            cur = model.apply(cur, a);
        }
    };
    const auto discover = [&](std::uint32_t pid, std::uint32_t act_idx,
                              std::uint32_t d, const State& s) {
        depth.push_back(d);
        parent.emplace_back(pid, act_idx);
        fair_out.emplace_back();
        goal.push_back(model.is_goal(s) ? 1 : 0);
        if (d > report.max_depth) report.max_depth = d;
    };

    State root = model.initial();
    visited.emplace(detail::key_bytes(model.encode(root)), 0);
    discover(0, 0, 0, root);
    if (auto v = model.check(root)) {
        report.states = 1;
        report.violation = v;
        return report;
    }

    std::deque<std::pair<std::uint32_t, State>> frontier;
    frontier.emplace_back(0, std::move(root));
    while (!frontier.empty()) {
        if (depth.size() > limits.max_states) {
            report.truncated = true;
            break;
        }
        const auto [sid, state] = std::move(frontier.front());
        frontier.pop_front();
        const std::vector<typename Model::Action> acts = model.actions(state);
        if (acts.empty() && !goal[sid]) {
            report.violation = "deadlock";
            rebuild_trace(sid);
            report.states = depth.size();
            report.max_depth = depth[sid];
            return report;
        }
        for (std::uint32_t ai = 0; ai < acts.size(); ++ai) {
            State next = model.apply(state, acts[ai]);
            ++report.transitions;
            const std::string key = detail::key_bytes(model.encode(next));
            auto [it, inserted] =
                visited.emplace(key, static_cast<std::uint32_t>(depth.size()));
            if (inserted) {
                const std::uint32_t nid = it->second;
                discover(sid, ai, depth[sid] + 1, next);
                if (auto v = model.check(next)) {
                    report.violation = v;
                    rebuild_trace(nid);
                    report.states = depth.size();
                    return report;
                }
                frontier.emplace_back(nid, std::move(next));
            }
            if (model.is_fair(acts[ai])) fair_out[sid].push_back(it->second);
        }
    }
    report.states = depth.size();
    if (report.truncated) return report;

    // Liveness: reverse BFS from the goal set over fair edges; every
    // reachable state must be co-reachable or the adversary owns a trap.
    std::vector<std::vector<std::uint32_t>> fair_in(depth.size());
    for (std::uint32_t s = 0; s < depth.size(); ++s) {
        for (std::uint32_t d : fair_out[s]) fair_in[d].push_back(s);
    }
    std::vector<char> co(depth.size(), 0);
    std::deque<std::uint32_t> rq;
    for (std::uint32_t s = 0; s < depth.size(); ++s) {
        if (goal[s]) {
            co[s] = 1;
            rq.push_back(s);
        }
    }
    while (!rq.empty()) {
        const std::uint32_t s = rq.front();
        rq.pop_front();
        for (std::uint32_t p : fair_in[s]) {
            if (!co[p]) {
                co[p] = 1;
                rq.push_back(p);
            }
        }
    }
    for (std::uint32_t s = 0; s < depth.size(); ++s) {
        if (!co[s]) {
            report.violation =
                "livelock: no fair path to a goal state";
            rebuild_trace(s);
            return report;
        }
    }
    return report;
}

}  // namespace gtopk::analysis::protocheck
