#include "train/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "collectives/collectives.hpp"
#include "core/async_gtopk.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sparse/topk_select.hpp"
#include "train/bucketer.hpp"
#include "train/checkpoint.hpp"
#include "util/log.hpp"

namespace gtopk::train {

namespace {

using comm::Communicator;
using sparse::SparseGradient;

double now_host_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void check_error_feedback(std::span<const float> accumulated,
                          std::span<const float> residual,
                          const SparseGradient& sent) {
    // residual + sent must reconstruct the accumulated gradient exactly in
    // the pre-aggregation state (before the line-10 put-back).
    std::size_t si = 0;
    for (std::size_t i = 0; i < accumulated.size(); ++i) {
        float reconstructed = residual[i];
        if (si < sent.nnz() && static_cast<std::size_t>(sent.indices[si]) == i) {
            reconstructed += sent.values[si];
            ++si;
        }
        if (std::abs(reconstructed - accumulated[i]) > 1e-5f) {
            throw std::logic_error("error-feedback invariant violated");
        }
    }
}

struct RankOutput {
    std::vector<EpochMetrics> epochs;
    double mean_compute_s = 0;
    double mean_compress_s = 0;
    double mean_comm_virtual_s = 0;
    std::vector<float> final_params;
    bool completed = false;  // false: killed mid-run (elastic mode)
    int regroups = 0;
    int final_epoch = 0;  // membership epoch at completion
};

}  // namespace

const char* algorithm_name(Algorithm a) {
    switch (a) {
        case Algorithm::DenseSsgd: return "Dense S-SGD";
        case Algorithm::TopkSsgd: return "Top-k S-SGD";
        case Algorithm::GtopkSsgd: return "gTop-k S-SGD";
        case Algorithm::NaiveGtopkSsgd: return "naive gTop-k S-SGD";
        case Algorithm::SelectKFromKP: return "select-k-from-kP S-SGD";
        case Algorithm::LayerwiseGtopkSsgd: return "layer-wise gTop-k S-SGD";
    }
    return "?";
}

TrainResult train_distributed(int world_size, comm::NetworkModel net,
                              const TrainConfig& config, const ModelFactory& factory,
                              const TrainBatchProvider& train_batches,
                              const EvalBatchProvider& eval_batch) {
    std::vector<RankOutput> outputs(static_cast<std::size_t>(world_size));
    std::vector<comm::CommStats> final_stats(static_cast<std::size_t>(world_size));

    if (config.selection != sparse::SelectionPolicy::ExactTopk &&
        (config.algorithm == Algorithm::TopkSsgd ||
         config.algorithm == Algorithm::DenseSsgd ||
         config.algorithm == Algorithm::LayerwiseGtopkSsgd)) {
        // Layer-wise: the buckets would share the adaptive selector's state
        // and the sampling RNG, so no bucket would select like the policy.
        throw std::invalid_argument(
            "threshold selection policies require a whole-model gTop-k "
            "algorithm");
    }
    if (config.overlap && config.algorithm != Algorithm::LayerwiseGtopkSsgd) {
        throw std::invalid_argument(
            "train_distributed: overlap requires LayerwiseGtopkSsgd — only "
            "per-bucket collectives can hide under backward compute");
    }
    if (config.membership && config.recv_timeout_s <= 0.0) {
        throw std::invalid_argument(
            "train_distributed: elastic mode needs recv_timeout_s > 0 — the "
            "receive deadline is how survivors detect a dead peer's stall");
    }
    if (config.membership &&
        config.recv_timeout_s >= config.membership->config().join_grace_s) {
        throw std::invalid_argument(
            "train_distributed: elastic mode needs recv_timeout_s < "
            "join_grace_s — the deadline cascade must route every survivor "
            "into the regroup round before the grace window expires, or the "
            "round finalizes without them (quorum permitting)");
    }
    if (config.local_rank >= 0) {
        if (!config.transport) {
            throw std::invalid_argument(
                "train_distributed: local_rank requires an external transport "
                "(the peer ranks live in other processes)");
        }
        if (config.local_rank >= world_size) {
            throw std::invalid_argument(
                "train_distributed: local_rank outside world");
        }
        // Elastic + local_rank is supported: MembershipService runs its
        // regroup as leader-driven JOIN/VIEW frames on every transport.
    }

    auto worker = [&](Communicator& comm) {
        // Physical rank: stable identity (output slot, traces, membership).
        // comm.rank() is the LOGICAL rank under the current membership view
        // and is what batch sharding and collectives use — it changes when
        // the world regroups around a failure.
        const int rank = comm.physical_rank();
        RankOutput& out = outputs[static_cast<std::size_t>(rank)];
        const bool elastic = config.membership != nullptr;
        obs::Telemetry* const telem = config.telemetry;
        obs::FlightRecorder* const frec =
            telem ? telem->flight_recorder() : nullptr;
        if (config.recv_deadline_clock == comm::DeadlineClock::Virtual) {
            comm.set_recv_deadline(comm::DeadlineClock::Virtual,
                                   config.recv_timeout_s);
        }

        std::unique_ptr<nn::TrainableModel> model = factory(config.model_seed);
        const std::size_t m = model->num_params();
        std::vector<float> residual(m, 0.0f);
        std::vector<float> velocity(m, 0.0f);
        const bool local_momentum =
            config.momentum_mode == TrainConfig::MomentumMode::LocalCorrection &&
            config.algorithm != Algorithm::DenseSsgd;
        sparse::AdaptiveThresholdSelector adaptive(
            std::max(config.density, 1e-9), std::max(config.static_threshold, 1e-6f));
        // Hot-path scratch, reused across every iteration of this worker:
        // the aggregator's merge/wire buffers stop allocating after the
        // first iteration, and so does each bucket's selection workspace
        // (below), which its residual accumulate counts into.
        core::GtopkWorkspace agg_ws;
        // The gTop-k family's mean update: the buckets' global selections
        // in ascending index order, values scaled by 1/P, +0 elsewhere. Its
        // buffers are reused across steps.
        const bool sparse_global =
            config.algorithm != Algorithm::DenseSsgd &&
            config.algorithm != Algorithm::TopkSsgd;
        SparseGradient mean_update;
        // The gradient lands in the residual while backward produces it,
        // unless clipping or local momentum must see all of it first.
        const bool fold_in_backward = sparse_global &&
                                      config.gradient_clip_norm <= 0.0f &&
                                      !local_momentum;
        // check_invariants only: the accumulated gradient before selection.
        std::vector<float> accumulated;
        util::Xoshiro256 sample_rng =
            util::Xoshiro256(config.model_seed).fork(0x5A00 + static_cast<std::uint64_t>(rank));

        // Every sparse algorithm runs one loop over gradient buckets:
        // select, aggregate and put back per bucket. The layer-wise variant
        // buckets its parameter tensors (identity per-tensor buckets unless
        // config.bucket_bytes asks for fusion), with backward-ready fractions
        // — the shared "ready time" definition the overlap model also
        // consumes (train/bucketer.hpp). Algorithms 1, 2, 4 and the Fig. 1
        // variant are the one bucket covering the whole model; DenseSsgd
        // has no bucket.
        std::vector<std::size_t> seg_offsets{0};
        for (const auto& p : model->params()) {
            seg_offsets.push_back(seg_offsets.back() + p.value.size());
        }
        const bool layerwise = config.algorithm == Algorithm::LayerwiseGtopkSsgd;
        std::vector<GradBucket> buckets;
        if (layerwise) {
            buckets = fuse_buckets(seg_offsets, config.bucket_bytes);
        } else if (config.algorithm != Algorithm::DenseSsgd) {
            buckets.push_back({.begin = 0,
                               .end = m,
                               .last_segment = static_cast<int>(seg_offsets.size()) - 2});
        }
        const std::vector<double> bucket_ready = bucket_ready_fractions(buckets, m);
        // The modeled backward time is charged during layer-wise
        // aggregation only (TrainConfig::overlap_backward_s).
        const double backward_s = layerwise ? config.overlap_backward_s : 0.0;
        std::vector<SparseGradient> locals(buckets.size());
        std::vector<sparse::TopkWorkspace> select_ws(buckets.size());
        const bool exact = config.selection == sparse::SelectionPolicy::ExactTopk;

        double total_compute = 0, total_compress = 0, total_comm = 0;
        std::int64_t total_iters = 0;

        const std::int64_t total_steps =
            static_cast<std::int64_t>(config.epochs) * config.iters_per_epoch;
        // Per-step losses instead of a running epoch accumulator: a
        // rollback replays steps, and overwriting slots keeps the epoch
        // metrics exact regardless of how many times a step ran.
        std::vector<double> step_loss(
            static_cast<std::size_t>(std::max<std::int64_t>(total_steps, 1)), 0.0);
        CheckpointStore ckpts(config.checkpoint_every > 0
                                  ? config.checkpoint_every
                                  : std::max<std::int64_t>(total_steps, 1));

        std::int64_t step = 0;
        bool need_resync = false;
        bool killed = false;

        while (step < total_steps) {
            try {
                if (need_resync) {
                    obs::ScopedSpan rollback_span(config.tracer, comm.clock(),
                                                  rank, "rollback", "train");
                    rollback_span.attrs().round = static_cast<int>(step);
                    // Post-regroup rollback. Survivors can straddle a
                    // checkpoint cadence boundary (synchronous SGD keeps
                    // them within one step of each other), so first agree
                    // on the newest snapshot EVERY survivor holds.
                    const std::int64_t mine = ckpts.latest_step();
                    const std::vector<std::int64_t> latest =
                        collectives::allgather<std::int64_t>(
                            comm, std::span<const std::int64_t>(&mine, 1),
                            collectives::AllgatherAlgo::Ring);
                    std::int64_t target = mine;
                    for (std::int64_t l : latest) target = std::min(target, l);
                    std::optional<Checkpoint> ck = ckpts.at(target);
                    if (!ck) throw std::logic_error("rollback checkpoint missing");
                    // Snapshots newer than the rollback point were taken on
                    // the pre-failure world; the replay runs on the survivor
                    // world and diverges, so they belong to an abandoned
                    // timeline. Prune them or a second failure during the
                    // replay could pick a stale snapshot AHEAD of current
                    // progress as its allgather-min rollback target.
                    ckpts.truncate_after(target);
                    rollback_span.finish();
                    obs::ScopedSpan resync_span(config.tracer, comm.clock(),
                                                rank, "resync", "train");
                    resync_span.attrs().round = static_cast<int>(target);
                    // Resync replica state by binomial broadcast from the
                    // lowest surviving rank (logical rank 0 of the new
                    // view). params are replica-identical at a step, so
                    // this re-certifies agreement; the residual is
                    // rank-local and restored from the own snapshot. The
                    // dead rank's residual — gradient mass it had withheld —
                    // is lost with it (DESIGN.md §12).
                    std::vector<std::int64_t> agreed{ck->step};
                    collectives::broadcast(comm, agreed, 0);
                    std::vector<float> params = ck->params;
                    collectives::broadcast(comm, params, 0);
                    if (local_momentum) {
                        // DGC-style LocalCorrection velocity is built from
                        // each rank's OWN gradient stream — rank-local like
                        // the residual, not replica-identical — so it must
                        // come from the own snapshot, never a broadcast.
                        velocity = ck->velocity;
                    } else {
                        // PostAggregation velocity is replica-identical.
                        std::vector<float> vel = ck->velocity;
                        collectives::broadcast(comm, vel, 0);
                        velocity = std::move(vel);
                    }
                    if (agreed[0] != target) {
                        throw std::logic_error("rollback step disagreement");
                    }
                    model->set_flat_params(params);
                    residual = ck->residual;
                    step = target;
                    need_resync = false;
                    if (frec) {
                        frec->note_event("rollback", rank, target, comm.epoch(),
                                         "resumed from checkpoint on world of " +
                                             std::to_string(comm.size()));
                    }
                    util::log_info("rank " + std::to_string(rank) +
                                   ": resumed from checkpoint step " +
                                   std::to_string(target) + " on world of " +
                                   std::to_string(comm.size()));
                    continue;
                }

                // A kill scheduled "at step T" (FaultPlan::kill_at_step)
                // fires inside this progress mark: the victim dies at the
                // iteration boundary having fully finished step T-1.
                comm.mark_progress(step);
                if (elastic && ckpts.due(step)) {
                    ckpts.save({step, model->flat_params(), velocity, residual});
                }

                const int epoch = static_cast<int>(step / config.iters_per_epoch);
                const bool warm =
                    epoch < static_cast<int>(config.warmup_densities.size());
                const double density =
                    warm ? config.warmup_densities[static_cast<std::size_t>(epoch)]
                         : config.density;
                const float lr =
                    warm ? config.lr * config.warmup_lr_scale : config.lr;
                // A bucket's k; for the whole-model bucket, Alg. 4's k.
                const auto k_of = [density](std::size_t size) {
                    return std::max<std::size_t>(
                        1, static_cast<std::size_t>(
                               std::llround(density * static_cast<double>(size))));
                };

                obs::ScopedSpan iter_span(config.tracer, comm.clock(), rank,
                                          "iteration", "train");
                iter_span.attrs().round = static_cast<int>(step);
                // --- compute phase (host-timed) ---
                const double t0 = now_host_s();
                obs::ScopedSpan compute_span(config.tracer, comm.clock(), rank,
                                             "compute", "train");
                compute_span.attrs().round = static_cast<int>(step);
                // Batches shard by LOGICAL rank: after a regroup the
                // survivor world re-partitions the data stream among
                // comm.size() workers with no gaps.
                nn::Batch batch = train_batches(step, comm.rank());
                // Each bucket's residual accumulate (Alg. 4 line 4) counts
                // line 5's histogram on the way; selection then reads G
                // straight from `residual`. Threshold policies ignore the
                // count.
                ResidualFold fold(residual, buckets, select_ws);
                fold.begin();
                const std::span<float> grads = model->grads();
                double loss = 0.0;
                if (fold_in_backward) {
                    loss = model->train_step_fold(batch, fold);
                } else {
                    loss = model->train_step_gradients(batch);
                    // DGC-style local gradient clipping (scale to the L2
                    // ball), in place in the model's gradient arena.
                    if (config.gradient_clip_norm > 0.0f) {
                        double norm_sq = 0.0;
                        for (float g : grads) norm_sq += static_cast<double>(g) * g;
                        const double norm = std::sqrt(norm_sq);
                        if (norm > config.gradient_clip_norm) {
                            const float scale =
                                config.gradient_clip_norm / static_cast<float>(norm);
                            for (float& g : grads) g *= scale;
                        }
                    }
                    if (local_momentum) {
                        // DGC momentum correction: momentum is folded into
                        // the LOCAL stream before residual accumulation.
                        for (float& v : velocity) v *= config.momentum;
                        model->accumulate_grads_into(velocity);
                    }
                    if (!buckets.empty()) {
                        fold.fold(0, local_momentum ? std::span<const float>(velocity)
                                                    : grads);
                    }
                }
                step_loss[static_cast<std::size_t>(step)] = loss;
                compute_span.finish();
                const double t1 = now_host_s();

                // --- compress phase (host-timed): Alg. 4 lines 5-8 per
                // bucket, reading G in place from the bucket's residual.
                obs::ScopedSpan select_span(config.tracer, comm.clock(), rank,
                                            "select", "train");
                select_span.attrs().round = static_cast<int>(step);
                std::int64_t nnz = 0;
                for (std::size_t b = 0; b < buckets.size(); ++b) {
                    const std::span<float> g(residual.data() + buckets[b].begin,
                                             buckets[b].size());
                    SparseGradient& local = locals[b];
                    if (config.check_invariants) accumulated.assign(g.begin(), g.end());
                    switch (config.selection) {
                        case sparse::SelectionPolicy::ExactTopk:
                            sparse::topk_select_counted(g, k_of(g.size()), select_ws[b],
                                                        local);
                            break;
                        case sparse::SelectionPolicy::StaticThreshold:
                            local = sparse::threshold_select(g, config.static_threshold);
                            break;
                        case sparse::SelectionPolicy::AdaptiveThreshold:
                            local = adaptive.select(g);
                            break;
                        case sparse::SelectionPolicy::SampledTopk:
                            local = sparse::sampled_topk_select(g, k_of(g.size()),
                                                                sample_rng);
                            break;
                    }
                    sparse::zero_selected(g, local);
                    if (config.check_invariants) {
                        check_error_feedback(accumulated, g, local);
                    }
                    // Combined sparsification + quantization: ship lossy
                    // values, feed the quantization error back into the
                    // residual so no gradient mass is lost.
                    if (config.value_quantizer != quant::Scheme::None) {
                        const std::vector<float> lossy =
                            quant::quantize_dequantize(local.values,
                                                       config.value_quantizer);
                        for (std::size_t i = 0; i < local.nnz(); ++i) {
                            g[static_cast<std::size_t>(local.indices[i])] +=
                                local.values[i] - lossy[i];
                        }
                        local.values = lossy;
                    }
                    nnz += static_cast<std::int64_t>(local.nnz());
                }
                select_span.attrs().nnz = nnz;
                // Stamp t2 first: the span's record (which may fault in a
                // fresh page of the span ring) is tracing, not compression.
                const double t2 = now_host_s();
                select_span.finish();

                // --- communication phase (virtual-timed) ---
                // CommStats snapped tightly around the aggregation so the
                // telemetry wire deltas exclude epoch-boundary loss
                // allgathers and the telemetry exchange itself.
                const comm::CommStats agg_pre = comm.stats();
                const double v0 = comm.clock().now_s();
                obs::ScopedSpan agg_span(config.tracer, comm.clock(), rank,
                                         "aggregate", "train");
                agg_span.attrs().round = static_cast<int>(step);
                agg_span.attrs().nnz = nnz;
                const float inv = 1.0f / static_cast<float>(comm.size());
                mean_update.indices.clear();
                mean_update.values.clear();
                // Threshold policies have no well-defined k; their bucket
                // then aggregates untruncated (a pure sparse sum-allreduce)
                // and the thresholding alone provides the sparsity.
                const auto global_k = [&](const GradBucket& b) {
                    return exact ? k_of(b.size()) : b.size();
                };
                // Alg. 4 line 10 (the Fig. 1 variant skips it), then the
                // bucket's share of the mean update. Buckets finish in
                // ascending order, so the update's indices ascend.
                const auto finish_bucket = [&](std::size_t b,
                                               const SparseGradient& global) {
                    const std::size_t off = buckets[b].begin;
                    if (config.algorithm != Algorithm::SelectKFromKP) {
                        sparse::return_unselected(
                            std::span<float>(residual.data() + off, buckets[b].size()),
                            locals[b], global.indices);
                    }
                    for (std::size_t j = 0; j < global.nnz(); ++j) {
                        mean_update.indices.push_back(
                            static_cast<std::int32_t>(off) + global.indices[j]);
                        mean_update.values.push_back(global.values[j] * inv);
                    }
                };
                std::vector<float> dense_update;  // DenseSsgd / TopkSsgd
                switch (config.algorithm) {
                    case Algorithm::DenseSsgd:
                        dense_update = core::dense_allreduce(comm, grads);
                        for (float& u : dense_update) u *= inv;
                        break;
                    case Algorithm::TopkSsgd:
                        dense_update = core::topk_allreduce(comm, locals[0]);
                        for (float& u : dense_update) u *= inv;
                        break;
                    case Algorithm::NaiveGtopkSsgd:
                        finish_bucket(0, core::naive_gtopk_allreduce(
                                             comm, locals[0], global_k(buckets[0]))
                                             .global);
                        break;
                    case Algorithm::GtopkSsgd:
                    case Algorithm::SelectKFromKP:
                    case Algorithm::LayerwiseGtopkSsgd: {
                        // One gTop-k handle per bucket. Overlap (layer-wise
                        // only) decides only the issue order: every handle
                        // starts in backward (gradient-ready) order, the
                        // clock advancing to each bucket's ready time, and
                        // drains front-first; without it each handle starts
                        // right before its own wait. Only virtual scheduling
                        // changes, never the math, so params are
                        // bit-identical with overlap on or off.
                        const double agg_v_start = comm.clock().now_s();
                        std::vector<std::unique_ptr<core::AsyncGtopkAllreduce>>
                            handles(buckets.size());
                        auto start = [&](std::size_t b) {
                            handles[b] = std::make_unique<core::AsyncGtopkAllreduce>(
                                comm, locals[b], global_k(buckets[b]), &agg_ws);
                            handles[b]->set_priority(buckets[b].priority);
                            handles[b]->start();
                        };
                        if (config.overlap) {
                            for (std::size_t b = buckets.size(); b-- > 0;) {
                                // Gradient-ready injection: the bucket's
                                // collective may not start before backward
                                // has produced its gradients.
                                if (backward_s > 0.0) {
                                    comm.clock().advance_to(
                                        agg_v_start + bucket_ready[b] * backward_s);
                                }
                                start(b);
                            }
                            if (backward_s > 0.0) {
                                comm.clock().advance_to(agg_v_start + backward_s);
                            }
                        } else if (backward_s > 0.0) {
                            // Same modeled backward charge, fully serialized
                            // ahead of the communication — the overlap-off
                            // baseline the benches compare against.
                            comm.clock().advance(backward_s);
                        }
                        for (std::size_t b = 0; b < buckets.size(); ++b) {
                            if (!config.overlap) start(b);
                            handles[b]->wait();
                            finish_bucket(b, handles[b]->result());
                        }
                        break;
                    }
                }
                agg_span.finish();
                const double v1 = comm.clock().now_s();
                const comm::CommStats agg_post = comm.stats();

                // --- update phase. PostAggregation: momentum SGD on the
                // aggregated mean (identical on every rank). With DGC-style
                // LocalCorrection the momentum already happened upstream,
                // so the aggregate is applied as plain SGD.
                const double u0 = now_host_s();
                obs::ScopedSpan update_span(config.tracer, comm.clock(), rank,
                                            "update", "train");
                update_span.attrs().round = static_cast<int>(step);
                const auto apply = [&](const auto& update) {
                    if (local_momentum) {
                        model->axpy_params(-lr, update);
                    } else {
                        model->momentum_axpy_params(config.momentum, velocity, update, -lr);
                    }
                };
                if (sparse_global) {
                    apply(nn::SparseUpdate{mean_update.indices, mean_update.values});
                } else {
                    apply(std::span<const float>(dense_update));
                }
                update_span.finish();
                const double u1 = now_host_s();

                total_compute += t1 - t0;
                total_compress += t2 - t1;
                total_comm += v1 - v0;
                ++total_iters;

                // --- telemetry exchange (absolute-tag band, so the SPMD
                // async tag cursor and hence the trajectory are untouched).
                if (telem) {
                    obs::RankIterStats st;
                    st.step = step;
                    st.regroups = out.regroups;
                    st.compute_host_s = t1 - t0;
                    st.compress_host_s = t2 - t1;
                    st.comm_virtual_s = v1 - v0;
                    st.update_host_s = u1 - u0;
                    st.wire_bytes_sent = static_cast<std::int64_t>(
                        agg_post.bytes_sent - agg_pre.bytes_sent);
                    st.wire_bytes_received = static_cast<std::int64_t>(
                        agg_post.bytes_received - agg_pre.bytes_received);
                    st.messages_sent = static_cast<std::int64_t>(
                        agg_post.messages_sent - agg_pre.messages_sent);
                    st.messages_received = static_cast<std::int64_t>(
                        agg_post.messages_received - agg_pre.messages_received);
                    if (config.algorithm != Algorithm::DenseSsgd) st.nnz = nnz;
                    st.mailbox_depth =
                        static_cast<std::int64_t>(comm.mailbox_depth());
                    if (config.tracer) {
                        obs::fold_fault_counters(config.tracer->metrics(), st);
                    }

                    // Attribution join key for this iteration's aggregation
                    // collective. Sparse wire blocks are 16 header bytes +
                    // 8 per entry; only ExactTopk has a fixed k to predict.
                    obs::CollectiveSpec spec;
                    const obs::CollectiveSpec* specp = nullptr;
                    const std::int64_t mi = static_cast<std::int64_t>(m);
                    const std::int64_t ki = static_cast<std::int64_t>(k_of(m));
                    switch (config.algorithm) {
                        case Algorithm::DenseSsgd:
                            spec = {"allreduce.ring", mi, 4, mi, 0};
                            specp = &spec;
                            break;
                        case Algorithm::TopkSsgd:
                            spec = {"allgather.recursive_doubling",
                                    16 + 8 * ki, 1, mi, ki};
                            specp = &spec;
                            break;
                        case Algorithm::GtopkSsgd:
                        case Algorithm::SelectKFromKP:
                            if (exact) {
                                spec = {"gtopk.allreduce", 16 + 8 * ki, 1, mi,
                                        ki};
                                specp = &spec;
                            }
                            break;
                        case Algorithm::NaiveGtopkSsgd:
                            if (exact) {
                                // Variable-byte wire: counts are predicted,
                                // bytes/time are not.
                                spec = {"allgatherv.ring", 16 + 8 * ki, 1, mi,
                                        ki};
                                specp = &spec;
                            }
                            break;
                        case Algorithm::LayerwiseGtopkSsgd:
                            break;  // one collective per tensor; no single key
                    }

                    obs::ScopedSpan telem_span(config.tracer, comm.clock(),
                                               rank, "telemetry", "train");
                    telem_span.attrs().round = static_cast<int>(step);
                    telem->exchange(comm, st, specp);
                }

                // --- end-of-epoch boundary ---
                if ((step + 1) % config.iters_per_epoch == 0) {
                    EpochMetrics em;
                    em.epoch = epoch;
                    em.density = density;
                    // Average the per-rank epoch losses (one double via
                    // allgather; negligible traffic, after the timed phases).
                    double epoch_loss = 0.0;
                    const std::int64_t first =
                        static_cast<std::int64_t>(epoch) * config.iters_per_epoch;
                    for (std::int64_t s = first; s <= step; ++s) {
                        epoch_loss += step_loss[static_cast<std::size_t>(s)];
                    }
                    const double my_loss = epoch_loss / config.iters_per_epoch;
                    const std::vector<double> losses = collectives::allgather<double>(
                        comm, std::span<const double>(&my_loss, 1),
                        collectives::AllgatherAlgo::Ring);
                    double sum = 0;
                    for (double l : losses) sum += l;
                    em.train_loss = sum / static_cast<double>(losses.size());

                    if (eval_batch) {
                        nn::Batch eb = eval_batch();
                        if (eb.x.numel() > 0) {
                            em.val_loss = model->eval_loss(eb);
                            em.val_accuracy = model->eval_accuracy(eb);
                        }
                    }
                    // Slot-assign, not push: a rollback can replay an epoch
                    // boundary and must overwrite the stale entry.
                    if (out.epochs.size() <= static_cast<std::size_t>(epoch)) {
                        out.epochs.resize(static_cast<std::size_t>(epoch) + 1);
                    }
                    out.epochs[static_cast<std::size_t>(epoch)] = em;

                    if (config.check_invariants) {
                        // Replica consistency: all (surviving) ranks must
                        // hold identical params.
                        const std::vector<float> params = model->flat_params();
                        std::vector<float> sum_params = params;
                        collectives::allreduce_sum_ring(comm, sum_params);
                        for (std::size_t i = 0; i < params.size(); ++i) {
                            const float mean =
                                sum_params[i] / static_cast<float>(comm.size());
                            if (std::abs(mean - params[i]) >
                                1e-4f * (1.0f + std::abs(params[i]))) {
                                throw std::logic_error("replica divergence detected");
                            }
                        }
                    }
                }
                ++step;
            } catch (const comm::CommError& err) {
                if (!elastic) {
                    if (frec) {
                        frec->note_event("comm_error", rank, step, comm.epoch(),
                                         err.what());
                    }
                    throw;  // fail-fast: abort the whole run
                }
                if (err.kind() == comm::CommErrorKind::RankKilled ||
                    !config.membership->alive(rank)) {
                    // This rank is the casualty (a kill landing mid-wait
                    // surfaces as RecvTimeout, hence the alive() check).
                    // Exit CLEANLY: throwing would shut the cluster down
                    // under the survivors while they regroup. The fabric
                    // already reports the death to them.
                    if (frec) {
                        frec->note_event("rank_killed", rank, step, comm.epoch(),
                                         err.what());
                    }
                    killed = true;
                    util::log_info("rank " + std::to_string(rank) + " killed");
                    break;
                }
                // A peer stopped responding: regroup into the survivor
                // world, install the new epoch-stamped view, then roll back
                // and resync on the next loop entry.
                if (frec) {
                    frec->note_event("comm_error", rank, step, comm.epoch(),
                                     err.what());
                }
                obs::ScopedSpan regroup_span(config.tracer, comm.clock(), rank,
                                             "regroup", "train");
                regroup_span.attrs().round = static_cast<int>(step);
                const comm::MembershipView view = config.membership->regroup(rank);
                comm.set_view(view.members, view.epoch);
                regroup_span.finish();
                ++out.regroups;
                need_resync = true;
                if (frec) {
                    frec->note_membership(view.epoch, view.members, rank, step);
                    frec->note_event("regroup", rank, step, view.epoch,
                                     "survivor world of " +
                                         std::to_string(view.members.size()));
                }
                util::log_info("rank " + std::to_string(rank) +
                               ": regrouped into epoch " + std::to_string(view.epoch) +
                               " with " + std::to_string(view.members.size()) +
                               " member(s)");
            }
        }

        if (total_iters > 0) {
            out.mean_compute_s = total_compute / static_cast<double>(total_iters);
            out.mean_compress_s = total_compress / static_cast<double>(total_iters);
            out.mean_comm_virtual_s = total_comm / static_cast<double>(total_iters);
        }
        if (!killed) {
            out.completed = true;
            out.final_params = model->flat_params();
            out.final_epoch = elastic ? config.membership->epoch(rank) : 0;
        }
        final_stats[static_cast<std::size_t>(rank)] = comm.stats();
    };

    // The flight recorder's span-reading dump must come from this driver
    // thread after the cluster joined (TSan contract in flight_recorder.hpp):
    // on an aborted run as the exception unwinds, on a survived run once all
    // workers returned.
    obs::FlightRecorder* const frec =
        config.telemetry ? config.telemetry->flight_recorder() : nullptr;
    try {
        if (config.transport) {
            if (config.transport->world_size() != world_size) {
                throw std::invalid_argument(
                    "train_distributed: transport world_size mismatch");
            }
            if (config.local_rank >= 0) {
                // Multi-process deployment: this process drives exactly one
                // rank; its peers run the same code elsewhere.
                comm::Cluster::run_local(*config.transport, config.local_rank,
                                         net, worker, config.tracer,
                                         config.recv_timeout_s);
            } else {
                comm::Cluster::run_on(*config.transport, net, worker,
                                      config.tracer, config.recv_timeout_s);
            }
        } else {
            comm::Cluster::run(world_size, net, worker, config.tracer,
                               config.recv_timeout_s);
        }
    } catch (...) {
        if (frec) frec->dump("aborted", config.tracer);
        throw;
    }
    if (frec && frec->triggered()) frec->dump("recovered", config.tracer);

    // The lead replica is the lowest rank that FINISHED training — physical
    // rank 0 unless an elastic run lost it. In local_rank mode only the
    // local slot can be populated; every other rank reports from its own
    // process.
    int lead = -1;
    for (int r = 0; r < world_size; ++r) {
        if (outputs[static_cast<std::size_t>(r)].completed) {
            lead = r;
            break;
        }
    }
    if (lead < 0) {
        if (config.local_rank >= 0 && config.membership) {
            // Multi-process elastic run and the LOCAL rank was the casualty:
            // its clean exit is the whole story for this process, so
            // surface the typed death the worker's exit contract maps onto
            // rather than a generic abort.
            throw comm::CommError(comm::CommErrorKind::RankKilled,
                                  config.local_rank, comm::kAnySource,
                                  comm::kAnyTag, 0.0);
        }
        throw std::runtime_error("train_distributed: no rank completed training");
    }

    TrainResult result;
    const RankOutput& lo = outputs[static_cast<std::size_t>(lead)];
    result.epochs = lo.epochs;
    result.mean_compute_s = lo.mean_compute_s;
    result.mean_compress_s = lo.mean_compress_s;
    result.mean_comm_virtual_s = lo.mean_comm_virtual_s;
    result.rank0_comm = final_stats[static_cast<std::size_t>(lead)];
    if (config.tracer) {
        result.rank0_traced_phases =
            obs::summarize_train_phases(*config.tracer, lead);
    }
    result.final_membership_epoch = lo.final_epoch;
    result.regroups = lo.regroups;
    for (int r = 0; r < world_size; ++r) {
        RankOutput& ro = outputs[static_cast<std::size_t>(r)];
        if (!ro.completed) continue;
        result.final_members.push_back(r);
        result.survivor_params.push_back(std::move(ro.final_params));
    }
    result.final_params = result.survivor_params.front();
    return result;
}

}  // namespace gtopk::train
