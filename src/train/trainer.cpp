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
#include "sparse/topk_merge.hpp"
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

/// Line 10 of Algorithm 4: add back into `residual` every locally-selected
/// entry whose index did not survive the global selection.
void return_unselected(std::vector<float>& residual, const SparseGradient& local,
                       const SparseGradient& global) {
    std::size_t gi = 0;
    for (std::size_t li = 0; li < local.nnz(); ++li) {
        const std::int32_t idx = local.indices[li];
        while (gi < global.nnz() && global.indices[gi] < idx) ++gi;
        const bool selected = gi < global.nnz() && global.indices[gi] == idx;
        if (!selected) {
            residual[static_cast<std::size_t>(idx)] += local.values[li];
        }
    }
}

void check_error_feedback(const std::vector<float>& accumulated,
                          const std::vector<float>& residual,
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
         config.algorithm == Algorithm::DenseSsgd)) {
        throw std::invalid_argument(
            "threshold selection policies require a gTop-k family algorithm");
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
        // regroup over the wire (leader-driven JOIN/VIEW frames) when the
        // transport is not a shared-memory fabric.
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
        // top-k selection temporaries and the aggregator's merge/wire
        // buffers stop allocating after the first iteration.
        sparse::TopkWorkspace select_ws;
        core::GtopkWorkspace agg_ws;
        const core::GtopkOptions agg_opts{.workspace = &agg_ws};
        SparseGradient local;
        std::vector<SparseGradient> seg_locals;  // layer-wise only
        // The gTop-k family's dense mean update, reused across steps: the
        // global selection is scattered into it (recording the support) and
        // the support is re-zeroed before the next scatter, so a step pays
        // O(k) here instead of an O(m) allocation and fill. Even a step cut
        // short by a CommError leaves its support recorded for the re-zero.
        const bool sparse_global =
            config.algorithm != Algorithm::DenseSsgd &&
            config.algorithm != Algorithm::TopkSsgd;
        std::vector<float> mean_update(sparse_global ? m : 0, 0.0f);
        std::vector<std::size_t> mean_support;
        // check_invariants only: the accumulated gradient before selection.
        std::vector<float> accumulated;
        util::Xoshiro256 sample_rng =
            util::Xoshiro256(config.model_seed).fork(0x5A00 + static_cast<std::uint64_t>(rank));

        // Parameter-tensor segmentation for the layer-wise variant, fused
        // into communication buckets (identity per-tensor buckets unless
        // config.bucket_bytes asks for fusion) with their backward-ready
        // fractions — the shared "ready time" definition the overlap model
        // also consumes (train/bucketer.hpp).
        std::vector<std::size_t> seg_offsets{0};
        for (const auto& p : model->params()) {
            seg_offsets.push_back(seg_offsets.back() + p.value->size());
        }
        const std::vector<GradBucket> buckets =
            fuse_buckets(seg_offsets, config.bucket_bytes);
        const std::vector<double> bucket_ready = bucket_ready_fractions(buckets, m);

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
                if (elastic) {
                    config.membership->tick(rank);
                    if (ckpts.due(step)) {
                        ckpts.save({step, model->flat_params(), velocity, residual});
                    }
                }

                const int epoch = static_cast<int>(step / config.iters_per_epoch);
                const bool warm =
                    epoch < static_cast<int>(config.warmup_densities.size());
                const double density =
                    warm ? config.warmup_densities[static_cast<std::size_t>(epoch)]
                         : config.density;
                const float lr =
                    warm ? config.lr * config.warmup_lr_scale : config.lr;
                const std::size_t k = std::max<std::size_t>(
                    1, static_cast<std::size_t>(
                           std::llround(density * static_cast<double>(m))));
                // Threshold policies have no well-defined global k; the tree
                // then runs untruncated (a pure sparse sum-allreduce) and the
                // thresholding alone provides the sparsity.
                const std::size_t agg_k =
                    config.selection == sparse::SelectionPolicy::ExactTopk ? k : m;

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
                const double loss = model->train_step_gradients(batch);
                step_loss[static_cast<std::size_t>(step)] = loss;
                // DGC-style local gradient clipping (scale to the L2 ball),
                // in place on the model's gradient buffers.
                if (config.gradient_clip_norm > 0.0f) {
                    double norm_sq = 0.0;
                    for (const nn::ParamView& p : model->params()) {
                        for (float g : *p.grad) norm_sq += static_cast<double>(g) * g;
                    }
                    const double norm = std::sqrt(norm_sq);
                    if (norm > config.gradient_clip_norm) {
                        const float scale =
                            config.gradient_clip_norm / static_cast<float>(norm);
                        for (const nn::ParamView& p : model->params()) {
                            for (float& g : *p.grad) g *= scale;
                        }
                    }
                }
                std::vector<float> dense_grad;  // DenseSsgd only
                if (config.algorithm == Algorithm::DenseSsgd) {
                    dense_grad = model->flat_grads();
                } else if (local_momentum) {
                    // DGC momentum correction: momentum is folded into the
                    // LOCAL stream before residual accumulation.
                    for (float& v : velocity) v *= config.momentum;
                    model->accumulate_grads_into(velocity);
                    for (std::size_t i = 0; i < m; ++i) residual[i] += velocity[i];
                } else {
                    // Accumulate the residual in place (Alg. 4 line 4);
                    // selection then reads G straight from `residual`.
                    model->accumulate_grads_into(residual);
                }
                compute_span.finish();
                const double t1 = now_host_s();

                // --- compress phase (host-timed) ---
                obs::ScopedSpan select_span(config.tracer, comm.clock(), rank,
                                            "select", "train");
                select_span.attrs().round = static_cast<int>(step);
                if (config.algorithm == Algorithm::LayerwiseGtopkSsgd) {
                    seg_locals.resize(buckets.size());
                    for (std::size_t b = 0; b < buckets.size(); ++b) {
                        const std::span<float> seg(residual.data() + buckets[b].begin,
                                                   buckets[b].size());
                        const std::size_t k_seg = std::max<std::size_t>(
                            1, static_cast<std::size_t>(std::llround(
                                   density * static_cast<double>(seg.size()))));
                        sparse::topk_select_into(seg, k_seg, select_ws, seg_locals[b]);
                        sparse::zero_selected(seg, seg_locals[b]);
                    }
                } else if (config.algorithm != Algorithm::DenseSsgd) {
                    if (config.check_invariants) {
                        accumulated.assign(residual.begin(), residual.end());
                    }
                    switch (config.selection) {
                        case sparse::SelectionPolicy::ExactTopk:
                            sparse::topk_select_into(residual, k, select_ws, local);
                            break;
                        case sparse::SelectionPolicy::StaticThreshold:
                            local = sparse::threshold_select(residual,
                                                             config.static_threshold);
                            break;
                        case sparse::SelectionPolicy::AdaptiveThreshold:
                            local = adaptive.select(residual);
                            break;
                        case sparse::SelectionPolicy::SampledTopk:
                            local = sparse::sampled_topk_select(residual, k, sample_rng);
                            break;
                    }
                    sparse::zero_selected(residual, local);
                    if (config.check_invariants) {
                        check_error_feedback(accumulated, residual, local);
                    }
                    // Combined sparsification + quantization: ship lossy
                    // values, feed the quantization error back into the
                    // residual so no gradient mass is lost.
                    if (config.value_quantizer != quant::Scheme::None) {
                        const std::vector<float> lossy =
                            quant::quantize_dequantize(local.values,
                                                       config.value_quantizer);
                        for (std::size_t i = 0; i < local.nnz(); ++i) {
                            residual[static_cast<std::size_t>(local.indices[i])] +=
                                local.values[i] - lossy[i];
                        }
                        local.values = lossy;
                    }
                }
                select_span.attrs().nnz = static_cast<std::int64_t>(local.nnz());
                select_span.finish();
                const double t2 = now_host_s();

                // --- communication phase (virtual-timed) ---
                // CommStats snapped tightly around the aggregation so the
                // telemetry wire deltas exclude epoch-boundary loss
                // allgathers and the telemetry exchange itself.
                const comm::CommStats agg_pre = comm.stats();
                const double v0 = comm.clock().now_s();
                obs::ScopedSpan agg_span(config.tracer, comm.clock(), rank,
                                         "aggregate", "train");
                agg_span.attrs().round = static_cast<int>(step);
                agg_span.attrs().nnz = static_cast<std::int64_t>(local.nnz());
                const float inv = 1.0f / static_cast<float>(comm.size());
                for (const std::size_t i : mean_support) mean_update[i] = 0.0f;
                mean_support.clear();
                auto scatter_mean = [&](std::size_t off, const SparseGradient& global) {
                    for (std::size_t j = 0; j < global.nnz(); ++j) {
                        const std::size_t i =
                            off + static_cast<std::size_t>(global.indices[j]);
                        mean_update[i] = global.values[j] * inv;
                        mean_support.push_back(i);
                    }
                };
                std::vector<float> dense_update;  // DenseSsgd / TopkSsgd
                switch (config.algorithm) {
                    case Algorithm::DenseSsgd:
                        dense_update = core::dense_allreduce(comm, dense_grad);
                        for (float& u : dense_update) u *= inv;
                        break;
                    case Algorithm::TopkSsgd:
                        dense_update = core::topk_allreduce(comm, local);
                        for (float& u : dense_update) u *= inv;
                        break;
                    case Algorithm::LayerwiseGtopkSsgd: {
                        // One independent gTop-k per bucket; the put-back
                        // (line 10) works in bucket-local coordinates,
                        // shifted into the flat residual. The overlap path
                        // runs the SAME per-bucket collectives as async
                        // handles, issued in backward (gradient-ready)
                        // order and drained front-first — only virtual
                        // scheduling changes, never the math, so params are
                        // bit-identical with overlap on or off.
                        const double agg_v_start = comm.clock().now_s();
                        std::vector<std::unique_ptr<core::AsyncGtopkAllreduce>>
                            handles;
                        if (config.overlap) {
                            handles.resize(seg_locals.size());
                            for (std::size_t i = seg_locals.size(); i-- > 0;) {
                                // Gradient-ready injection: the bucket's
                                // collective may not start before backward
                                // has produced its gradients.
                                if (config.overlap_backward_s > 0.0) {
                                    comm.clock().advance_to(
                                        agg_v_start +
                                        bucket_ready[i] *
                                            config.overlap_backward_s);
                                }
                                handles[i] =
                                    std::make_unique<core::AsyncGtopkAllreduce>(
                                        comm, seg_locals[i], seg_locals[i].nnz(),
                                        &agg_ws.merge);
                                handles[i]->set_priority(buckets[i].priority);
                                handles[i]->start();
                            }
                            if (config.overlap_backward_s > 0.0) {
                                comm.clock().advance_to(
                                    agg_v_start + config.overlap_backward_s);
                            }
                        } else if (config.overlap_backward_s > 0.0) {
                            // Same modeled backward charge, fully serialized
                            // ahead of the communication — the overlap-off
                            // baseline the benches compare against.
                            comm.clock().advance(config.overlap_backward_s);
                        }
                        for (std::size_t s = 0; s < seg_locals.size(); ++s) {
                            const std::size_t off = buckets[s].begin;
                            const SparseGradient& seg_local = seg_locals[s];
                            core::GtopkResult res;
                            if (config.overlap) {
                                handles[s]->wait();
                            } else {
                                res = core::gtopk_allreduce(
                                    comm, seg_local, seg_local.nnz(), agg_opts);
                            }
                            const SparseGradient& global = config.overlap
                                                               ? handles[s]->result()
                                                               : res.global;
                            std::size_t gi = 0;
                            for (std::size_t li = 0; li < seg_local.nnz(); ++li) {
                                const std::int32_t idx = seg_local.indices[li];
                                while (gi < global.nnz() &&
                                       global.indices[gi] < idx) {
                                    ++gi;
                                }
                                const bool kept = gi < global.nnz() &&
                                                  global.indices[gi] == idx;
                                if (!kept) {
                                    residual[off + static_cast<std::size_t>(idx)] +=
                                        seg_local.values[li];
                                }
                            }
                            scatter_mean(off, global);
                        }
                        break;
                    }
                    case Algorithm::GtopkSsgd:
                    case Algorithm::NaiveGtopkSsgd:
                    case Algorithm::SelectKFromKP: {
                        core::GtopkResult res =
                            config.algorithm == Algorithm::NaiveGtopkSsgd
                                ? core::naive_gtopk_allreduce(comm, local, agg_k)
                                : core::gtopk_allreduce(comm, local, agg_k, agg_opts);
                        if (config.algorithm != Algorithm::SelectKFromKP) {
                            // Alg. 4 line 10.
                            return_unselected(residual, local, res.global);
                        }
                        scatter_mean(0, res.global);
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
                const std::span<const float> update =
                    sparse_global ? std::span<const float>(mean_update) : dense_update;
                if (local_momentum) {
                    model->axpy_params(-lr, update);
                } else {
                    for (std::size_t i = 0; i < m; ++i) {
                        velocity[i] = config.momentum * velocity[i] + update[i];
                    }
                    model->axpy_params(-lr, velocity);
                }
                update_span.finish();
                const double u1 = now_host_s();

                total_compute += t1 - t0;
                total_compress += t2 - t1;
                total_comm += v1 - v0;
                ++total_iters;

                // --- telemetry exchange (absolute-tag band, so the SPMD
                // fresh-tag cursor and hence the trajectory are untouched).
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
                    if (config.algorithm == Algorithm::LayerwiseGtopkSsgd) {
                        st.nnz = 0;
                        for (const SparseGradient& sl : seg_locals) {
                            st.nnz += static_cast<std::int64_t>(sl.nnz());
                        }
                    } else if (config.algorithm != Algorithm::DenseSsgd) {
                        st.nnz = static_cast<std::int64_t>(local.nnz());
                    }
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
                    const std::int64_t ki = static_cast<std::int64_t>(k);
                    const bool exact =
                        config.selection == sparse::SelectionPolicy::ExactTopk;
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
                    // under the survivors while they regroup.
                    if (frec) {
                        frec->note_event("rank_killed", rank, step, comm.epoch(),
                                         err.what());
                    }
                    config.membership->leave(rank);
                    killed = true;
                    util::log_info("rank " + std::to_string(rank) +
                                   " killed; leaving membership");
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
            out.final_epoch = elastic ? config.membership->epoch() : 0;
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
            // its clean leave() is the whole story for this process, so
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
