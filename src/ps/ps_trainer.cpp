#include "ps/ps_trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "collectives/collectives.hpp"
#include "obs/telemetry.hpp"
#include "ps/ps_schedule.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "train/bucketer.hpp"

namespace gtopk::ps {

namespace {

using collectives::CommOp;
using comm::Communicator;
namespace detail = collectives::detail;
using sparse::SparseGradient;

double now_host_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Per-epoch schedule shared by server and workers (must agree).
struct EpochPlan {
    double density;
    float lr;
    std::size_t k;
};

EpochPlan plan_epoch(const PsTrainConfig& config, int epoch, std::size_t m) {
    const bool warm = epoch < static_cast<int>(config.warmup_densities.size());
    EpochPlan plan;
    plan.density = warm ? config.warmup_densities[static_cast<std::size_t>(epoch)]
                        : config.density;
    plan.lr = warm ? config.lr * config.warmup_lr_scale : config.lr;
    plan.k = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(plan.density * static_cast<double>(m))));
    return plan;
}

void scatter_mean(const sparse::SparseGradientView& g, int workers,
                  std::vector<float>& out) {
    std::fill(out.begin(), out.end(), 0.0f);
    const float inv = 1.0f / static_cast<float>(workers);
    for (std::size_t i = 0; i < g.nnz(); ++i) {
        out[static_cast<std::size_t>(g.indices[i])] = g.values[i] * inv;
    }
}

}  // namespace

train::TrainResult train_parameter_server(int workers, comm::NetworkModel net,
                                          const PsTrainConfig& config,
                                          const train::ModelFactory& factory,
                                          const train::TrainBatchProvider& batches,
                                          const train::EvalBatchProvider& eval) {
    if (workers < 1) throw std::invalid_argument("need at least one worker");
    const int world = workers + 1;

    std::vector<train::EpochMetrics> epochs_out;
    train::TrainResult result;
    double total_compute = 0, total_compress = 0, total_comm = 0;
    std::int64_t worker0_iters = 0;

    auto node = [&](Communicator& comm) {
        const bool is_server = comm.rank() == 0;
        const int wid = comm.rank() - 1;  // worker id for providers

        std::unique_ptr<nn::TrainableModel> model = factory(config.model_seed);
        const std::size_t m = model->num_params();
        std::vector<float> residual(m, 0.0f);
        std::vector<float> velocity(m, 0.0f);
        std::vector<float> update(m, 0.0f);
        // Reused hot-path scratch (see DESIGN.md §9): selection workspace on
        // workers, merge scratch + wire buffer on the server.
        sparse::TopkWorkspace select_ws;
        const train::GradBucket whole{.begin = 0, .end = m};
        sparse::MergeScratch merge_scratch;
        std::vector<std::byte> wire;

        // The iteration exchange executes this op program as one
        // absolute-tag handle per iteration (peers and tags come exclusively
        // from the generator, which src/analysis verifies). Dense payloads
        // are m floats both ways; sparse payloads are data-dependent, so the
        // schedule marks them variable. The handle reads only this rank's
        // program, so the others are dropped from the copy it gets.
        const bool dense_agg = config.aggregation == PsAggregation::Dense;
        const std::int64_t dense_bytes =
            static_cast<std::int64_t>(m) * static_cast<std::int64_t>(sizeof(float));
        collectives::Schedule iter_sched = ps_iteration_schedule(
            workers, dense_agg ? dense_bytes : collectives::kVariableBytes,
            dense_agg ? dense_bytes : collectives::kVariableBytes);
        for (int r = 0; r < world; ++r) {
            if (r != comm.rank()) iter_sched.ranks[static_cast<std::size_t>(r)].clear();
        }

        std::int64_t step = 0;
        for (int epoch = 0; epoch < config.epochs; ++epoch) {
            const EpochPlan plan = plan_epoch(config, epoch, m);
            double epoch_loss = 0.0;

            // Attribution join key for the star exchange: dense payloads are
            // m floats each way, sparse ones a fixed-k wire block.
            obs::CollectiveSpec spec;
            spec.proto = "ps.iteration";
            spec.m = static_cast<std::int64_t>(m);
            if (dense_agg) {
                spec.elems = static_cast<std::int64_t>(m);
                spec.elem_bytes = 4;
            } else {
                spec.elems =
                    static_cast<std::int64_t>(sparse::wire_size_bytes(plan.k));
                spec.elem_bytes = 1;
                spec.k = static_cast<std::int64_t>(plan.k);
            }
            auto exchange_telemetry = [&](double compute_s, double select_s,
                                          double comm_s, double update_s,
                                          std::int64_t nnz,
                                          const comm::CommStats& pre) {
                if (!config.telemetry) return;
                obs::RankIterStats st;
                st.step = step;
                st.compute_host_s = compute_s;
                st.compress_host_s = select_s;
                st.comm_virtual_s = comm_s;
                st.update_host_s = update_s;
                st.nnz = nnz;
                const comm::CommStats post = comm.stats();
                st.wire_bytes_sent =
                    static_cast<std::int64_t>(post.bytes_sent - pre.bytes_sent);
                st.wire_bytes_received = static_cast<std::int64_t>(
                    post.bytes_received - pre.bytes_received);
                st.messages_sent = static_cast<std::int64_t>(
                    post.messages_sent - pre.messages_sent);
                st.messages_received = static_cast<std::int64_t>(
                    post.messages_received - pre.messages_received);
                st.mailbox_depth = static_cast<std::int64_t>(comm.mailbox_depth());
                config.telemetry->exchange(comm, st, &spec);
            };

            for (int it = 0; it < config.iters_per_epoch; ++it, ++step) {
                if (is_server) {
                    const comm::CommStats server_pre = comm.stats();
                    const double sv0 = comm.clock().now_s();
                    // ---- server: receive, aggregate, answer ----
                    // Phase 0 ops are the per-worker pushes, landed in
                    // ascending worker order; the first phase-1 Send marks
                    // aggregation complete.
                    if (dense_agg) {
                        std::vector<float> sum(m, 0.0f);
                        const std::span<float> acc(sum);
                        detail::run(comm, iter_sched,
                            [acc](const CommOp&) {
                                return std::as_bytes(std::span<const float>(acc));
                            },
                            [acc](const CommOp&, std::span<const std::byte> bytes) {
                                detail::check_size(acc, bytes, "ps.iteration");
                                detail::add_into(acc, bytes);
                            });
                    } else {
                        SparseGradient sum;
                        sum.dense_size = static_cast<std::int64_t>(m);
                        bool aggregated = false;
                        detail::run(comm, iter_sched,
                            [&](const CommOp&) {
                                if (!aggregated) {
                                    const SparseGradient global =
                                        sparse::sparse_topk(sum, plan.k);
                                    sparse::serialize_into(global, wire);
                                    aggregated = true;
                                }
                                return std::span<const std::byte>(wire);
                            },
                            [&](const CommOp&, std::span<const std::byte> bytes) {
                                // Validate-once view straight off the pooled
                                // wire bytes; k = m makes the merge a pure
                                // sparse sum (merged nnz can never exceed m).
                                const sparse::SparseGradientView v =
                                    sparse::deserialize_view(bytes);
                                sparse::topk_merge_into(sum, v.dense_size, v.indices,
                                                        v.values, m, merge_scratch);
                            });
                    }
                    exchange_telemetry(0.0, 0.0, comm.clock().now_s() - sv0,
                                       0.0, -1, server_pre);
                    continue;
                }

                // ---- worker ----
                const double t0 = now_host_s();
                nn::Batch batch = batches(step, wid);
                // Dense pushes the raw gradient straight from the model's
                // arena; gTop-k folds it into the residual while backward
                // produces it (Alg. 4 line 4), counting the top-k histogram
                // on the way like the trainer's whole-model bucket, and
                // selects from it.
                const std::span<const float> grads = model->grads();
                if (dense_agg) {
                    epoch_loss += model->train_step_gradients(batch);
                } else {
                    train::ResidualFold fold(residual, {&whole, 1}, {&select_ws, 1});
                    fold.begin();
                    epoch_loss += model->train_step_fold(batch, fold);
                }
                const double t1 = now_host_s();

                SparseGradient local;
                if (!dense_agg) {
                    sparse::topk_select_counted(residual, plan.k, select_ws, local);
                    sparse::zero_selected(residual, local);
                }
                const double t2 = now_host_s();

                const comm::CommStats worker_pre = comm.stats();
                const double v0 = comm.clock().now_s();
                if (dense_agg) {
                    detail::run(comm, iter_sched,
                        [grads](const CommOp&) { return std::as_bytes(grads); },
                        [&update, workers](const CommOp&,
                                           std::span<const std::byte> bytes) {
                            detail::check_size(std::span<float>(update), bytes,
                                               "ps.iteration");
                            const float inv = 1.0f / static_cast<float>(workers);
                            for (std::size_t i = 0; i < update.size(); ++i) {
                                float sum;
                                std::memcpy(&sum, bytes.data() + i * sizeof(float),
                                            sizeof(float));
                                update[i] = sum * inv;
                            }
                        });
                } else {
                    detail::run(comm, iter_sched,
                        [&](const CommOp&) {
                            // Push via a pooled buffer the handle moves.
                            std::vector<std::byte> push = comm.buffer_pool().acquire(
                                sparse::wire_size_bytes(local.nnz()));
                            sparse::serialize_into(local, push);
                            return push;
                        },
                        [&](const CommOp&, std::span<const std::byte> bytes) {
                            // Pull as a zero-copy view over the wire bytes.
                            const sparse::SparseGradientView global =
                                sparse::deserialize_view(bytes);
                            // Alg. 4 line 10: return locally-sent entries that
                            // did not survive the global selection.
                            sparse::return_unselected(residual, local, global.indices);
                            scatter_mean(global, workers, update);
                        });
                }
                const double v1 = comm.clock().now_s();

                const double u0 = now_host_s();
                model->momentum_axpy_params(config.momentum, velocity, update, -plan.lr);
                const double u1 = now_host_s();
                exchange_telemetry(
                    t1 - t0, t2 - t1, v1 - v0, u1 - u0,
                    dense_agg ? -1 : static_cast<std::int64_t>(local.nnz()),
                    worker_pre);

                if (wid == 0) {
                    total_compute += t1 - t0;
                    total_compress += t2 - t1;
                    total_comm += v1 - v0;
                    ++worker0_iters;
                }
            }

            if (!is_server) {
                train::EpochMetrics em;
                em.epoch = epoch;
                em.density = plan.density;
                em.train_loss = epoch_loss / config.iters_per_epoch;
                if (eval) {
                    nn::Batch eb = eval();
                    if (eb.x.numel() > 0) {
                        em.val_loss = model->eval_loss(eb);
                        em.val_accuracy = model->eval_accuracy(eb);
                    }
                }
                if (wid == 0) epochs_out.push_back(em);
            }
        }

        if (!is_server && wid == 0) {
            result.final_params = model->flat_params();
            result.rank0_comm = comm.stats();  // worker 0's link stats
        }
    };

    comm::Cluster::run(world, net, node);

    result.epochs = std::move(epochs_out);
    if (worker0_iters > 0) {
        result.mean_compute_s = total_compute / static_cast<double>(worker0_iters);
        result.mean_compress_s = total_compress / static_cast<double>(worker0_iters);
        result.mean_comm_virtual_s = total_comm / static_cast<double>(worker0_iters);
    }
    return result;
}

}  // namespace gtopk::ps
