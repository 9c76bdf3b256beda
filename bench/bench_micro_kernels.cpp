// google-benchmark microbenches for the hot kernels: top-k selection
// strategies, the ⊤ merge, wire (de)serialization, host-side costs of
// the aggregation algorithms on a small cluster, the Conv2d / Linear
// layers at the perfbench workloads' shapes, and the trainer's per-step
// O(m) passes (residual accumulate + top-k select, backward folded into the
// residual, momentum update) on mlp_wide_gtopk's parameter tensors.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>

#include "comm/cluster.hpp"
#include "comm/fault_transport.hpp"
#include "core/aggregators.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/sequential.hpp"
#include "sparse/selection_policy.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;

std::vector<float> random_dense(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> v(m);
    for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
    return v;
}

void BM_TopkSelect(benchmark::State& state, sparse::TopkStrategy strategy) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::topk_select(dense, k, strategy));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK_CAPTURE(BM_TopkSelect, nth_element, sparse::TopkStrategy::NthElement)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_TopkSelect, heap, sparse::TopkStrategy::Heap)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_TopkSelect, full_sort, sparse::TopkStrategy::FullSort)
    ->Arg(100'000)
    ->Arg(1'000'000);

void BM_TopkSelectWorkspace(benchmark::State& state) {
    // Workspace-reusing histogram-cut selection (identical results to the
    // one-shot BM_TopkSelect/nth_element).
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    for (auto _ : state) {
        sparse::topk_select_into(dense, k, ws, out);
        benchmark::DoNotOptimize(out.indices.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_TopkSelectWorkspace)
    ->Arg(100'000)
    ->Arg(1'000'000);

void BM_SampledTopkSelect(benchmark::State& state) {
    // The DGC-style sampling estimate — compare against BM_TopkSelect to
    // see the practical answer to the paper's Sec. IV-E complaint that
    // exact selection is expensive.
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    gtopk::util::Xoshiro256 rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gtopk::sparse::sampled_topk_select(dense, k, rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SampledTopkSelect)->Arg(100'000)->Arg(1'000'000);

void BM_TopkMerge(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto a = sparse::topk_select(random_dense(100 * k, 2), k);
    const auto b = sparse::topk_select(random_dense(100 * k, 3), k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::topk_merge(a, b, k));
    }
}
BENCHMARK(BM_TopkMerge)->Arg(1000)->Arg(25'000);

void BM_WireRoundTrip(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto g = sparse::topk_select(random_dense(100 * k, 4), k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::deserialize(sparse::serialize(g)));
    }
}
BENCHMARK(BM_WireRoundTrip)->Arg(1000)->Arg(25'000);

void BM_TopkMergeInto(benchmark::State& state) {
    // In-place ⊤ merge with reused scratch — compare against BM_TopkMerge's
    // allocate-add-reselect chain.
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto a = sparse::topk_select(random_dense(100 * k, 2), k);
    const auto b = sparse::topk_select(random_dense(100 * k, 3), k);
    sparse::MergeScratch scratch;
    sparse::SparseGradient acc;
    for (auto _ : state) {
        acc = a;
        sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
        benchmark::DoNotOptimize(acc.indices.data());
    }
}
// 492 and 2629: the k of layerwise_tcp's tensors' merges.
BENCHMARK(BM_TopkMergeInto)->Arg(492)->Arg(1000)->Arg(2629)->Arg(25'000);

void BM_WireRoundTripPooled(benchmark::State& state) {
    // serialize_into a reused buffer + zero-copy view — compare against
    // BM_WireRoundTrip's owning serialize/deserialize pair.
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto g = sparse::topk_select(random_dense(100 * k, 4), k);
    std::vector<std::byte> buf;
    for (auto _ : state) {
        sparse::serialize_into(g, buf);
        const sparse::SparseGradientView v = sparse::deserialize_view(buf);
        benchmark::DoNotOptimize(v.values.data());
    }
}
BENCHMARK(BM_WireRoundTripPooled)->Arg(1000)->Arg(25'000);

void BM_GtopkAllreduceHostCost(benchmark::State& state) {
    // Host-side (wall clock) cost of the full tree aggregation on a small
    // in-process cluster — measures our implementation overhead, not the
    // modeled network.
    const int world = static_cast<int>(state.range(0));
    const std::size_t k = 1000;
    for (auto _ : state) {
        comm::Cluster::run(world, comm::NetworkModel::free(),
                           [&](comm::Communicator& comm) {
                               const auto local = sparse::topk_select(
                                   random_dense(50'000, static_cast<std::uint64_t>(
                                                            comm.rank() + 10)),
                                   k);
                               benchmark::DoNotOptimize(
                                   core::gtopk_allreduce(comm, local, k));
                           });
    }
}
BENCHMARK(BM_GtopkAllreduceHostCost)->Arg(2)->Arg(4)->Arg(8);

void BM_GtopkAllreduceFaultTransport(benchmark::State& state) {
    // Same aggregation as BM_GtopkAllreduceHostCost but through a
    // FaultInjectingTransport with an EMPTY plan: the delta against the
    // plain run is the decorator's pure passthrough overhead (per-message
    // rule scan + counters), which must stay negligible so chaos tests run
    // at test-suite speed.
    const int world = static_cast<int>(state.range(0));
    const std::size_t k = 1000;
    for (auto _ : state) {
        comm::FaultInjectingTransport transport(world, comm::FaultPlan{});
        comm::Cluster::run_on(transport, comm::NetworkModel::free(),
                              [&](comm::Communicator& comm) {
                                  const auto local = sparse::topk_select(
                                      random_dense(50'000,
                                                   static_cast<std::uint64_t>(
                                                       comm.rank() + 10)),
                                      k);
                                  benchmark::DoNotOptimize(
                                      core::gtopk_allreduce(comm, local, k));
                              });
    }
}
BENCHMARK(BM_GtopkAllreduceFaultTransport)->Arg(2)->Arg(4)->Arg(8);

void BM_RingAllreduceHostCost(benchmark::State& state) {
    const int world = static_cast<int>(state.range(0));
    for (auto _ : state) {
        comm::Cluster::run(world, comm::NetworkModel::free(),
                           [&](comm::Communicator& comm) {
                               auto data = random_dense(
                                   50'000, static_cast<std::uint64_t>(comm.rank()));
                               collectives::allreduce_sum_ring(comm, data);
                               benchmark::DoNotOptimize(data.data());
                           });
    }
}
BENCHMARK(BM_RingAllreduceHostCost)->Arg(2)->Arg(4)->Arg(8);

nn::Tensor random_tensor(std::vector<std::int64_t> shape, std::uint64_t seed) {
    nn::Tensor t(std::move(shape));
    const auto v = random_dense(static_cast<std::size_t>(t.numel()), seed);
    std::copy(v.begin(), v.end(), t.raw());
    return t;
}

// Conv2d args: in_channels, out_channels, batch; 3x3, stride 1, padding 1 on
// 16x16 images, as in resnet_gtopk's MiniResNet (3->16 stem, 16->16 blocks).
void BM_Conv2dForward(benchmark::State& state) {
    util::Xoshiro256 rng(1);
    nn::Conv2d layer(state.range(0), state.range(1), 3, 1, 1);
    const nn::ParamArena layer_params = nn::bind_params(layer, rng);
    const nn::Tensor x = random_tensor({state.range(2), state.range(0), 16, 16}, 2);
    for (auto _ : state) {
        nn::Tensor y = layer.forward(x, true);
        benchmark::DoNotOptimize(y.raw());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Conv2dForward)->Args({3, 16, 4})->Args({16, 16, 4})->Unit(benchmark::kMicrosecond);

void BM_Conv2dBackward(benchmark::State& state) {
    util::Xoshiro256 rng(1);
    nn::Conv2d layer(state.range(0), state.range(1), 3, 1, 1);
    const nn::ParamArena layer_params = nn::bind_params(layer, rng);
    const nn::Tensor x = random_tensor({state.range(2), state.range(0), 16, 16}, 2);
    const nn::Tensor dy = random_tensor({state.range(2), state.range(1), 16, 16}, 3);
    layer.forward(x, true);
    for (auto _ : state) {
        nn::Tensor dx = layer.backward(dy);
        benchmark::DoNotOptimize(dx.raw());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Conv2dBackward)->Args({3, 16, 4})->Args({16, 16, 4})->Unit(benchmark::kMicrosecond);

// Linear args: in, out, batch; mlp_wide_gtopk's 768->2048->512->10 at batch
// 4, resnet_gtopk's 1024->10 head, layerwise_tcp's 64->64 at batch 2.
void BM_LinearForward(benchmark::State& state) {
    util::Xoshiro256 rng(1);
    nn::Linear layer(state.range(0), state.range(1));
    const nn::ParamArena layer_params = nn::bind_params(layer, rng);
    const nn::Tensor x = random_tensor({state.range(2), state.range(0)}, 2);
    for (auto _ : state) {
        nn::Tensor y = layer.forward(x, true);
        benchmark::DoNotOptimize(y.raw());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LinearForward)
    ->Args({768, 2048, 4})
    ->Args({2048, 512, 4})
    ->Args({512, 10, 4})
    ->Args({1024, 10, 4})
    ->Args({64, 64, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_LinearBackward(benchmark::State& state) {
    util::Xoshiro256 rng(1);
    nn::Linear layer(state.range(0), state.range(1));
    const nn::ParamArena layer_params = nn::bind_params(layer, rng);
    const nn::Tensor x = random_tensor({state.range(2), state.range(0)}, 2);
    const nn::Tensor dy = random_tensor({state.range(2), state.range(1)}, 3);
    layer.forward(x, true);
    for (auto _ : state) {
        nn::Tensor dx = layer.backward(dy);
        benchmark::DoNotOptimize(dx.raw());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LinearBackward)
    ->Args({768, 2048, 4})
    ->Args({2048, 512, 4})
    ->Args({512, 10, 4})
    ->Args({1024, 10, 4})
    ->Args({64, 64, 2})
    ->Unit(benchmark::kMicrosecond);

// mlp_wide_gtopk's parameter and gradient arenas (MLP 768->2048->512->10):
// m = 2 629 130, and k = 2629 at rho = 0.001.
struct MlpWideParams {
    static constexpr std::size_t m =
        768 * 2048 + 2048 + 2048 * 512 + 512 + 512 * 10 + 10;
    std::vector<float> values, grads;

    explicit MlpWideParams(std::uint64_t seed)
        : values(random_dense(m, seed)), grads(random_dense(m, seed + 16)) {}
};

void BM_AccumulateCountSelect(benchmark::State& state) {
    // One gTop-k step's residual passes: residual += the gradient arena
    // while counting the histogram, then the exact top-k of the
    // residual and the zeroing of the selected entries (Alg. 4 lines 4-8).
    // Every iteration starts from the same carried-over residual, restored
    // untimed: adding one fixed gradient step after step would pile the
    // residual up along it and bloat the cut bin far beyond k.
    const MlpWideParams p(7);
    const std::size_t k = 2629;
    const std::vector<float> carried = random_dense(p.m, 8);
    std::vector<float> residual(p.m);
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    for (auto _ : state) {
        state.PauseTiming();
        std::copy(carried.begin(), carried.end(), residual.begin());
        state.ResumeTiming();
        sparse::begin_count(ws, p.m);
        sparse::accumulate_counted(residual, 0, p.grads, ws);
        sparse::topk_select_counted(residual, k, ws, out);
        sparse::zero_selected(residual, out);
        benchmark::DoNotOptimize(out.indices.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(p.m));
}
BENCHMARK(BM_AccumulateCountSelect)->Unit(benchmark::kMillisecond);

/// Adds each folded range into a residual the size of the gradient arena,
/// counting it for the top-k: the trainer's sink for one whole-model bucket.
class CountedResidualSink final : public nn::GradSink {
public:
    CountedResidualSink(std::span<float> residual, sparse::TopkWorkspace& ws)
        : residual_(residual), ws_(ws) {}
    void fold(std::size_t at, std::span<const float> g) override {
        sparse::accumulate_counted(residual_, at, g, ws_);
    }

private:
    std::span<float> residual_;
    sparse::TopkWorkspace& ws_;
};

/// store-and-fold: a dW row built in its arena slice, then folded from
/// there. Emulated over the shipped kernel by copying each finished row
/// into the arena (zero-filled beforehand) and folding the arena slice.
class StoreThenFoldSink final : public nn::GradSink {
public:
    StoreThenFoldSink(std::span<float> arena, CountedResidualSink& inner)
        : arena_(arena), inner_(inner) {}
    void fold(std::size_t at, std::span<const float> g) override {
        const std::span<float> slot = arena_.subspan(at, g.size());
        std::copy(g.begin(), g.end(), slot.begin());
        inner_.fold(at, slot);
    }

private:
    std::span<float> arena_;
    CountedResidualSink& inner_;
};

void BM_BackwardFold(benchmark::State& state) {
    // mlp_wide_gtopk's three Linear layers (768->2048->512->10, batch 4),
    // backward plus the residual accumulate of their gradient (Alg. 4
    // line 4, counted for the top-k). Arg 0: the unfolded order — zero
    // the gradient arena, backward into it, then one accumulate_counted
    // over it. Arg 1: the shipped fold — each dW row is built in a
    // scratch row and folded straight into the residual, never touching
    // the arena. Arg 2: store-and-fold (not shipped) — the zero fill and
    // the arena stores come back, each row folded from the arena. Every
    // thread is one rank with its own layers and residual, as in
    // perfbench's 4-rank process.
    util::Xoshiro256 rng(1);
    nn::Sequential net;
    net.emplace<nn::Linear>(768, 2048).emplace<nn::Linear>(2048, 512).emplace<nn::Linear>(512, 10);
    const nn::ParamArena arena = nn::bind_params(net, rng);
    std::vector<nn::Param*> params;
    net.collect_params(params);
    const std::span<float> grads(params.front()->grad.data(), MlpWideParams::m);
    net.forward(random_tensor({4, 768}, 2), true);
    const nn::Tensor dy = random_tensor({4, 10}, 3);
    std::vector<float> residual = random_dense(MlpWideParams::m, 4);
    sparse::TopkWorkspace ws;
    CountedResidualSink sink(residual, ws);
    StoreThenFoldSink store_sink(grads, sink);
    const int arm = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sparse::begin_count(ws, residual.size());
        if (arm == 1) {
            benchmark::DoNotOptimize(net.backward_fold(dy, {grads, sink}).raw());
        } else if (arm == 2) {
            std::fill(grads.begin(), grads.end(), 0.0f);
            benchmark::DoNotOptimize(net.backward_fold(dy, {grads, store_sink}).raw());
        } else {
            std::fill(grads.begin(), grads.end(), 0.0f);
            benchmark::DoNotOptimize(net.backward(dy).raw());
            sparse::accumulate_counted(residual, 0, grads, ws);
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(MlpWideParams::m));
}
BENCHMARK(BM_BackwardFold)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MomentumAxpy(benchmark::State& state) {
    // The momentum-SGD update v = mom*v + u; w += -lr*v over mlp_wide's
    // values arena. Arg 0: normal velocities fed by a nonzero update (they
    // settle near 10u). Arg 1: every velocity subnormal and a zero update,
    // as in a long run's rarely selected coordinates; the first pass snaps
    // them to +0, and from then on every chunk of +0 velocities and zero
    // update is read and skipped. Arg 2: the gTop-k update as the trainer
    // applies it, k = 2629 sorted (index, value) entries with +0 between
    // them, over velocities that are +0 but for 5% of the coordinates, in
    // about 20% of the 16-float chunks (a traced mlp_wide_gtopk episode
    // ends with 95% of its velocities +0 and 72% of its chunks all +0).
    // Arg 3: the same update scattered into a dense m-float vector first,
    // as the trainer did before it applied the list (the scatter and the
    // re-zero are O(k) and included). Arms 2 and 3 use mom = 1, so the
    // velocities' support neither decays nor grows past the update's over
    // the iterations.
    MlpWideParams p(9);
    const int arm = static_cast<int>(state.range(0));
    std::vector<float> velocity(p.m, 0.0f), update(p.m, 0.0f);
    std::vector<std::int32_t> idx;
    std::vector<float> val;
    if (arm == 1) {
        const float tiny = std::numeric_limits<float>::denorm_min();
        for (std::size_t i = 0; i < p.m; ++i) {
            velocity[i] = static_cast<float>(i % 1000 + 1) * ((i & 1) ? -tiny : tiny);
        }
    } else if (arm == 0) {
        velocity = random_dense(p.m, 31);
        update = random_dense(p.m, 32);
    } else {
        const std::size_t k = 2629;
        const std::vector<float> draws = random_dense(p.m, 33);
        util::Xoshiro256 rng(34);
        for (std::size_t c = 0; c + 16 <= p.m; c += 16) {
            if (rng.next_below(5) != 0) continue;
            for (std::size_t i = c; i < c + 16; ++i) {
                if (rng.next_below(4) == 0) velocity[i] = draws[i];
            }
        }
        for (std::size_t j = 0; j < k; ++j) {
            // One entry in each stretch of m / k: sorted and distinct.
            idx.push_back(static_cast<std::int32_t>(j * (p.m / k) + rng.next_below(p.m / k)));
            val.push_back(draws[j]);
        }
    }
    const float momentum = arm >= 2 ? 1.0f : 0.9f;
    const float lr = 6e-5f;
    for (auto _ : state) {
        if (arm == 2) {
            nn::momentum_axpy_values(p.values, momentum, velocity, nn::SparseUpdate{idx, val},
                                     -lr);
        } else {
            for (std::size_t j = 0; arm == 3 && j < idx.size(); ++j) {
                update[static_cast<std::size_t>(idx[j])] = val[j];
            }
            nn::momentum_axpy_values(p.values, momentum, velocity, update, -lr);
            for (std::size_t j = 0; arm == 3 && j < idx.size(); ++j) {
                update[static_cast<std::size_t>(idx[j])] = 0.0f;
            }
        }
        benchmark::DoNotOptimize(velocity.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(p.m));
}
BENCHMARK(BM_MomentumAxpy)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Threads(1)->Threads(4)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
