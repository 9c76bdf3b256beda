#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/loss.hpp"

namespace gtopk::nn {

namespace {
float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

LstmLm::LstmLm(std::int64_t vocab, std::int64_t embed_dim, std::int64_t hidden_dim,
               util::Xoshiro256& rng, int num_layers)
    : vocab_(vocab),
      embed_(embed_dim),
      hidden_(hidden_dim),
      emb_(static_cast<std::size_t>(vocab * embed_dim), "lstm.embedding"),
      w_out_(static_cast<std::size_t>(vocab * hidden_dim), "lstm.w_out"),
      b_out_(static_cast<std::size_t>(vocab), "lstm.b_out") {
    if (num_layers < 1) throw std::invalid_argument("LstmLm: need >= 1 layer");
    std::vector<Param*> params{&emb_};
    layers_.reserve(static_cast<std::size_t>(num_layers));
    for (int l = 0; l < num_layers; ++l) {
        const std::int64_t in = l == 0 ? embed_dim : hidden_dim;
        const std::string prefix = "lstm.l" + std::to_string(l);
        const auto gates = static_cast<std::size_t>(4 * hidden_dim);
        LayerParams& layer = layers_.emplace_back(
            in, Param(gates * static_cast<std::size_t>(in), prefix + ".w_ih"),
            Param(gates * static_cast<std::size_t>(hidden_dim), prefix + ".w_hh"),
            Param(gates, prefix + ".b"));
        params.insert(params.end(), {&layer.w_ih, &layer.w_hh, &layer.b});
    }
    params.insert(params.end(), {&w_out_, &b_out_});
    adopt(params);

    const float scale = 1.0f / std::sqrt(static_cast<float>(hidden_dim));
    uniform_init(emb_.value, 0.1f, rng);
    for (LayerParams& layer : layers_) {
        uniform_init(layer.w_ih.value, scale, rng);
        uniform_init(layer.w_hh.value, scale, rng);
        // Forget-gate bias of 1: standard trick so gradients flow early on.
        for (std::int64_t j = 0; j < hidden_; ++j) {
            layer.b.value[static_cast<std::size_t>(hidden_ + j)] = 1.0f;
        }
    }
    uniform_init(w_out_.value, scale, rng);
}

Tensor LstmLm::forward_sequence(const Batch& batch,
                                std::vector<std::vector<StepCache>>* caches) {
    if (batch.x.rank() != 2) throw std::invalid_argument("LstmLm: expected [N, T] ids");
    const std::int64_t n = batch.x.dim(0), t_len = batch.x.dim(1);
    const std::int64_t H = hidden_;
    const std::size_t num_layers = layers_.size();

    // Per-layer running state, and per-sample previous-h snapshot.
    std::vector<std::vector<float>> h(num_layers), c(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        h[l].assign(static_cast<std::size_t>(n * H), 0.0f);
        c[l].assign(static_cast<std::size_t>(n * H), 0.0f);
    }
    std::vector<float> h_prev_snapshot(static_cast<std::size_t>(H));
    Tensor logits({n * t_len, vocab_});
    if (caches) {
        caches->assign(num_layers, {});
        for (auto& per_layer : *caches) {
            per_layer.assign(static_cast<std::size_t>(t_len), {});
        }
    }

    std::vector<float> layer_input;  // [N, input_dim] for the current layer
    for (std::int64_t t = 0; t < t_len; ++t) {
        // Layer 0 input: embedded tokens for the whole batch.
        layer_input.assign(static_cast<std::size_t>(n * embed_), 0.0f);
        for (std::int64_t b = 0; b < n; ++b) {
            const auto token = static_cast<std::int32_t>(batch.x.at2(b, t));
            if (token < 0 || token >= vocab_) {
                throw std::invalid_argument("LstmLm: token id out of range");
            }
            std::copy_n(emb_.value.data() + static_cast<std::size_t>(token) * embed_,
                        embed_, layer_input.data() + b * embed_);
        }

        for (std::size_t l = 0; l < num_layers; ++l) {
            LayerParams& layer = layers_[l];
            const std::int64_t in_dim = layer.input_dim;
            StepCache* cache =
                caches ? &(*caches)[l][static_cast<std::size_t>(t)] : nullptr;
            if (cache) {
                cache->input = layer_input;
                cache->i.resize(static_cast<std::size_t>(n * H));
                cache->f.resize(static_cast<std::size_t>(n * H));
                cache->g.resize(static_cast<std::size_t>(n * H));
                cache->o.resize(static_cast<std::size_t>(n * H));
                cache->c.resize(static_cast<std::size_t>(n * H));
                cache->tanh_c.resize(static_cast<std::size_t>(n * H));
                cache->h.resize(static_cast<std::size_t>(n * H));
            }
            for (std::int64_t b = 0; b < n; ++b) {
                const float* x_in = layer_input.data() + b * in_dim;
                float* h_cur = h[l].data() + b * H;
                float* c_cur = c[l].data() + b * H;
                // Snapshot h_{t-1}: h is updated in place per unit below,
                // and every unit's recurrent term must read the PREVIOUS
                // step's state.
                std::copy(h_cur, h_cur + H, h_prev_snapshot.begin());
                const float* h_prev = h_prev_snapshot.data();

                for (std::int64_t j = 0; j < H; ++j) {
                    float pre[4];
                    for (int gate = 0; gate < 4; ++gate) {
                        const std::int64_t row = gate * H + j;
                        const float* wi = layer.w_ih.value.data() + row * in_dim;
                        const float* wh = layer.w_hh.value.data() + row * H;
                        float acc = layer.b.value[static_cast<std::size_t>(row)];
                        for (std::int64_t e = 0; e < in_dim; ++e) acc += wi[e] * x_in[e];
                        for (std::int64_t kk = 0; kk < H; ++kk) acc += wh[kk] * h_prev[kk];
                        pre[gate] = acc;
                    }
                    const float ig = sigmoidf(pre[0]);
                    const float fg = sigmoidf(pre[1]);
                    const float gg = std::tanh(pre[2]);
                    const float og = sigmoidf(pre[3]);
                    const float c_new = fg * c_cur[j] + ig * gg;
                    const float tc = std::tanh(c_new);
                    const float h_new = og * tc;
                    if (cache) {
                        const std::size_t idx = static_cast<std::size_t>(b * H + j);
                        cache->i[idx] = ig;
                        cache->f[idx] = fg;
                        cache->g[idx] = gg;
                        cache->o[idx] = og;
                        cache->c[idx] = c_new;
                        cache->tanh_c[idx] = tc;
                        cache->h[idx] = h_new;
                    }
                    c_cur[j] = c_new;
                    h_cur[j] = h_new;
                }
            }
            // The next layer consumes this layer's fresh hidden states.
            layer_input.assign(h[l].begin(), h[l].end());
        }

        // Output projection from the TOP layer for every sample at (b, t).
        const std::vector<float>& top_h = h[num_layers - 1];
        for (std::int64_t b = 0; b < n; ++b) {
            const float* hb = top_h.data() + b * H;
            float* out_row = logits.raw() + (b * t_len + t) * vocab_;
            for (std::int64_t v = 0; v < vocab_; ++v) {
                const float* wo = w_out_.value.data() + v * H;
                float acc = b_out_.value[static_cast<std::size_t>(v)];
                for (std::int64_t j = 0; j < H; ++j) acc += wo[j] * hb[j];
                out_row[v] = acc;
            }
        }
    }
    return logits;
}

double LstmLm::train_step_gradients(const Batch& batch) {
    std::ranges::fill(grads(), 0.0f);
    const std::int64_t n = batch.x.dim(0), t_len = batch.x.dim(1);
    const std::int64_t H = hidden_;
    const std::size_t num_layers = layers_.size();
    if (static_cast<std::int64_t>(batch.targets.size()) != n * t_len) {
        throw std::invalid_argument("LstmLm: need one target per position");
    }
    std::vector<std::vector<StepCache>> caches;
    Tensor logits = forward_sequence(batch, &caches);
    LossResult lr = softmax_cross_entropy(logits, batch.targets);

    // --- BPTT through the stack: dh/dc carried per layer across time;
    // within a timestep, layer l's input gradient feeds layer l-1's dh.
    std::vector<std::vector<float>> dh(num_layers), dc(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        dh[l].assign(static_cast<std::size_t>(n * H), 0.0f);
        dc[l].assign(static_cast<std::size_t>(n * H), 0.0f);
    }

    for (std::int64_t t = t_len - 1; t >= 0; --t) {
        // Output head: gradient w.r.t. the top layer's h at this step.
        const StepCache& top = caches[num_layers - 1][static_cast<std::size_t>(t)];
        for (std::int64_t b = 0; b < n; ++b) {
            const float* dlog = lr.dlogits.raw() + (b * t_len + t) * vocab_;
            const float* h_cur = top.h.data() + b * H;
            float* dh_b = dh[num_layers - 1].data() + b * H;
            for (std::int64_t v = 0; v < vocab_; ++v) {
                const float g = dlog[v];
                if (g == 0.0f) continue;
                b_out_.grad[static_cast<std::size_t>(v)] += g;
                float* dwo = w_out_.grad.data() + v * H;
                const float* wo = w_out_.value.data() + v * H;
                for (std::int64_t j = 0; j < H; ++j) {
                    dwo[j] += g * h_cur[j];
                    dh_b[j] += g * wo[j];
                }
            }
        }

        // Walk the stack downward; dx of layer l lands in dh of layer l-1
        // (same timestep) or in the embedding for layer 0.
        for (std::size_t l = num_layers; l-- > 0;) {
            LayerParams& layer = layers_[l];
            const std::int64_t in_dim = layer.input_dim;
            const StepCache& cur = caches[l][static_cast<std::size_t>(t)];
            const StepCache* prev =
                t > 0 ? &caches[l][static_cast<std::size_t>(t - 1)] : nullptr;
            for (std::int64_t b = 0; b < n; ++b) {
                float* dh_b = dh[l].data() + b * H;
                float* dc_b = dc[l].data() + b * H;
                const float* x_in = cur.input.data() + b * in_dim;
                const float* h_prev = prev ? prev->h.data() + b * H : nullptr;
                const float* c_prev = prev ? prev->c.data() + b * H : nullptr;
                std::vector<float> dx(static_cast<std::size_t>(in_dim), 0.0f);
                std::vector<float> dh_prev(static_cast<std::size_t>(H), 0.0f);

                for (std::int64_t j = 0; j < H; ++j) {
                    const std::size_t idx = static_cast<std::size_t>(b * H + j);
                    const float ig = cur.i[idx], fg = cur.f[idx], gg = cur.g[idx],
                                og = cur.o[idx];
                    const float tc = cur.tanh_c[idx];
                    const float dh_j = dh_b[j];
                    const float do_pre = dh_j * tc * og * (1.0f - og);
                    float dc_j = dh_j * og * (1.0f - tc * tc) + dc_b[j];
                    const float cp = c_prev ? c_prev[j] : 0.0f;
                    const float df_pre = dc_j * cp * fg * (1.0f - fg);
                    const float di_pre = dc_j * gg * ig * (1.0f - ig);
                    const float dg_pre = dc_j * ig * (1.0f - gg * gg);
                    dc_b[j] = dc_j * fg;

                    const float dpre[4] = {di_pre, df_pre, dg_pre, do_pre};
                    for (int gate = 0; gate < 4; ++gate) {
                        const float dp = dpre[gate];
                        if (dp == 0.0f) continue;
                        const std::int64_t row = gate * H + j;
                        layer.b.grad[static_cast<std::size_t>(row)] += dp;
                        float* dwi = layer.w_ih.grad.data() + row * in_dim;
                        const float* wi = layer.w_ih.value.data() + row * in_dim;
                        for (std::int64_t e = 0; e < in_dim; ++e) {
                            dwi[e] += dp * x_in[e];
                            dx[static_cast<std::size_t>(e)] += dp * wi[e];
                        }
                        float* dwh = layer.w_hh.grad.data() + row * H;
                        const float* wh = layer.w_hh.value.data() + row * H;
                        for (std::int64_t kk = 0; kk < H; ++kk) {
                            if (h_prev) dwh[kk] += dp * h_prev[kk];
                            dh_prev[static_cast<std::size_t>(kk)] += dp * wh[kk];
                        }
                    }
                }
                // Route the input gradient downward.
                if (l == 0) {
                    const auto token = static_cast<std::int32_t>(batch.x.at2(b, t));
                    float* demb_row =
                        emb_.grad.data() + static_cast<std::size_t>(token) * embed_;
                    for (std::int64_t e = 0; e < embed_; ++e) {
                        demb_row[e] += dx[static_cast<std::size_t>(e)];
                    }
                } else {
                    float* dh_below = dh[l - 1].data() + b * H;
                    for (std::int64_t j = 0; j < H; ++j) {
                        dh_below[j] += dx[static_cast<std::size_t>(j)];
                    }
                }
                for (std::int64_t j = 0; j < H; ++j) {
                    dh_b[j] = dh_prev[static_cast<std::size_t>(j)];
                }
            }
        }
    }
    return lr.loss;
}

double LstmLm::eval_loss(const Batch& batch) {
    Tensor logits = forward_sequence(batch, nullptr);
    return softmax_cross_entropy(logits, batch.targets).loss;
}

double LstmLm::eval_accuracy(const Batch& batch) {
    Tensor logits = forward_sequence(batch, nullptr);
    return accuracy(logits, batch.targets);
}

}  // namespace gtopk::nn
