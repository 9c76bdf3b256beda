#include "nn/layer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace gtopk::nn {

std::size_t param_count(const std::vector<ParamView>& params) {
    std::size_t n = 0;
    for (const auto& p : params) n += p.value->size();
    return n;
}

void zero_grads(const std::vector<ParamView>& params) {
    for (const auto& p : params) {
        std::fill(p.grad->begin(), p.grad->end(), 0.0f);
    }
}

std::vector<float> flatten_values(const std::vector<ParamView>& params) {
    std::vector<float> flat;
    flat.reserve(param_count(params));
    for (const auto& p : params) {
        flat.insert(flat.end(), p.value->begin(), p.value->end());
    }
    return flat;
}

std::vector<float> flatten_grads(const std::vector<ParamView>& params) {
    std::vector<float> flat;
    flat.reserve(param_count(params));
    for (const auto& p : params) {
        flat.insert(flat.end(), p.grad->begin(), p.grad->end());
    }
    return flat;
}

void set_values(const std::vector<ParamView>& params, std::span<const float> flat) {
    if (flat.size() != param_count(params)) {
        throw std::invalid_argument("set_values: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        std::memcpy(p.value->data(), flat.data() + off, p.value->size() * sizeof(float));
        off += p.value->size();
    }
}

void apply_delta(const std::vector<ParamView>& params, std::span<const float> delta) {
    if (delta.size() != param_count(params)) {
        throw std::invalid_argument("apply_delta: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        float* w = p.value->data();
        const float* d = delta.data() + off;
        for (std::size_t i = 0; i < p.value->size(); ++i) w[i] += d[i];
        off += p.value->size();
    }
}

void accumulate_grads(const std::vector<ParamView>& params, std::span<float> dst) {
    if (dst.size() != param_count(params)) {
        throw std::invalid_argument("accumulate_grads: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        const float* g = p.grad->data();
        float* d = dst.data() + off;
        for (std::size_t i = 0; i < p.grad->size(); ++i) d[i] += g[i];
        off += p.grad->size();
    }
}

void axpy_values(const std::vector<ParamView>& params, float a,
                 std::span<const float> x) {
    if (x.size() != param_count(params)) {
        throw std::invalid_argument("axpy_values: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        float* w = p.value->data();
        const float* xs = x.data() + off;
        for (std::size_t i = 0; i < p.value->size(); ++i) w[i] += a * xs[i];
        off += p.value->size();
    }
}

}  // namespace gtopk::nn
