// Weight initialization. Deterministic given the RNG so that every worker
// replica starts from identical parameters (a precondition of S-SGD).
#pragma once

#include <span>

#include "util/rng.hpp"

namespace gtopk::nn {

/// Kaiming/He normal: N(0, sqrt(2 / fan_in)) — the standard for ReLU nets.
void kaiming_normal(std::span<float> w, std::size_t fan_in, util::Xoshiro256& rng);

/// U(-scale, scale) — used for LSTM and embedding tables.
void uniform_init(std::span<float> w, float scale, util::Xoshiro256& rng);

}  // namespace gtopk::nn
