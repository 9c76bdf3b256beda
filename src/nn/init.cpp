#include "nn/init.hpp"

#include <cmath>

namespace gtopk::nn {

void kaiming_normal(std::span<float> w, std::size_t fan_in, util::Xoshiro256& rng) {
    const float std_dev = std::sqrt(2.0f / static_cast<float>(fan_in));
    for (float& x : w) x = static_cast<float>(rng.next_gaussian()) * std_dev;
}

void uniform_init(std::span<float> w, float scale, util::Xoshiro256& rng) {
    for (float& x : w) x = rng.next_uniform(-scale, scale);
}

}  // namespace gtopk::nn
