#include "nn/sequential.hpp"

namespace gtopk::nn {

Tensor Sequential::forward(const Tensor& x, bool training) {
    Tensor h = x;
    for (auto& layer : layers_) h = layer->forward(h, training);
    return h;
}

Tensor Sequential::backward(const Tensor& dy) {
    Tensor g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        g = (*it)->backward(g);
    }
    return g;
}

Tensor Sequential::backward_fold(const Tensor& dy, const GradFold& fold) {
    Tensor g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        g = (*it)->backward_fold(g, fold);
    }
    return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
    for (auto& layer : layers_) layer->collect_params(out);
}

void Sequential::init_params(util::Xoshiro256& rng) {
    for (auto& layer : layers_) layer->init_params(rng);
}

}  // namespace gtopk::nn
