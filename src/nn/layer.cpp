#include "nn/layer.hpp"

#include <algorithm>

namespace gtopk::nn {

Param::Param(std::size_t size, std::string name) : size(size) {
    this->name = std::move(name);
}

ParamArena::ParamArena(const std::vector<Param*>& params) {
    std::size_t m = 0;
    for (const Param* p : params) m += p->size;
    values_ = std::make_unique<float[]>(m);
    grads_ = std::make_unique<float[]>(m);
    std::size_t off = 0;
    for (Param* p : params) {
        p->value = {values_.get() + off, p->size};
        p->grad = {grads_.get() + off, p->size};
        off += p->size;
    }
}

Tensor Layer::backward_fold(const Tensor& dy, const GradFold& fold) {
    std::vector<Param*> params;
    collect_params(params);
    for (Param* p : params) std::ranges::fill(p->grad, 0.0f);
    Tensor dx = backward(dy);
    for (const Param* p : params) fold(p->grad, p->grad);
    return dx;
}

ParamArena bind_params(Layer& layer, util::Xoshiro256& rng) {
    std::vector<Param*> params;
    layer.collect_params(params);
    ParamArena arena(params);
    layer.init_params(rng);
    return arena;
}

}  // namespace gtopk::nn
