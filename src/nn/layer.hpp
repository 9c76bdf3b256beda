// Layer: the unit of the manual-backprop framework.
//
// Contract: forward(x, training) caches whatever backward needs;
// backward(dy) ACCUMULATES into the layer's parameter gradients and returns
// dx. Callers zero gradients between iterations via zero_grads().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace gtopk::nn {

/// Borrowed view of one parameter tensor and its gradient, both flattened.
struct ParamView {
    std::vector<float>* value = nullptr;
    std::vector<float>* grad = nullptr;
    std::string name;
};

class Layer {
public:
    virtual ~Layer() = default;

    virtual Tensor forward(const Tensor& x, bool training) = 0;
    virtual Tensor backward(const Tensor& dy) = 0;

    /// Append borrowed views of this layer's parameters (default: none).
    virtual void collect_params(std::vector<ParamView>& out) { (void)out; }

    virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Total element count across a parameter list.
std::size_t param_count(const std::vector<ParamView>& params);

/// Zero every gradient buffer in the list.
void zero_grads(const std::vector<ParamView>& params);

/// Copy all parameters into / out of one flat vector (rank order = list
/// order). This flat space is the "m-element gradient" the paper
/// sparsifies.
std::vector<float> flatten_values(const std::vector<ParamView>& params);
std::vector<float> flatten_grads(const std::vector<ParamView>& params);
void set_values(const std::vector<ParamView>& params, std::span<const float> flat);
/// params += delta (flat).
void apply_delta(const std::vector<ParamView>& params, std::span<const float> delta);
/// dst += grads (flat), straight from the gradient buffers.
void accumulate_grads(const std::vector<ParamView>& params, std::span<float> dst);
/// params += a * x (flat).
void axpy_values(const std::vector<ParamView>& params, float a,
                 std::span<const float> x);

}  // namespace gtopk::nn
