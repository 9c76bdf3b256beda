// TrainableModel: the uniform surface the distributed trainers drive.
//
// A model keeps its parameters in two flat arenas of m floats each, one for
// values and one for gradients, with the params() tensors back to back in
// order. That values arena is the m-element vector the paper's algorithms
// sparsify, and the gradient arena is the G of Algorithm 4: a fused
// forward+backward step leaves the whole gradient in it, and the trainers
// read and update both arenas as single spans. Replica consistency is
// achieved by constructing every worker's model from the same seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace gtopk::nn {

/// One mini-batch. For classifiers: x is [N, ...], targets has N labels.
/// For the LSTM LM: x is [N, T] token ids stored as floats (exact for
/// vocab < 2^24), targets has N*T next-token ids.
struct Batch {
    Tensor x;
    std::vector<std::int32_t> targets;
};

/// w += a * x, element by element.
void axpy_values(std::span<float> w, float a, std::span<const float> x);

/// Momentum SGD in one pass: v = mom * v + u, a v below FLT_MIN in
/// magnitude snapped to +0, then w += a * v, element by element — each
/// element gets the bits of a velocity loop with that snap followed by
/// axpy_values(w, a, v).
void momentum_axpy_values(std::span<float> w, float mom, std::span<float> v,
                          std::span<const float> u, float a);

class TrainableModel {
public:
    virtual ~TrainableModel() = default;

    /// Zero grads, run forward and backward on `batch`; gradients for the
    /// whole model are left in grads(). Returns the mean loss.
    virtual double train_step_gradients(const Batch& batch) = 0;

    /// Mean loss in eval mode (no gradient side effects).
    virtual double eval_loss(const Batch& batch) = 0;

    /// Top-1 accuracy in eval mode (per-position accuracy for the LM).
    virtual double eval_accuracy(const Batch& batch) = 0;

    /// Views over every parameter tensor, slices of the two arenas (stable
    /// for the model's lifetime).
    const std::vector<ParamView>& params() const { return params_; }

    /// The values and gradient arenas. Both are read through params(), so a
    /// forwarding model that copied another model's params() reaches that
    /// model's memory.
    std::span<float> values() const { return arena(&ParamView::value); }
    std::span<float> grads() const { return arena(&ParamView::grad); }

    std::size_t num_params() const { return values().size(); }

    std::vector<float> flat_params() const { return {values().begin(), values().end()}; }
    std::vector<float> flat_grads() const { return {grads().begin(), grads().end()}; }
    void set_flat_params(std::span<const float> w);
    /// dst += grads().
    void accumulate_grads_into(std::span<float> dst) const;
    /// values() += a * x.
    void axpy_params(float a, std::span<const float> x) { axpy_values(values(), a, x); }
    /// v = mom * v + u; values() += a * v, in one pass.
    void momentum_axpy_params(float mom, std::span<float> v, std::span<const float> u,
                              float a) {
        momentum_axpy_values(values(), mom, v, u, a);
    }

protected:
    /// Bind `params` to the model's arena in this order and view them from
    /// params_. Derived classes call this once, before drawing the initial
    /// values.
    void adopt(const std::vector<Param*>& params);

    std::vector<ParamView> params_;

private:
    std::span<float> arena(std::span<float> ParamView::*member) const;

    ParamArena arena_;
};

}  // namespace gtopk::nn
