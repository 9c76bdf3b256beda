// TrainableModel: the uniform surface the distributed trainers drive.
//
// A model keeps its parameters in two flat arenas of m floats each, one for
// values and one for gradients, with the params() tensors back to back in
// order. That values arena is the m-element vector the paper's algorithms
// sparsify, and the gradient arena holds the local gradient that Algorithm 4
// adds into its residual G. A fused forward+backward step either leaves the
// whole gradient in that arena (train_step_gradients) or hands it to a
// GradSink piece by piece as backward finishes it (train_step_fold), so a
// trainer can add it into the residual without a second pass over the
// arena. The trainers read and update the values arena as one span.
// Replica consistency is achieved by constructing every worker's model
// from the same seed.
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

/// An update that is +0 everywhere except at `indices` (strictly
/// increasing, each below the update's length; the functions taking one
/// throw std::invalid_argument otherwise), where it is `values`.
struct SparseUpdate {
    std::span<const std::int32_t> indices;
    std::span<const float> values;
};

/// momentum_axpy_values with the dense update that `u` describes: every
/// element gets the same bits, the gaps between u's entries adding +0. On
/// a pass of at least 2^20 elements, a chunk of +0 velocities between
/// entries is only read when rewriting it would give the same bits
/// (finite mom, finite a with its sign bit set).
void momentum_axpy_values(std::span<float> w, float mom, std::span<float> v,
                          SparseUpdate u, float a);

/// axpy_values(w, a, x) for the dense x that `u` describes, in O(nnz).
/// The bits equal the dense pass whenever a has its sign bit set (a step
/// -lr with lr >= 0): a gap then adds a * +0 = -0, and w + -0 is w for
/// every w, -0 included.
void axpy_values(std::span<float> w, float a, SparseUpdate u);

class TrainableModel {
public:
    virtual ~TrainableModel() = default;

    /// Zero grads, run forward and backward on `batch`; gradients for the
    /// whole model are left in grads(). Returns the mean loss.
    virtual double train_step_gradients(const Batch& batch) = 0;

    /// Run forward and backward on `batch`, handing every element of the
    /// gradient to `sink` exactly once, as soon as it is final; returns the
    /// mean loss. The values are bit for bit those train_step_gradients
    /// leaves in grads(), so a sink that adds them into a residual gets
    /// the bits of adding grads() after train_step_gradients. Afterwards
    /// grads() is unspecified: a layer may build its gradient outside the
    /// arena (Linear does), and its slice then keeps older values.
    /// Default: train_step_gradients, then one fold of the whole grads(),
    /// so a decorator that overrides only train_step_gradients stays exact.
    virtual double train_step_fold(const Batch& batch, GradSink& sink);

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
    void axpy_params(float a, SparseUpdate u) { axpy_values(values(), a, u); }
    /// v = mom * v + u; values() += a * v, in one pass.
    void momentum_axpy_params(float mom, std::span<float> v, std::span<const float> u,
                              float a) {
        momentum_axpy_values(values(), mom, v, u, a);
    }
    void momentum_axpy_params(float mom, std::span<float> v, SparseUpdate u, float a) {
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
