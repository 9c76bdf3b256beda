// Layer: the unit of the manual-backprop framework.
//
// Contract: forward(x, training) caches whatever backward needs;
// backward(dy) ACCUMULATES into the layer's parameter gradients and returns
// dx. Callers zero gradients between iterations (TrainableModel does, over
// its whole gradient arena, in every unfolded train step).
// backward_fold(dy, fold) returns the same dx, but hands each of the
// layer's parameter gradients to `fold` once it is final, every element
// exactly once, with the bits backward would have left in a zeroed arena.
// What it leaves in its own slice of the gradient arena is unspecified.
//
// A layer names and sizes its parameter tensors as Params but owns no
// floats: a ParamArena, a TrainableModel's or a standalone layer's from
// bind_params, holds the values and gradients of every tensor back to
// back, and init_params draws the initial values once they are bound.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace gtopk::nn {

/// One parameter tensor and its gradient: equal-length views into flat
/// storage.
struct ParamView {
    std::span<float> value;
    std::span<float> grad;
    std::string name;
};

/// A layer's parameter tensor: its size and name, and once a ParamArena
/// binds it, views of its slices there (empty views before).
struct Param : ParamView {
    Param(std::size_t size, std::string name);

    std::size_t size;
};

/// Zeroed values and gradients for a list of Params, one flat buffer each,
/// which the Params view back to back in list order. Moving an arena keeps
/// the views valid.
class ParamArena {
public:
    ParamArena() = default;
    explicit ParamArena(const std::vector<Param*>& params);

private:
    std::unique_ptr<float[]> values_, grads_;
};

/// Where a folded train step sends its gradient: fold(at, g) receives the
/// finished values of gradient-arena elements [at, at + g.size()). Over
/// one step the calls cover every element of the arena exactly once, in an
/// order the model chooses (for a Sequential: layers last to first).
class GradSink {
public:
    virtual void fold(std::size_t at, std::span<const float> g) = 0;

protected:
    ~GradSink() = default;
};

/// A folded backward's way to its model's sink: `arena` (the model's
/// gradient arena) turns a tensor's slice of it into the sink's offset.
struct GradFold {
    std::span<const float> arena;
    GradSink& sink;

    /// Hand over g, the finished gradient of `slice`, a slice of `arena`.
    void operator()(std::span<const float> slice, std::span<const float> g) const {
        sink.fold(static_cast<std::size_t>(slice.data() - arena.data()), g);
    }
};

class Layer {
public:
    virtual ~Layer() = default;

    virtual Tensor forward(const Tensor& x, bool training) = 0;
    virtual Tensor backward(const Tensor& dy) = 0;

    /// backward(dy), folding this layer's parameter gradients (see the
    /// contract above). Default: zero the layer's own tensors, backward,
    /// then fold each tensor's arena slice.
    virtual Tensor backward_fold(const Tensor& dy, const GradFold& fold);

    /// Append this layer's parameters in their fixed order (default: none).
    virtual void collect_params(std::vector<Param*>& out) { (void)out; }

    /// Draw the initial values of the bound parameters, in collect_params
    /// order (default: none).
    virtual void init_params(util::Xoshiro256& rng) { (void)rng; }

    virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Bind `layer`'s parameters to a new arena and initialize them: a layer
/// used on its own, outside a model.
ParamArena bind_params(Layer& layer, util::Xoshiro256& rng);

}  // namespace gtopk::nn
