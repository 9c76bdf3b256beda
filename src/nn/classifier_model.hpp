// ClassifierModel: a Sequential network trained with softmax cross entropy.
#pragma once

#include <memory>

#include "nn/model.hpp"
#include "nn/sequential.hpp"

namespace gtopk::nn {

class ClassifierModel final : public TrainableModel {
public:
    /// Binds `net`'s parameters to the model's arena, then draws their
    /// initial values from `rng` in layer order.
    ClassifierModel(std::unique_ptr<Sequential> net, util::Xoshiro256& rng);

    double train_step_gradients(const Batch& batch) override;
    /// Folds each layer's gradients as its backward finishes them; no
    /// model-wide zero fill (each layer zeroes what it accumulates into).
    double train_step_fold(const Batch& batch, GradSink& sink) override;
    double eval_loss(const Batch& batch) override;
    double eval_accuracy(const Batch& batch) override;

    Sequential& net() { return *net_; }

private:
    std::unique_ptr<Sequential> net_;
};

}  // namespace gtopk::nn
