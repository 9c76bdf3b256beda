#include "nn/classifier_model.hpp"

#include <algorithm>

#include "nn/loss.hpp"

namespace gtopk::nn {

ClassifierModel::ClassifierModel(std::unique_ptr<Sequential> net, util::Xoshiro256& rng)
    : net_(std::move(net)) {
    std::vector<Param*> params;
    net_->collect_params(params);
    adopt(params);
    net_->init_params(rng);
}

double ClassifierModel::train_step_gradients(const Batch& batch) {
    std::ranges::fill(grads(), 0.0f);
    Tensor logits = net_->forward(batch.x, /*training=*/true);
    LossResult lr = softmax_cross_entropy(logits, batch.targets);
    net_->backward(lr.dlogits);
    return lr.loss;
}

double ClassifierModel::train_step_fold(const Batch& batch, GradSink& sink) {
    Tensor logits = net_->forward(batch.x, /*training=*/true);
    LossResult lr = softmax_cross_entropy(logits, batch.targets);
    net_->backward_fold(lr.dlogits, {grads(), sink});
    return lr.loss;
}

double ClassifierModel::eval_loss(const Batch& batch) {
    Tensor logits = net_->forward(batch.x, /*training=*/false);
    return softmax_cross_entropy(logits, batch.targets).loss;
}

double ClassifierModel::eval_accuracy(const Batch& batch) {
    Tensor logits = net_->forward(batch.x, /*training=*/false);
    return accuracy(logits, batch.targets);
}

}  // namespace gtopk::nn
