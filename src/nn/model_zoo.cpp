#include "nn/model_zoo.hpp"

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/classifier_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/pool2d.hpp"
#include "nn/residual.hpp"
#include "util/rng.hpp"

namespace gtopk::nn {

std::unique_ptr<TrainableModel> make_mlp(const MlpConfig& config, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    auto net = std::make_unique<Sequential>();
    std::int64_t in = config.input_dim;
    for (std::int64_t h : config.hidden_dims) {
        net->emplace<Linear>(in, h);
        net->emplace<ReLU>();
        in = h;
    }
    net->emplace<Linear>(in, config.classes);
    return std::make_unique<ClassifierModel>(std::move(net), rng);
}

std::unique_ptr<TrainableModel> make_mini_vgg(const MiniVggConfig& config,
                                              std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    auto net = std::make_unique<Sequential>();
    const std::int64_t c = config.conv_channels;
    net->emplace<Conv2d>(config.in_channels, c, 3, 1, 1);
    net->emplace<ReLU>();
    net->emplace<MaxPool2d>(2);
    net->emplace<Conv2d>(c, 2 * c, 3, 1, 1);
    net->emplace<ReLU>();
    net->emplace<MaxPool2d>(2);
    net->emplace<Flatten>();
    const std::int64_t spatial = config.image_size / 4;
    net->emplace<Linear>(2 * c * spatial * spatial, config.fc_dim);
    net->emplace<ReLU>();
    if (config.dropout > 0.0f) net->emplace<Dropout>(config.dropout, seed ^ 0xD0u);
    net->emplace<Linear>(config.fc_dim, config.fc_dim / 2);
    net->emplace<ReLU>();
    if (config.dropout > 0.0f) net->emplace<Dropout>(config.dropout, seed ^ 0xD1u);
    net->emplace<Linear>(config.fc_dim / 2, config.classes);
    return std::make_unique<ClassifierModel>(std::move(net), rng);
}

std::unique_ptr<TrainableModel> make_mini_resnet(const MiniResNetConfig& config,
                                                 std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    auto net = std::make_unique<Sequential>();
    const std::int64_t c = config.channels;
    net->emplace<Conv2d>(config.in_channels, c, 3, 1, 1);
    if (config.batch_norm) net->emplace<BatchNorm2d>(c);
    net->emplace<ReLU>();
    for (int b = 0; b < config.blocks; ++b) {
        auto body = std::make_unique<Sequential>();
        body->emplace<Conv2d>(c, c, 3, 1, 1);
        if (config.batch_norm) body->emplace<BatchNorm2d>(c);
        body->emplace<ReLU>();
        body->emplace<Conv2d>(c, c, 3, 1, 1);
        if (config.batch_norm) body->emplace<BatchNorm2d>(c);
        net->emplace<ResidualBlock>(std::move(body));
        net->emplace<ReLU>();
    }
    net->emplace<MaxPool2d>(2);
    net->emplace<Flatten>();
    const std::int64_t spatial = config.image_size / 2;
    net->emplace<Linear>(c * spatial * spatial, config.classes);
    return std::make_unique<ClassifierModel>(std::move(net), rng);
}

std::unique_ptr<TrainableModel> make_lstm_lm(const LstmConfig& config,
                                             std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    return std::make_unique<LstmLm>(config.vocab, config.embed_dim, config.hidden_dim,
                                    rng, config.num_layers);
}

}  // namespace gtopk::nn
