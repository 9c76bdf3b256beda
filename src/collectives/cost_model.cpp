#include "collectives/cost_model.hpp"

#include <cmath>

#include "collectives/schedule.hpp"

namespace gtopk::collectives {

namespace {
double log2i(int workers) { return static_cast<double>(ilog2_ceil(workers)); }
}  // namespace

double dense_allreduce_time_s(const comm::NetworkModel& net, int workers,
                              std::uint64_t elements) {
    if (workers <= 1) return 0.0;
    const double P = workers;
    const double m = static_cast<double>(elements);
    return 2.0 * (P - 1.0) * net.alpha_s + 2.0 * (P - 1.0) / P * m * net.beta_s;
}

double topk_allreduce_time_s(const comm::NetworkModel& net, int workers,
                             std::uint64_t k) {
    if (workers <= 1) return 0.0;
    const double P = workers;
    const double kd = static_cast<double>(k);
    return log2i(workers) * net.alpha_s + 2.0 * (P - 1.0) * kd * net.beta_s;
}

double gtopk_allreduce_time_s(const comm::NetworkModel& net, int workers,
                              std::uint64_t k) {
    if (workers <= 1) return 0.0;
    const double kd = static_cast<double>(k);
    return 2.0 * log2i(workers) * net.alpha_s + 4.0 * kd * log2i(workers) * net.beta_s;
}

double broadcast_time_s(const comm::NetworkModel& net, int workers,
                        std::uint64_t elements) {
    if (workers <= 1) return 0.0;
    return log2i(workers) * net.transfer_time_elems(elements);
}

double flat_broadcast_time_s(const comm::NetworkModel& net, int workers,
                             std::uint64_t elements) {
    if (workers <= 1) return 0.0;
    return static_cast<double>(workers - 1) * net.transfer_time_elems(elements);
}

double allgather_time_s(const comm::NetworkModel& net, int workers,
                        std::uint64_t elements_per_rank) {
    if (workers <= 1) return 0.0;
    const double P = workers;
    return log2i(workers) * net.alpha_s +
           (P - 1.0) * static_cast<double>(elements_per_rank) * net.beta_s;
}

double rabenseifner_allreduce_time_s(const comm::NetworkModel& net, int workers,
                                     std::uint64_t elements) {
    if (workers <= 1) return 0.0;
    const double P = workers;
    const double m = static_cast<double>(elements);
    return 2.0 * log2i(workers) * net.alpha_s + 2.0 * (P - 1.0) / P * m * net.beta_s;
}

}  // namespace gtopk::collectives
