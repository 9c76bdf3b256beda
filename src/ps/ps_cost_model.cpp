#include "ps/ps_cost_model.hpp"

namespace gtopk::ps {

double ps_gtopk_time_s(const comm::NetworkModel& net, int workers, std::uint64_t k) {
    if (workers <= 0) return 0.0;
    return static_cast<double>(workers + 1) * net.transfer_time_elems(2 * k);
}

}  // namespace gtopk::ps
