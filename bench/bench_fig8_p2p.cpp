// Fig. 8: point-to-point transfer time vs message size, plus the alpha-beta
// fit. The paper measures its 1GbE testbed with the OSU benchmark and fits
// alpha = 0.436 ms, beta = 3.6e-5 ms/element; we run the same protocol on
// the virtual-time transport and recover the constants by least squares —
// pinning the simulator to the paper's network. Each transfer is a P = 2
// broadcast from rank 0: exactly one alpha + n*beta message to rank 1.
#include <iostream>

#include "bench_common.hpp"
#include "collectives/collectives.hpp"
#include "comm/cluster.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
    using namespace gtopk;
    using util::TextTable;
    bench::quiet_logs();

    bench::print_header("Fig. 8 — Point-to-point transfer time vs message size",
                        "Simulated 1GbE transport; linear fit recovers alpha/beta");

    const comm::NetworkModel net = comm::NetworkModel::one_gbps_ethernet();
    std::vector<double> sizes, times;
    TextTable table({"# of parameters", "measured [ms]", "predicted [ms]"});
    for (std::size_t n : {0u, 50'000u, 100'000u, 200'000u, 400'000u, 600'000u,
                          800'000u, 1'000'000u}) {
        auto result = comm::Cluster::run_timed(2, net, [&](comm::Communicator& comm) {
            std::vector<float> payload(comm.rank() == 0 ? n : 0, 1.0f);
            collectives::broadcast(comm, payload, /*root=*/0);
        });
        const double measured_ms = result.final_time_s[1] * 1e3;
        const double predicted_ms = net.transfer_time_elems(n) * 1e3;
        sizes.push_back(static_cast<double>(n));
        times.push_back(measured_ms);
        table.add_row({TextTable::fmt_int(static_cast<long long>(n)),
                       TextTable::fmt(measured_ms, 3), TextTable::fmt(predicted_ms, 3)});
    }
    table.print(std::cout);

    const util::LinearFit fit = util::linear_fit(sizes, times);
    std::cout << "\nFitted alpha = " << TextTable::fmt(fit.intercept, 3)
              << " ms (paper: 0.436 ms), beta = " << fit.slope * 1e3
              << " us/element (paper: 0.036 us/element), R^2 = "
              << TextTable::fmt(fit.r2, 6) << "\n";
    return 0;
}
