// Exp#5 / Figure 9: scalability. Varies the number of concurrently deployed
// programs from 10 to 50 on Table III topology 10 and reports overhead,
// execution time, FCT, and goodput per solution.
#include <iostream>

#include "bench_util.h"
#include "net/topozoo.h"
#include "prog/synthetic.h"
#include "util/table.h"

int main() {
    using namespace hermes;

    const net::Network n = net::table3_topology(10);
    // One shared path cache for the whole sweep: the topology never changes,
    // so the Dijkstra trees of the first program count answer every later
    // count (and all ten solutions) from cache.
    net::PathOracle oracle(n);

    bench::RunConfig config;
    config.baseline.milp.time_limit_seconds = 3.0;
    config.baseline.segment_level = true;
    config.baseline.candidate_limit = 0;  // auto: segments + slack
    config.baseline.oracle = &oracle;
    config.hermes.segment_level_milp = true;
    config.hermes.candidate_limit = 0;   // auto
    config.hermes.milp.time_limit_seconds = 3.0;
    config.hermes.oracle = &oracle;
    // Scalability sweep: give the ILP paths every core.
    config.baseline.milp.threads = 0;
    config.hermes.milp.threads = 0;

    sim::FlowSpec flow;
    flow.mtu_bytes = 1024;
    flow.payload_bytes_total = 8 << 20;  // 8 MB message per flow

    const std::vector<std::string> headers{"programs", "Hermes", "Optimal", "MS",
                                           "Sonata",   "SPEED",  "MTP",     "FP",
                                           "P4All",    "FFL",    "FFLS"};
    util::Table overhead(headers), exec_time(headers), fct(headers), goodput(headers);

    for (int count = 10; count <= 50; count += 10) {
        const auto programs = prog::paper_workload(count, 0xbeef);
        auto rows = bench::run_all_solutions(programs, n, config);
        bench::simulate_rows(rows, flow);
        std::vector<std::string> oh{util::Table::num(std::int64_t{count})};
        std::vector<std::string> tm{util::Table::num(std::int64_t{count})};
        std::vector<std::string> fc{util::Table::num(std::int64_t{count})};
        std::vector<std::string> gp{util::Table::num(std::int64_t{count})};
        for (const auto& row : rows) {
            oh.push_back(util::Table::num(row.metrics.max_pair_metadata_bytes));
            std::string cell = util::Table::num(row.solve_seconds * 1e3, 1);
            if (row.status.find("time-limit") != std::string::npos) cell += "*";
            tm.push_back(std::move(cell));
            const bool fits_mtu = row.goodput_gbps > 0.0;
            fc.push_back(fits_mtu ? util::Table::num(row.fct_us / 1e3, 1) : ">MTU");
            gp.push_back(fits_mtu ? util::Table::num(row.goodput_gbps, 2) : ">MTU");
        }
        std::cout << "[programs " << count << " done]" << std::endl;
        overhead.add_row(std::move(oh));
        exec_time.add_row(std::move(tm));
        fct.add_row(std::move(fc));
        goodput.add_row(std::move(gp));
    }
    overhead.print(std::cout, "Exp#5 (Fig 9a): per-packet byte overhead (bytes)");
    std::cout << '\n';
    exec_time.print(std::cout,
                    "Exp#5 (Fig 9b): execution time (ms; * = budget clipped)");
    std::cout << '\n';
    fct.print(std::cout, "Exp#5 (Fig 9c): flow completion time (ms)");
    std::cout << '\n';
    goodput.print(std::cout, "Exp#5 (Fig 9d): goodput (Gbps)");
    std::cout << "\nExpected shape (paper): Hermes' execution time grows gracefully with\n"
                 "program count while keeping the lowest overhead in all cases.\n";
    return 0;
}
