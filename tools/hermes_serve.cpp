// hermes_serve — deployment-as-a-service daemon around core::Engine.
//
//   hermes_serve --topology <spec> [options]            stdin/stdout mode
//   hermes_serve --topology <spec> --listen <port>      TCP mode (loopback)
//   hermes_serve --topology <spec> --emit-churn <n>[:seed]
//       Print a deterministic churn script (one JSON request per line) and
//       exit — pipe it back into a serving instance for smoke tests:
//         hermes_serve --topology table3:1 --emit-churn 100:7 |
//           hermes_serve --topology table3:1 --metrics-out metrics.json
//
// The wire protocol (line-delimited JSON requests/responses) and the epoch
// batching rules are documented in src/core/serve.h and DESIGN.md §5j.
//
// Options (also accepted by `hermes_cli serve`):
//   --topology <spec>       testbed[:n[:stages]] | table3:<id> | random:<n>:<e>[:seed]
//   --eps1 <us>             end-to-end latency bound (default: unbounded)
//   --eps2 <switches>       occupied-switch bound (default: unbounded)
//   --threads <n>           branch-and-bound worker threads (default 1)
//   --seed <n>              RNG seed (default 1)
//   --epoch-deadline <s>    wall-clock budget per epoch re-solve (0 = none)
//   --repair-deadline <s>   alias of --epoch-deadline (the paper-facing
//                           spelling); past it an epoch serves its truncated
//                           greedy result, else the still-verifying
//                           incumbent, instead of failing
//   --time-limit <s>        MILP escalation budget (default 30)
//   --allow-milp            escalate an epoch to MILP when its greedy
//                           re-solve fails to verify
//   --listen <port>         serve TCP on 127.0.0.1:<port> (0 = ephemeral;
//                           the bound port is printed to stderr)
//   --max-connections <n>   exit after n TCP connections (0 = run forever)
//   --journal <file>        write-ahead journal: recover state from <file>
//                           at startup (if it exists), then log every epoch
//                           before mutating (DESIGN.md §5k)
//   --durability <mode>     none | batch (default) | epoch — fsync policy
//                           for journal appends
//   --snapshot-interval <n> epochs between snapshot rotations (default 64)
//   --max-request-bytes <n> reject request lines larger than n bytes with a
//                           retryable resource_exhausted error (default 1MiB,
//                           0 = unbounded)
//   --max-epoch-ops <n>     shed mutations staged past n per epoch (default
//                           1024, 0 = unbounded)
//   --metrics-out <file>    write counters/histograms JSON at exit
//   --trace-out <file>      write Chrome trace JSON at exit
#include <iostream>
#include <string>
#include <vector>

#include "serve_main.h"

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string& a : args) {
        if (a == "--help" || a == "-h") {
            std::cerr << "usage: hermes_serve --topology <spec> [--listen <port>]\n"
                         "       hermes_serve --topology <spec> --emit-churn <n>[:seed]\n"
                         "see the header of tools/hermes_serve.cpp for all options\n";
            return 0;
        }
    }
    return hermes::cli::run_serve(args);
}
