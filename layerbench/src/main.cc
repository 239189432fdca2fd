// layerbench — the repository's end-to-end benchmark. See README.md in this
// directory for the workloads, metrics and how to run them.
//
//   layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>] [--git-sha <sha>]
//   layerbench --record-fct <first-seed> <last-seed>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <sys/statfs.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace layerbench {

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string filesystem_type(const std::string& dir) {
    struct statfs fs{};
    if (statfs(dir.c_str(), &fs) != 0) return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
        case 0xEF53: return "ext4";
        case 0x58465342: return "xfs";
        case 0x9123683E: return "btrfs";
        case 0x01021994: return "tmpfs";
        case 0x794C7630: return "overlayfs";
        case 0x6969: return "nfs";
        case 0x65735546: return "fuse";
        default: return "magic-0x" + [&] {
            char buf[20];
            std::snprintf(buf, sizeof buf, "%lx", static_cast<unsigned long>(fs.f_type));
            return std::string(buf);
        }();
    }
}

std::string compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

int usage() {
    std::cerr << "usage: layerbench --workload <serve-churn|cold-deploy|traffic-serial> "
                 "--seed <n> --seconds <s> --trace <0|1>\n"
                 "                  [--work-dir <dir>] [--git-sha <sha>]\n"
                 "       layerbench --record-fct <first-seed> <last-seed>\n";
    return 2;
}

}  // namespace

}  // namespace layerbench

int main(int argc, char** argv) {
    using namespace layerbench;
    const std::vector<std::string> args(argv + 1, argv + argc);
    RunArgs run;
    run.serve_bin = LAYERBENCH_SERVE_BIN;
    run.work_dir = ".";
    std::string git_sha = "unknown";
    bool have_workload = false;
    try {
        if (args.size() == 3 && args[0] == "--record-fct") {
            return record_fct_checksums(std::stoull(args[1]), std::stoull(args[2]));
        }
        for (std::size_t i = 0; i < args.size(); i += 2) {
            if (i + 1 >= args.size()) return usage();
            const std::string& flag = args[i];
            const std::string& value = args[i + 1];
            if (flag == "--workload") {
                run.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                run.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                run.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return usage();
                run.trace = value == "1";
            } else if (flag == "--work-dir") {
                run.work_dir = value;
            } else if (flag == "--git-sha") {
                git_sha = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (!have_workload || !(run.seconds > 0.0)) return usage();

    std::cout << "stamp: git " << git_sha << " | compiler " << compiler() << " | build "
              << LAYERBENCH_BUILD_TYPE << " | nproc " << std::thread::hardware_concurrency()
              << " | journal fs " << filesystem_type(run.work_dir) << "\n";
    std::cout << "run: workload " << run.workload << " | seed " << run.seed << " | seconds "
              << run.seconds << " | trace " << (run.trace ? 1 : 0) << "\n";

    Outcome outcome;
    try {
        if (run.workload == "serve-churn") {
            run_serve_churn(run, outcome);
        } else if (run.workload == "cold-deploy") {
            run_cold_deploy(run, outcome);
        } else if (run.workload == "traffic-serial") {
            run_traffic(run, outcome);
        } else {
            return usage();
        }
    } catch (const std::exception& ex) {
        std::cerr << "layerbench: " << ex.what() << "\n";
        return 1;
    }
    std::cout << outcome.json_line() << std::endl;
    return 0;
}
