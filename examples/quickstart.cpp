/**
 * @file
 * Quickstart: run the three I/O virtualization architectures the paper
 * compares -- Xen software virtualization over an Intel NIC, Xen over
 * the (CDNA-capable) RiceNIC, and CDNA itself -- with one guest and two
 * Gigabit NICs, for both transmit and receive, and print paper-style
 * report rows (compare with Tables 2 and 3 of the paper).
 *
 * The grid is declared once as an ExperimentSpec and executed by the
 * sweep runner; pass -j N to run the six cells on N worker threads
 * (the results are byte-identical regardless).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Pass --trace=FILE / --stats-json=FILE to record a Chrome trace and a
 * metrics dump of the CDNA transmit run (open the trace in
 * chrome://tracing or https://ui.perfetto.dev).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/fault_plan.hh"
#include "core/system.hh"
#include "sim/sweep.hh"

using namespace cdna;

int
main(int argc, char **argv)
{
    sim::SweepOptions opt;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a != "-j" && a != "--jobs") {
            args.push_back(a);
            continue;
        }
        std::string v = i + 1 < argc ? argv[++i] : "";
        std::uint32_t jobs = 0;
        if (!core::parseCount(v, &jobs) || jobs == 0) {
            std::fprintf(stderr,
                         "quickstart: %s needs a positive integer, got '%s'\n",
                         a.c_str(), v.c_str());
            return 1;
        }
        opt.jobs = jobs;
    }
    std::string error;
    auto obs = core::parseCli(args, &error);
    if (!obs) {
        std::fprintf(stderr, "quickstart: %s\n", error.c_str());
        return 1;
    }
    opt.obs = *obs;
    opt.observeCell = "cdna/tx";

    auto spec = sim::ExperimentSpec("quickstart")
                    .config("xen-intel", core::SystemConfig::xenIntel(1))
                    .config("xen-ricenic", core::SystemConfig::xenRice(1))
                    .config("cdna", core::SystemConfig::cdna(1))
                    .directions(true, true)
                    .warmup(sim::milliseconds(50))
                    .measure(sim::milliseconds(400));
    auto result = sim::runSweep(spec, opt);

    std::printf("CDNA quickstart: 1 guest, 2 Gigabit NICs\n\n");
    std::printf("%s\n", core::Report::header().c_str());
    for (const char *dir : {"/tx", "/rx"}) {
        for (const auto &run : result.runs)
            if (run.point.cell.ends_with(dir))
                std::printf("%s\n", run.report.row().c_str());
        std::printf("\n");
    }
    return 0;
}
