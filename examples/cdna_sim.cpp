/**
 * @file
 * `cdna_sim`: command-line front end for the simulator.
 *
 *   cdna_sim --mode cdna --guests 8 --direction rx --seconds 1
 *   cdna_sim --mode xen --nic intel --guests 24 --json
 *   cdna_sim --mode cdna --no-protection --iommu context
 *
 * Prints the paper-style report row (or JSON with --json) for any
 * configuration, making parameter sweeps scriptable.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "sim/sweep.hh"

using namespace cdna;

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string error;
    auto opt = core::parseCli(args, &error);
    if (!opt) {
        std::fprintf(stderr, "cdna_sim: %s\n%s", error.c_str(),
                     core::cliUsage().c_str());
        return 1;
    }
    if (opt->help) {
        std::printf("%s", core::cliUsage().c_str());
        return 0;
    }

    // One run is one sweep cell: the same executor, observed by the
    // same Topology::run.  A configuration the machine cannot hold (more
    // guests than its memory) throws while the System is built or
    // started, an unwritable --trace or --stats-json file once the run
    // ends.
    sim::RunPoint point;
    point.seed = opt->config.seed;
    point.config = opt->config;
    point.warmup = opt->warmup;
    point.measure = opt->measure;
    point.observe = &*opt;
    core::Report r;
    try {
        r = sim::runHost(point);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cdna_sim: %s\n", e.what());
        return 1;
    }

    if (opt->json) {
        std::printf("%s", core::reportToJson(r).c_str());
    } else {
        std::printf("%s\n%s\n", core::Report::header().c_str(),
                    r.row().c_str());
        std::printf("latency us (mean/p50/p99): %.0f / %.0f / %.0f   "
                    "fairness: %.2f\n",
                    r.latencyMeanUs, r.latencyP50Us, r.latencyP99Us,
                    r.fairness());
        std::string summary = r.faultSummary();
        if (!summary.empty())
            std::printf("%s\n", summary.c_str());
    }
    return 0;
}
