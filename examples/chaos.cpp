/**
 * @file
 * Chaos run: the CDNA configuration under an aggressive fault plan.
 *
 * Runs the same 4-guest CDNA transmit workload twice -- once clean,
 * once with frames dropped/corrupted/duplicated on the wire, DMA
 * completions delayed, one firmware stall with a watchdog reset, and
 * one guest killed mid-transfer -- and prints both report rows plus the
 * fault/recovery counters.  The interesting property is what does NOT
 * happen: no DMA protection violation, no hung simulation, and the
 * surviving guests keep their share of the wire.
 *
 * Exits nonzero if any DMA protection violation is recorded, so it
 * doubles as a smoke test: ctest runs it as `Examples.chaos`.
 *
 *   ./build/examples/chaos [--seed N] [--json] [observability flags]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/fault_plan.hh"
#include "core/system.hh"

using namespace cdna;

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string error;
    auto opt = core::parseCli(args, &error);
    if (!opt) {
        std::fprintf(stderr, "chaos: %s\n%s", error.c_str(),
                     core::cliUsage().c_str());
        return 1;
    }
    if (opt->help) {
        std::printf("%s", core::cliUsage().c_str());
        return 0;
    }

    core::FaultPlan plan;
    plan.dropping(0.01)
        .corrupting(0.002)
        .duplicating(0.005)
        .delayingDma(0.05, 25.0)
        .stallingFirmware(0, /*at_ms=*/120.0, /*dur_ms=*/5.0)
        .killingGuest(3, /*at_ms=*/250.0);

    auto base = core::SystemConfig::cdna(4).withSeed(opt->config.seed);
    sim::Time warmup = sim::milliseconds(100);
    sim::Time measure = sim::milliseconds(400);

    std::printf("%s\n", core::Report::header().c_str());

    core::System clean(core::SystemConfig(base).withLabel("cdna/clean"));
    core::Report rc = clean.run(warmup, measure);
    std::printf("%s\n", rc.row().c_str());

    core::System chaotic(core::SystemConfig(base)
                             .withLabel("cdna/chaos")
                             .withFaults(plan));
    core::ObservabilitySession obs(chaotic, *opt);
    core::Report rf = chaotic.run(warmup, measure);
    if (!obs.close(&error))
        std::fprintf(stderr, "warning: %s\n", error.c_str());
    std::printf("%s\n", rf.row().c_str());
    std::printf("%s\n", rf.faultSummary().c_str());

    if (opt->json)
        std::printf("%s", core::reportToJson(rf).c_str());

    std::printf("\nchaos goodput: %.0f Mb/s (clean %.0f); faults survived: "
                "%llu dropped, %llu corrupted, %llu duplicated, %llu DMA "
                "delays,\n%llu firmware stall(s), %llu guest kill(s); "
                "recovery: %llu watchdog timeout(s), %llu ring resync(s)\n",
                rf.mbps, rc.mbps,
                static_cast<unsigned long long>(rf.faultFramesDropped),
                static_cast<unsigned long long>(rf.faultFramesCorrupted),
                static_cast<unsigned long long>(rf.faultFramesDuplicated),
                static_cast<unsigned long long>(rf.faultDmaDelays),
                static_cast<unsigned long long>(rf.firmwareStalls),
                static_cast<unsigned long long>(rf.guestKills),
                static_cast<unsigned long long>(rf.mailboxTimeouts),
                static_cast<unsigned long long>(rf.ringResyncs));

    if (rf.dmaViolations != 0 || rc.dmaViolations != 0) {
        std::fprintf(stderr,
                     "chaos: FAIL: %llu DMA protection violation(s)\n",
                     static_cast<unsigned long long>(rf.dmaViolations +
                                                     rc.dmaViolations));
        return 1;
    }
    std::printf("chaos: OK: zero DMA protection violations\n");
    return 0;
}
