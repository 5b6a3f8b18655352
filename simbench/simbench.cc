/**
 * @file
 * End-to-end simulator benchmark: runs one named workload -- a fixed
 * list of whole-system cells taken from the sweep presets -- on one
 * thread, and prints the raw per-set measurements as one JSON document
 * for run.py to aggregate.
 *
 *   simbench --workload bulk-tx --seed 1 --seconds 10
 *
 * The process first runs every cell once through the reference path
 * (plain System::run, or the preset's runner for topology cells).  That
 * pass is untimed: it warms the allocator and caches and pins each
 * cell's report digest.  It then repeats timed sets -- every cell once,
 * through the cell driver below -- until --seconds have elapsed (at
 * least kMinSets).  The cell driver splits host time into set-up
 * (construct, start, tear down), simulation and report building, takes
 * windowed deltas of every component counter, and samples the event
 * heap depth between fixed window slices.  A cell fails when its report
 * differs from the reference byte for byte, when it reports a DMA
 * violation, or when it throws.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/system.hh"
#include "net/eth_switch.hh"
#include "net/transport/tcp.hh"
#include "net/workload/workload_engine.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "sim/topology.hh"

// --- counting global allocator ------------------------------------------
//
// Every heap allocation in the process passes through here, so the cell
// driver can report allocations per wire frame inside the measurement
// window.  Over-aligned and nothrow forms keep the library defaults
// (libstdc++ routes the nothrow forms through these).

namespace {

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace simbench {

using namespace cdna;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSets = 3;
/** Window slices between which the event-heap depth is sampled. */
constexpr int kSlices = 64;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- cells -----------------------------------------------------------------

/** One whole-system cell of a workload: a preset run point. */
struct Cell
{
    std::string name; //!< "<preset>:<cell>"
    sim::RunPoint point;
    /** Set for topology cells: the preset's own executor. */
    sim::ExperimentSpec::Runner runner;
};

/** The run point of @p cell in preset @p preset, at @p seed and window. */
Cell
pick(const std::string &preset, const std::string &cell, std::uint64_t seed,
     sim::Time warmup, sim::Time measure)
{
    auto spec = sim::presets::byName(preset);
    if (!spec)
        throw std::runtime_error("no preset " + preset);
    for (sim::RunPoint &p : spec->expand()) {
        if (p.cell != cell)
            continue;
        p.seed = seed;
        p.config.withSeed(seed);
        p.warmup = warmup;
        p.measure = measure;
        return {preset + ":" + cell, std::move(p), spec->runnerFn()};
    }
    throw std::runtime_error("no cell " + cell + " in preset " + preset);
}

/** The cells of workload @p name; empty for an unknown name. */
std::vector<Cell>
workloadCells(const std::string &name, std::uint64_t seed)
{
    const sim::Time w = sim::milliseconds(20), m = sim::milliseconds(100);
    std::vector<Cell> cells;
    if (name == "bulk-tx") {
        for (const char *c : {"xen/g1", "xen/g24", "cdna/g1", "cdna/g24"})
            cells.push_back(pick("fig3", c, seed, w, m));
        cells.push_back(pick("table4", "cdna/tx/noprot", seed, w, m));
        cells.push_back(pick("oversub", "cdna/g64", seed, w, m));
    } else if (name == "bulk-rx") {
        for (const char *c :
             {"xen/g1/rx", "xen/g24/rx", "cdna/g1/rx", "cdna/g24/rx"})
            cells.push_back(pick("fig4", c, seed, w, m));
        cells.push_back(pick("swpt", "swpt/g8/rx", seed, w, m));
    } else if (name == "closed-loop") {
        for (const char *c :
             {"xen/drop0", "xen/drop0.01", "cdna/drop0", "cdna/drop0.01"})
            cells.push_back(pick("tcp-loss", c, seed, w, m));
        for (const char *c : {"xen/load10k/healthy", "cdna/load10k/healthy",
                              "swpt/load10k/healthy"})
            cells.push_back(pick("latency", c, seed, w, m));
        cells.push_back(pick("incast", "cdna/f8/buf32k", seed, w, m));
    }
    return cells;
}

// --- built instances ---------------------------------------------------------

/** A constructed cell: one System, or a Topology whose host 0 reports. */
struct Instance
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<sim::Topology> topo;

    sim::SimContext &ctx() { return topo ? topo->ctx() : sys->ctx(); }
    core::System &host() { return topo ? topo->host(0) : *sys; }
};

/**
 * Build the incast topology exactly as the incast preset's runner does
 * (same construction and scheduling order), so driving it here yields
 * the runner's report byte for byte.
 */
Instance
buildIncast(const sim::RunPoint &point)
{
    const core::SystemConfig &cfg = point.config;
    auto fanout = static_cast<std::uint32_t>(cfg.scenarioOr("fanout", 4.0));
    net::EthSwitchParams sw_params;
    sw_params.bufBytesPerPort = static_cast<std::uint64_t>(
        cfg.scenarioOr("switch_buf_bytes",
                       static_cast<double>(cfg.costs.switchBufBytesPerPort)));
    sw_params.forwardLatency = cfg.costs.switchForwardLatency;

    Instance in;
    in.topo = std::make_unique<sim::Topology>(cfg.seed);
    sim::Topology &topo = *in.topo;
    auto &sw = topo.addSwitch("sw", fanout + 1, sw_params);
    auto &host = topo.addHost(cfg, {&sw});
    std::vector<net::TrafficPeer *> senders;
    for (std::uint32_t i = 0; i < fanout; ++i)
        senders.push_back(&topo.addPeer("snd" + std::to_string(i), sw));
    net::MacAddr dst = host.guestMac(0, 0);
    net::transport::TcpParams tcp = cfg.tcpParams;
    topo.ctx().events().schedule(sim::milliseconds(1), [senders, dst, tcp] {
        for (auto *p : senders)
            p->applyWorkload(net::workload::WorkloadSpec{}
                                 .overTcp(tcp)
                                 .toward({dst})
                                 .withClass(
                                     net::workload::FlowClass::saturating()));
    });
    return in;
}

Instance
build(const Cell &cell)
{
    if (cell.runner) {
        if (cell.name.rfind("incast:", 0) != 0)
            throw std::runtime_error("no topology builder for " + cell.name);
        return buildIncast(cell.point);
    }
    Instance in;
    in.sys = std::make_unique<core::System>(cell.point.config);
    return in;
}

/** The reference report: plain System::run, or the preset's runner. */
core::Report
referenceReport(const Cell &cell)
{
    if (cell.runner) {
        std::map<std::string, double> extra;
        return cell.runner(cell.point, extra);
    }
    core::System sys(cell.point.config);
    return sys.run(cell.point.warmup, cell.point.measure);
}

std::string
digest(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// --- per-layer counters ------------------------------------------------------

template <typename T>
bool
is(const sim::SimObject &o)
{
    return dynamic_cast<const T *>(&o) != nullptr;
}

bool
isWire(const sim::SimObject &o)
{
    return is<net::EthLink>(o) || is<net::EthSwitch>(o);
}

/**
 * A per-layer count: the sum of the named counters over every
 * component of one type.  A name starting with '*' matches any counter
 * ending in the rest (per-port counters such as "p0_tx_frames").
 */
struct LayerCounter
{
    const char *metric;
    bool (*owns)(const sim::SimObject &);
    std::vector<const char *> counters;
};

const std::vector<LayerCounter> &
layerCounters()
{
    using net::transport::TcpEndpoint;
    using net::workload::WorkloadEngine;
    static const std::vector<LayerCounter> table = {
        {"cpu.tasks", is<cpu::SimCpu>, {"tasks"}},
        {"cpu.domain_switches", is<cpu::SimCpu>, {"domain_switches"}},
        {"mem.dma_reads", is<mem::DmaEngine>, {"reads"}},
        {"mem.dma_writes", is<mem::DmaEngine>, {"writes"}},
        {"mem.dma_bytes", is<mem::DmaEngine>, {"read_bytes", "write_bytes"}},
        {"mem.pci_transfers", is<mem::PciBus>, {"transfers"}},
        {"mem.grant_flips", is<mem::GrantTable>, {"flips"}},
        {"mem.dma_violations", is<mem::PhysMemory>, {"dma_violations"}},
        {"nic.fw_jobs", is<nic::FirmwareProc>, {"jobs"}},
        {"nic.irqs", is<nic::NicBase>, {"irqs"}},
        {"nic.rx_drops",
         is<nic::NicBase>,
         {"rx_drop_filter", "rx_drop_no_buf", "rx_drop_no_desc"}},
        {"core.doorbells", is<core::CdnaGuestDriver>, {"doorbells"}},
        {"core.mailbox_events", is<core::CdnaNic>, {"mailbox_events"}},
        {"core.bit_vectors", is<core::CdnaNic>, {"bit_vectors"}},
        {"core.prot_descriptors", is<core::DmaProtection>, {"descriptors"}},
        {"core.prot_pages_pinned", is<core::DmaProtection>, {"pages_pinned"}},
        {"core.cxt_page_traps", is<core::CdnaNic>, {"cxt_page_traps"}},
        {"vmm.hypercalls", is<vmm::Hypervisor>, {"hypercalls"}},
        {"vmm.virt_irqs", is<vmm::Hypervisor>, {"virt_irqs"}},
        {"vmm.phys_irqs", is<vmm::Hypervisor>, {"phys_irqs"}},
        {"vmm.swpt_doorbell_traps", is<vmm::SwptValidator>, {"doorbell_traps"}},
        {"os.stack_rx_packets", is<os::NetStack>, {"rx_packets"}},
        {"os.bridge_packets", is<os::DriverDomainNet>, {"bridge_packets"}},
        {"os.tx_stalls", is<os::NetStack>, {"tx_stalls"}},
        {"net.link_frames", isWire, {"*_tx_frames"}},
        {"net.tcp_segs_sent", is<TcpEndpoint>, {"segs_sent"}},
        {"net.tcp_retrans", is<TcpEndpoint>, {"segs_retransmitted"}},
        {"net.tcp_rtos", is<TcpEndpoint>, {"rto_events"}},
        {"net.switch_drops", is<net::EthSwitch>, {"*_egress_drops"}},
        {"net.rpc_requests", is<WorkloadEngine>, {"rpc_requests"}},
        {"net.rpc_timeouts", is<WorkloadEngine>, {"rpc_timeouts"}},
    };
    return table;
}

bool
counterMatches(const std::string &name, const char *pattern)
{
    if (pattern[0] != '*')
        return name == pattern;
    std::size_t n = std::strlen(pattern + 1);
    return name.size() >= n &&
           name.compare(name.size() - n, n, pattern + 1) == 0;
}

/** Current value of every layer counter, plus the host-side counts. */
std::map<std::string, std::uint64_t>
snapshot(sim::SimContext &ctx)
{
    // Host counts first, so the map's own allocations fall outside.
    std::uint64_t allocs = gAllocs.load(std::memory_order_relaxed);
    std::uint64_t alloc_bytes = gAllocBytes.load(std::memory_order_relaxed);
    std::map<std::string, std::uint64_t> s;
    for (const LayerCounter &lc : layerCounters()) {
        std::uint64_t sum = 0;
        for (const sim::SimObject *obj : ctx.objects()) {
            if (!lc.owns(*obj))
                continue;
            for (const auto &[name, c] : obj->stats().counters())
                for (const char *pattern : lc.counters)
                    if (counterMatches(name, pattern))
                        sum += c->value();
        }
        s[lc.metric] = sum;
    }
    s["sim.events"] = ctx.events().dispatchedCount();
    s["host.allocs"] = allocs;
    s["host.alloc_bytes"] = alloc_bytes;
    return s;
}

// --- the cell driver ---------------------------------------------------------

/** Host time of one cell in one set. */
struct CellTimes
{
    double setupS = 0;  //!< construct + start + tear down
    double wallS = 0;   //!< warmup + window simulation
    double windowS = 0; //!< window simulation only
    double reportMs = 0;
};

/** Host-side measurements of one timed set (all cells once). */
struct SetResult
{
    std::vector<CellTimes> times; //!< one entry per cell
    std::uint64_t pendingPeak = 0;
    std::map<std::string, std::uint64_t> counters; //!< window deltas
};

/** Drive one cell; @return its report JSON. */
std::string
driveCell(const Cell &cell, SetResult &set)
{
    CellTimes t;
    Clock::time_point t0 = Clock::now();
    Instance in = build(cell);
    core::System &host = in.host();
    host.start();
    t.setupS = secondsSince(t0);

    Clock::time_point t1 = Clock::now();
    sim::EventQueue &eq = in.ctx().events();
    eq.runUntil(eq.now() + cell.point.warmup);
    host.beginMeasurement();
    double warmS = secondsSince(t1);
    std::map<std::string, std::uint64_t> before = snapshot(in.ctx());
    Clock::time_point t2 = Clock::now();
    sim::Time start = eq.now();
    for (int i = 1; i <= kSlices; ++i) {
        eq.runUntil(start + cell.point.measure * i / kSlices);
        set.pendingPeak = std::max<std::uint64_t>(set.pendingPeak,
                                                  eq.pendingCount());
    }
    t.windowS = secondsSince(t2);
    t.wallS = warmS + t.windowS;
    std::map<std::string, std::uint64_t> after = snapshot(in.ctx());
    for (const auto &[name, v] : after)
        set.counters[name] += v - before[name];

    Clock::time_point t3 = Clock::now();
    std::string json =
        core::reportToJson(host.endMeasurement(cell.point.measure));
    t.reportMs = 1e3 * secondsSince(t3);

    Clock::time_point t4 = Clock::now();
    in = Instance{};
    t.setupS += secondsSince(t4);
    set.times.push_back(t);
    return json;
}

// --- output ------------------------------------------------------------------

void
printNumber(const char *key, double v, bool comma = true)
{
    std::printf("\"%s\": %.17g%s", key, v, comma ? ", " : "");
}

/** One host time of every cell in a set, as a JSON array. */
void
printTimes(const char *key, const std::vector<CellTimes> &times,
           double CellTimes::*field)
{
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < times.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", times[i].*field);
    std::printf("], ");
}

int
run(const std::string &workload, std::uint64_t seed, double seconds)
{
    Clock::time_point begin = Clock::now();
    std::vector<Cell> cells = workloadCells(workload, seed);
    if (cells.empty()) {
        std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    std::uint64_t attempted = 0, failed = 0;
    auto fail = [&failed](const std::string &cell, const std::string &why) {
        ++failed;
        std::fprintf(stderr, "simbench: FAILED %s: %s\n", cell.c_str(),
                     why.c_str());
    };

    // Untimed reference pass: warms up and pins every digest.
    std::vector<core::Report> refs;
    std::vector<std::string> refDigest;
    for (const Cell &cell : cells) {
        ++attempted;
        core::Report r;
        std::string json;
        try {
            r = referenceReport(cell);
            json = core::reportToJson(r);
        } catch (const std::exception &e) {
            fail(cell.name, e.what());
        }
        if (r.dmaViolations > 0)
            fail(cell.name, "dma_violations > 0");
        refs.push_back(r);
        refDigest.push_back(digest(json));
    }

    std::vector<SetResult> sets;
    while (sets.size() < kMinSets || secondsSince(begin) < seconds) {
        SetResult set;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            try {
                std::string d = digest(driveCell(cells[i], set));
                if (d != refDigest[i])
                    fail(cells[i].name,
                         "digest " + d + " != reference " + refDigest[i]);
            } catch (const std::exception &e) {
                fail(cells[i].name, e.what());
            }
        }
        sets.push_back(std::move(set));
    }

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);

    std::printf("{\"attempted\": %llu, \"failed\": %llu, ",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    printNumber("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    std::printf("\n \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::Report &r = refs[i];
        std::printf("  {\"name\": \"%s\", \"digest\": \"%s\", ",
                    cells[i].name.c_str(), refDigest[i].c_str());
        std::printf("\"rpc\": %s, ", r.rpcRequests > 0 ? "true" : "false");
        printNumber("window_s", sim::toSeconds(cells[i].point.measure));
        printNumber("mbps", r.mbps);
        printNumber("idle_pct", r.idlePct);
        printNumber("hyp_pct", r.hypPct);
        printNumber("drv_os_pct", r.drvOsPct);
        printNumber("guest_os_pct", r.guestOsPct);
        printNumber("rpc_lat_p99_us", r.rpcLatP99Us, false);
        std::printf("}%s\n", i + 1 < cells.size() ? "," : "");
    }
    std::printf(" ],\n \"sets\": [\n");
    for (std::size_t s = 0; s < sets.size(); ++s) {
        const SetResult &set = sets[s];
        std::printf("  {");
        printTimes("setup_s", set.times, &CellTimes::setupS);
        printTimes("wall_s", set.times, &CellTimes::wallS);
        printTimes("window_s", set.times, &CellTimes::windowS);
        printTimes("report_ms", set.times, &CellTimes::reportMs);
        printNumber("sim.pending_peak", static_cast<double>(set.pendingPeak));
        std::printf("\"counters\": {");
        bool first = true;
        for (const auto &[name, v] : set.counters) {
            std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                        static_cast<unsigned long long>(v));
            first = false;
        }
        std::printf("}}%s\n", s + 1 < sets.size() ? "," : "");
    }
    std::printf(" ]}\n");
    return failed == 0 ? 0 : 1;
}

} // namespace simbench

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        if (flag == "--workload")
            workload = argv[i + 1];
        else if (flag == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(argv[i + 1], nullptr);
        else {
            std::fprintf(stderr, "simbench: unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    return simbench::run(workload, seed, seconds);
}
