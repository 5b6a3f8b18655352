/**
 * @file
 * Declarative workload description: the two traffic shapes the
 * experiments run.
 *
 * A WorkloadSpec is a value type in the fluent house style of
 * SystemConfig / ExperimentSpec.  One idempotent `applyWorkload(spec)`
 * call is TrafficPeer's single configuration entry point, and a spec
 * holds flow classes of two kinds:
 *
 *  - a saturating class, the paper's line-rate source (§5.1), which
 *    runs on the peer's own machinery (raw frames, or unlimited Reno
 *    flows under TCP);
 *  - a request/response RPC class with Poisson arrivals and
 *    per-request latency tracking, which runs on a WorkloadEngine.
 *
 * Determinism contract (mirrors sim/fault_injector.hh): all workload
 * randomness is drawn from a dedicated RNG stream derived from
 * `workloadStreamSeed(spec.seed)` and the generating endpoint's MAC --
 * never from the shared context RNG -- so enabling, disabling, or
 * re-ordering workload classes cannot perturb any other subsystem's
 * random sequence, and a run's report is byte-identical across
 * `-j1` / `-jN` sweep execution.
 */

#ifndef CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH
#define CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "net/transport/tcp.hh"
#include "sim/event_queue.hh"

namespace cdna::net::workload {

/**
 * Derive the dedicated workload RNG stream from the system seed.
 * Distinct from the context stream and from faultStreamSeed so that
 * workload draws never alias another subsystem's sequence.
 */
constexpr std::uint64_t
workloadStreamSeed(std::uint64_t system_seed)
{
    return system_seed ^ 0xF10CA5CADE5EED01ull;
}

/** Geometry of the fine-grained RPC latency histograms (microsecond
 *  samples; 2^-3 = 12.5% bucket resolution, range beyond 4M us). */
constexpr int kRpcHistBuckets = 160;
constexpr int kRpcHistSubBits = 3;

/**
 * The one RPC shape the experiments run: a request in one wire frame,
 * answered by a response of one TSO segment; a request unanswered for
 * kRpcTimeout counts as timed out.
 */
constexpr std::uint32_t kRpcRequestBytes = 512;
constexpr std::uint32_t kRpcResponseBytes = 8 * 1024;
constexpr sim::Time kRpcTimeout = sim::milliseconds(50);
static_assert(kRpcRequestBytes <= kMss && kRpcResponseBytes <= kMaxTsoBytes);

/** What a flow class does; the kind implies its arrivals. */
enum class FlowKind : std::uint8_t {
    kSaturating, ///< back-to-back at line rate on the peer's own source
    kRpc,        ///< Poisson requests out, responses back, latency measured
};

/**
 * One class of traffic inside a WorkloadSpec.  Fluent setters return
 * *this so classes compose inline; the static factories build the two
 * kinds.
 */
struct FlowClass
{
    FlowKind kind = FlowKind::kSaturating;
    /** kRpc: mean Poisson request rate per second; <= 0 never fires. */
    double ratePerSec = 0.0;

    // ------------------------------------------------- fluent setters ----
    FlowClass &poissonAt(double rate)
    {
        ratePerSec = rate;
        return *this;
    }

    // ----------------------------------------------- named factories ----
    /** The line-rate source of the receive experiments: MSS frames. */
    static FlowClass saturating() { return FlowClass{}; }
    /** Request/response RPC of the one shape above; inert until
     *  poissonAt() sets a rate. */
    static FlowClass rpc() { return FlowClass{FlowKind::kRpc}; }
};

/**
 * The complete declarative description a TrafficPeer (or a System's
 * peers) accepts through applyWorkload().  Endpoint knobs are
 * std::optional: unset means "leave the endpoint's current setting
 * alone", so a spec carrying only flow classes composes with knobs
 * applied earlier.
 */
struct WorkloadSpec
{
    std::vector<FlowClass> classes;

    std::optional<std::uint32_t> ackEvery;
    std::optional<std::uint32_t> sourceWindow;
    /** Switch the endpoint to TCP (once; false leaves it as it is). */
    bool tcp = false;

    /** Destinations, cycled round-robin per class.  When the spec is
     *  attached to a SystemConfig and left empty, System fills in the
     *  guest MACs of each NIC. */
    std::vector<MacAddr> targets;

    /** Workload stream seed (System overrides with SystemConfig::seed). */
    std::uint64_t seed = 1;

    // ------------------------------------------------- fluent setters ----
    WorkloadSpec &
    withClass(FlowClass fc)
    {
        classes.push_back(fc);
        return *this;
    }
    WorkloadSpec &
    ackingEvery(std::uint32_t every)
    {
        ackEvery = every;
        return *this;
    }
    WorkloadSpec &
    windowed(std::uint32_t frames)
    {
        sourceWindow = frames;
        return *this;
    }
    /** TcpParams holds only constants, so the argument is ignored. */
    WorkloadSpec &
    overTcp(const transport::TcpParams & = {})
    {
        tcp = true;
        return *this;
    }
    WorkloadSpec &
    toward(std::vector<MacAddr> dsts)
    {
        targets = std::move(dsts);
        return *this;
    }

    /** No flow classes: System starts each peer of a receive run with
     *  one saturating class, and a transmit run's peers send nothing. */
    bool empty() const { return classes.empty(); }

    bool
    hasRpc() const
    {
        for (const auto &fc : classes)
            if (fc.kind == FlowKind::kRpc)
                return true;
        return false;
    }
};

} // namespace cdna::net::workload

#endif // CDNA_NET_WORKLOAD_WORKLOAD_SPEC_HH
