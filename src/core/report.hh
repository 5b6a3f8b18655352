/**
 * @file
 * Experiment report: the columns of the paper's Tables 1-4.
 *
 * Throughput, the Xenoprof-style execution profile (hypervisor /
 * driver-domain OS+user / guest OS+user / idle), and interrupt rates,
 * plus protection-related counters used by the security experiments.
 */

#ifndef CDNA_CORE_REPORT_HH
#define CDNA_CORE_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/stats.hh"
#include "sim/time.hh"

namespace cdna::core {

class System;

/**
 * Version of the JSON report schema (single-run reports and the sweep
 * aggregate share it).  Bump when a key is added, removed, renamed, or
 * reordered; consumers should reject versions they do not know.
 *
 * History:
 *   1  initial versioned schema: the PR-2 report keys plus
 *      "schema_version" itself (sweep aggregates wrap these per-run
 *      objects under "runs[].report").
 *   2  transport subsystem: "wire_mbps" appended after "fairness";
 *      "rx_drops_bad_csum", "tx_backlog_peak", "tx_backlog_now",
 *      "tcp_retrans_segs", "tcp_fast_retransmits", "tcp_rto_events",
 *      and "tcp_dup_acks" appended after "ring_resyncs".  All version-1
 *      keys keep their order and formatting.
 *   3  failure-domain recovery: "driver_domain_kills",
 *      "firmware_reboots", "fe_reconnects", "grants_revoked",
 *      "pages_quarantined", "quarantine_released", "mailbox_throttled",
 *      and "outage_packets_lost" appended after "tcp_dup_acks";
 *      "per_guest_downtime_us" and "per_guest_ttfp_us" arrays appended
 *      after "per_guest_mbps".  All version-2 keys keep their order and
 *      formatting.
 *   4  virtual-context oversubscription: "cxt_page_traps",
 *      "cxt_evictions", "cxt_page_ins", and "cxt_resident_peak"
 *      appended after "outage_packets_lost" (all zero -- except the
 *      resident peak, which counts allocated contexts -- unless the
 *      guests outnumber the NIC's contexts).  All
 *      version-3 keys keep their order and formatting.
 *   5  network fabric: "switch_drops", "switch_drop_bytes", and
 *      "switch_queue_peak_bytes" appended after "cxt_resident_peak"
 *      (all zero on a point-to-point link; nonzero only when a NIC
 *      rides an output-queued switch that tail-dropped or queued
 *      frames toward it).  All version-4 keys keep their order and
 *      formatting.
 *   6  workload/RPC layer: "rpc_lat_mean_us", "rpc_lat_p50_us",
 *      "rpc_lat_p99_us", "rpc_lat_p999_us", "rpc_offered_rps", and
 *      "rpc_achieved_rps" appended after "wire_mbps"; "rpc_requests",
 *      "rpc_responses", "rpc_timeouts", "flows_started", and
 *      "flows_completed" appended after "switch_queue_peak_bytes"
 *      (all zero unless the run carries an engine-backed
 *      WorkloadSpec).  All version-5 keys keep their order and
 *      formatting.
 *   7  software-only passthrough: "swpt_validation_us" appended after
 *      "rpc_achieved_rps"; "swpt_doorbell_traps", "swpt_desc_validated",
 *      and "swpt_desc_rejected" appended after "flows_completed" (all
 *      zero outside swPassthrough mode).  All version-6 keys keep
 *      their order and formatting.
 */
inline constexpr int kReportSchemaVersion = 7;

struct Report
{
    std::string label;

    /** Aggregate goodput in Mb/s over the measurement window. */
    double mbps = 0.0;

    /**
     * Raw wire payload throughput in Mb/s (includes retransmissions and
     * frames later discarded by the checksum check).  Equals goodput in
     * open-loop runs; under TCP, goodput <= wire throughput, with the
     * gap being retransmitted or corrupted bytes.
     */
    double wireMbps = 0.0;

    // Execution profile (percent of elapsed time).
    double hypPct = 0.0;
    double drvOsPct = 0.0;
    double drvUserPct = 0.0;
    double guestOsPct = 0.0;
    double guestUserPct = 0.0;
    double idlePct = 0.0;

    // Interrupt rates (per second of simulated time).
    double drvIntrPerSec = 0.0;   //!< virtual interrupts to the driver dom
    double guestIntrPerSec = 0.0; //!< virtual interrupts to all guests
    double physIrqPerSec = 0.0;
    double hypercallPerSec = 0.0;
    double domainSwitchPerSec = 0.0;

    // Protection / integrity counters (totals over the window).
    std::uint64_t protectionFaults = 0;
    std::uint64_t dmaViolations = 0;
    std::uint64_t rxDropsNoDesc = 0;
    std::uint64_t rxDropsNoBuf = 0;  //!< NIC packet buffer exhausted
    std::uint64_t rxDropsFilter = 0; //!< frame matched no context MAC

    // Fault injection & recovery (totals over the window; all zero
    // unless the run carries a fault plan).
    std::uint64_t faultFramesDropped = 0;
    std::uint64_t faultFramesCorrupted = 0;
    std::uint64_t faultFramesDuplicated = 0;
    std::uint64_t faultDmaDelays = 0;
    std::uint64_t firmwareStalls = 0;
    std::uint64_t guestKills = 0;
    std::uint64_t mailboxTimeouts = 0; //!< driver watchdog expiries
    std::uint64_t ringResyncs = 0;     //!< producer mailboxes re-rung

    /** Frames discarded by receivers' checksum check (both transports). */
    std::uint64_t rxDropsBadCsum = 0;

    // Guest-stack TX backlog (packets queued behind a full device).  The
    // two aggregate differently, so now can exceed peak: with 2 NICs,
    // one guest has two stacks, and "now" adds both depths while
    // "peak" is the larger of the two stacks' own peaks.
    std::uint64_t txBacklogPeak = 0; //!< largest single-stack peak
    std::uint64_t txBacklogNow = 0;  //!< sum over stacks at window end

    // TCP transport recovery activity (zero in open-loop runs).
    std::uint64_t tcpRetransSegs = 0;
    std::uint64_t tcpFastRetransmits = 0;
    std::uint64_t tcpRtoEvents = 0;
    std::uint64_t tcpDupAcks = 0;

    // Failure-domain recovery (schema 3; all zero without an
    // outage-class fault plan).
    std::uint64_t driverDomainKills = 0;
    std::uint64_t firmwareReboots = 0;
    std::uint64_t feReconnects = 0;     //!< Xen frontend reconnections
    std::uint64_t grantsRevoked = 0;    //!< mappings revoked at crash
    std::uint64_t pagesQuarantined = 0; //!< in-flight-DMA pages held
    std::uint64_t quarantineReleased = 0;
    std::uint64_t mailboxThrottled = 0; //!< doorbells rate-limited
    std::uint64_t outagePacketsLost = 0;

    // Virtual-context oversubscription (schema 4).
    std::uint64_t cxtPageTraps = 0;    //!< doorbells to paged-out contexts
    std::uint64_t cxtEvictions = 0;    //!< contexts evicted from a slot
    std::uint64_t cxtPageIns = 0;      //!< contexts restored into a slot
    std::uint64_t cxtResidentPeak = 0; //!< max simultaneously resident

    // Network fabric (schema 5; all zero on point-to-point links).
    std::uint64_t switchDrops = 0;     //!< frames tail-dropped toward us
    std::uint64_t switchDropBytes = 0; //!< wire bytes of those frames
    std::uint64_t switchQueuePeakBytes = 0; //!< egress-queue high water

    /** Per-guest goodput (fairness analysis), Mb/s. */
    std::vector<double> perGuestMbps;

    // Per-guest availability (schema 3): accumulated downtime, and the
    // recovery-to-first-packet lag, both in microseconds.
    std::vector<double> perGuestDowntimeUs;
    std::vector<double> perGuestTtfpUs;

    /**
     * End-to-end data-frame latency in microseconds (stack entry to
     * peer on transmit tests; wire to user space on receive tests).
     * Accumulated from simulation start (includes warmup).  P50/p99 are
     * power-of-two bucket upper bounds.
     */
    double latencyMeanUs = 0.0;
    double latencyP50Us = 0.0;
    double latencyP99Us = 0.0;

    /**
     * RPC request/response tail latency in microseconds (schema 6; all
     * zero without an RPC workload class).  Request enqueue at the
     * client engine to last response byte back at the client.
     * Quantiles come from the fine-grained sub-bucketed histogram, so
     * p999 is meaningful at microsecond scales.
     */
    double rpcLatMeanUs = 0.0;
    double rpcLatP50Us = 0.0;
    double rpcLatP99Us = 0.0;
    double rpcLatP999Us = 0.0;

    // Offered vs. achieved RPC load over the measurement window,
    // requests per second (schema 6).
    double rpcOfferedRps = 0.0;
    double rpcAchievedRps = 0.0;

    // Workload-engine activity (schema 6; totals over the window).
    std::uint64_t rpcRequests = 0;
    std::uint64_t rpcResponses = 0;
    std::uint64_t rpcTimeouts = 0;
    std::uint64_t flowsStarted = 0;
    std::uint64_t flowsCompleted = 0;

    /**
     * Software-only passthrough activity (schema 7; all zero outside
     * swPassthrough mode).  Validation time is the hypervisor time
     * spent on the doorbell path -- trap plus per-descriptor audit and
     * shadow copy -- in microseconds over the window.
     */
    double swptValidationUs = 0.0;
    std::uint64_t swptDoorbellTraps = 0;
    std::uint64_t swptDescValidated = 0;
    std::uint64_t swptDescRejected = 0;

    sim::Time window = 0;

    /** Paper-style table row: the label, then the profileKeys() columns. */
    std::string row() const;

    /** Header matching row(). */
    static std::string header();

    /**
     * One-line summary for the text report: "key=N" for every nonzero
     * windowed counter (each kDelta row of reportMetrics(), in table
     * order), e.g. "  frames_dropped=41 mailbox_timeouts=2".  Empty
     * when the window moved none, as in a clean run.
     */
    std::string faultSummary() const;

    /** Min/max per-guest throughput ratio (1.0 = perfectly fair). */
    double fairness() const;
};

/**
 * How a row turns what its collector reads into a report value.  Counter
 * kinds are sampled at both window edges; the others once, at its end.
 */
enum class MetricKind
{
    kDelta,        //!< counter: window end minus window begin
    kEnd,          //!< counter: value at window end (peaks, depths)
    kRate,         //!< counter: window delta per simulated second
    kMbps,         //!< byte counter: window delta in Mb/s
    kScaled,       //!< counter: window delta divided by MetricRow::param
    kPct,          //!< percent of the window, from the CPU profile
    kMean,         //!< latency samples: mean
    kQuantile,     //!< latency samples: quantile MetricRow::param
    kPerGuestMbps, //!< per-guest byte counters: window deltas in Mb/s
    kPerGuest,     //!< per-guest values at window end
    kDerived,      //!< computed from the report itself (fairness)
};

/**
 * One report key: the Report member it fills, its kind, and the
 * collector that reads it from one System's own components.
 */
struct MetricRow
{
    using Field = std::variant<double Report::*, std::uint64_t Report::*,
                               std::vector<double> Report::*,
                               double (Report::*)() const>;
    using Counter = std::uint64_t (*)(const System &);
    using GuestCounter = std::uint64_t (*)(const System &, std::uint32_t);
    using Share = double (*)(const System &, sim::Time window);
    /** One latency family, merged over the components recording it. */
    using Latency = sim::LatencyRecorder (*)(const System &);
    using GuestValue = double (*)(const System &, std::uint32_t);
    using Collector = std::variant<std::monostate, Counter, GuestCounter,
                                   Share, Latency, GuestValue>;

    const char *key;
    Field field;
    MetricKind kind;
    Collector collect = {};
    /** kScaled divisor, or kQuantile quantile. */
    double param = 0.0;
    /** Decimals printed for double values (and array elements). */
    int decimals = 4;
    /** Aggregated per sweep cell (mean / stddev / ci95 over seeds). */
    bool cell = false;

    /** This row's scalar value in @p r (0 for per-guest arrays). */
    double value(const Report &r) const;
};

/**
 * The report's metric table, one row per key.  JSON order is table
 * order; append only at block ends.
 */
const std::vector<MetricRow> &reportMetrics();

/** The reportMetrics() row for @p key, or nullptr. */
const MetricRow *findMetric(const std::string &key);

// Text tables (Report::header()/row() and the sweep's preset table) share
// one layout: a left-aligned label, then one right-aligned cell per
// column, each titled and formatted by its key.

/** The paper's profile columns (Tables 2-4), in table order. */
const std::vector<std::string> &profileKeys();

/** Column title: the paper's short name for a profile key, else the key. */
std::string columnTitle(const std::string &key);

/**
 * @p v as printed in @p key's column: one decimal for *_pct, two for
 * derived report keys (fairness), none for other report keys, and two
 * for probe extras (none when the value is integral).
 */
std::string formatColumn(const std::string &key, double v);

/** @p label padded to @p labelWidth, then cells[i] right-aligned in widths[i]. */
std::string textRow(const std::string &label, std::size_t labelWidth,
                    const std::vector<std::string> &cells,
                    const std::vector<std::size_t> &widths);

/**
 * Render a report as JSON: schema_version, label, then one line per
 * reportMetrics() row, doubles with the row's decimals (no locale).
 */
std::string reportToJson(const Report &r);

} // namespace cdna::core

#endif // CDNA_CORE_REPORT_HH
