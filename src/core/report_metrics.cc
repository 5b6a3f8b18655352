/**
 * @file
 * The report's metric table: every core::Report key, its kind, and the
 * collector that reads it from one System.
 *
 * Collectors read only that System's own components, never the shared
 * context's object list: topology hosts share one SimContext, so a
 * context-wide sum would pull the other hosts' counters into this
 * host's report.
 */

#include <algorithm>
#include <functional>

#include "core/report.hh"
#include "core/system.hh"
#include "net/workload/workload_engine.hh"

namespace cdna::core {

namespace {

/** Sum @p get over the present (non-null) components in @p parts. */
template <class Parts, class Get>
std::uint64_t
sumOver(const Parts &parts, Get get)
{
    std::uint64_t n = 0;
    for (const auto &p : parts)
        if (p)
            n += std::invoke(get, *p);
    return n;
}

/** Collector: sum of @p Get over the System's component vector @p Parts. */
template <auto Parts, auto Get>
std::uint64_t
sumOf(const System &s)
{
    return sumOver(s.*Parts, Get);
}

/** Collector: max of @p Get over @p Parts (a high-water mark). */
template <auto Parts, auto Get>
std::uint64_t
maxOf(const System &s)
{
    std::uint64_t n = 0;
    for (const auto &p : s.*Parts)
        n = std::max<std::uint64_t>(n, std::invoke(Get, *p));
    return n;
}

double
pctOf(sim::Time t, sim::Time window)
{
    return 100.0 * static_cast<double>(t) / static_cast<double>(window);
}

/** Mark a row as one of the sweep's per-cell aggregates. */
MetricRow
cell(MetricRow r)
{
    r.cell = true;
    return r;
}

} // namespace

const std::vector<MetricRow> &
reportMetrics()
{
    using enum MetricKind;
    using R = Report;
    using S = System;
    using Tcp = net::transport::TcpEndpoint;
    using Engine = net::workload::WorkloadEngine;
    using enum sim::FaultEvent;
    using Nic = nic::NicBase;
    using Val = vmm::SwptValidator;
    using Peer = net::TrafficPeer;
    using Stack = os::NetStack;

    // Shared collector bodies; static so the row lambdas need no capture.
    static constexpr auto tcpSum = [](const S &s,
                                      std::uint64_t (Tcp::*get)() const) {
        auto via = [get](auto &part) -> std::uint64_t {
            Tcp *t = part.tcp();
            return t ? (t->*get)() : 0;
        };
        return sumOver(s.peers_, via) + sumOver(s.stacks_, via);
    };
    static constexpr auto engineSum =
        [](const S &s, std::uint64_t (Engine::*get)() const) {
            return sumOver(s.peers_, [get](const Peer &p) {
                return p.engine() ? (p.engine()->*get)() : 0;
            });
        };
    static constexpr auto injected = [](const S &s, sim::FaultEvent e) {
        return s.faults_ ? s.faults_->count(e) : 0;
    };
    static constexpr auto nicSum = [](const S &s,
                                      std::uint64_t (Nic::*get)() const) {
        return sumOver(s.intelNics_, get) + sumOver(s.cdnaNics_, get);
    };
    static constexpr auto domainPct = [](const S &s, const vmm::Domain *d,
                                         cpu::Bucket b, sim::Time window) {
        return d ? pctOf(s.cpu_->profile().domainTime(d->id(), b), window)
                 : 0.0;
    };
    static constexpr auto guestsPct = [](const S &s, cpu::Bucket b,
                                         sim::Time window) {
        double sum = 0.0;
        for (const vmm::Domain *g : s.guests_)
            sum += domainPct(s, g, b, window);
        return sum;
    };
    // End-to-end data latency: peers measure transmitted data, guest
    // stacks measure received data.  Cumulative (includes warmup).
    static constexpr auto dataLatency = [](const S &s) {
        sim::LatencyRecorder l;
        if (s.cfg_.transmitDir) {
            for (const auto &p : s.peers_)
                if (p)
                    l.merge(p->latency());
        } else {
            for (const auto &st : s.stacks_)
                l.merge(st->rxLatency());
        }
        return l;
    };
    // RPC round trips from the engines' fine-grained histograms
    // (cumulative too).
    static constexpr auto rpcLatency = [](const S &s) {
        sim::LatencyRecorder l(net::workload::kRpcHistBuckets,
                               net::workload::kRpcHistSubBits);
        for (const auto &p : s.peers_)
            if (const Engine *e = p ? p->engine() : nullptr)
                l.merge(e->rpcLatency());
        return l;
    };

    static const std::vector<MetricRow> rows = {
        // --- double metrics ---------------------------------------------
        cell({"mbps", &R::mbps, kMbps, [](const S &s) {
                  return s.cfg_.transmitDir
                             ? sumOver(s.peers_, &Peer::payloadDelivered)
                             : sumOver(s.stacks_, &Stack::rxBytes);
              }}),
        cell({"hyp_pct", &R::hypPct, kPct, [](const S &s, sim::Time w) {
                  return pctOf(s.cpu_->profile().hypervisor(), w);
              }}),
        cell({"drv_os_pct", &R::drvOsPct, kPct, [](const S &s, sim::Time w) {
                  return domainPct(s, s.driverDom_, cpu::Bucket::kOs, w);
              }}),
        cell({"drv_user_pct", &R::drvUserPct, kPct,
              [](const S &s, sim::Time w) {
                  return domainPct(s, s.driverDom_, cpu::Bucket::kUser, w);
              }}),
        cell({"guest_os_pct", &R::guestOsPct, kPct,
              [](const S &s, sim::Time w) {
                  return guestsPct(s, cpu::Bucket::kOs, w);
              }}),
        cell({"guest_user_pct", &R::guestUserPct, kPct,
              [](const S &s, sim::Time w) {
                  return guestsPct(s, cpu::Bucket::kUser, w);
              }}),
        cell({"idle_pct", &R::idlePct, kPct, [](const S &s, sim::Time w) {
                  return pctOf(s.cpu_->profile().idle(), w);
              }}),
        cell({"drv_intr_per_sec", &R::drvIntrPerSec, kRate,
              [](const S &s) -> std::uint64_t {
                  return s.driverDom_ ? s.driverDom_->virtIrqCount() : 0;
              }}),
        cell({"guest_intr_per_sec", &R::guestIntrPerSec, kRate,
              sumOf<&S::guests_, &vmm::Domain::virtIrqCount>}),
        cell({"phys_irq_per_sec", &R::physIrqPerSec, kRate,
              [](const S &s) { return nicSum(s, &Nic::irqCount); }}),
        cell({"hypercall_per_sec", &R::hypercallPerSec, kRate,
              [](const S &s) { return s.hv_->hypercallCount(); }}),
        cell({"domain_switch_per_sec", &R::domainSwitchPerSec, kRate,
              [](const S &s) { return s.cpu_->domainSwitches(); }}),
        cell({"latency_mean_us", &R::latencyMeanUs, kMean, dataLatency}),
        cell({"latency_p50_us", &R::latencyP50Us, kQuantile, dataLatency,
              0.5}),
        cell({"latency_p99_us", &R::latencyP99Us, kQuantile, dataLatency,
              0.99}),
        cell({"fairness", &R::fairness, kDerived}),
        // Raw payload on the wire in the goodput direction: what the NIC
        // ports injected (tx), or what the far peers injected / the NIC
        // ports were delivered (rx).
        {"wire_mbps", &R::wireMbps, kMbps,
         [](const S &s) {
             std::uint64_t n = 0;
             for (std::size_t i = 0; i < s.nicPorts_.size(); ++i)
                 n += s.cfg_.transmitDir ? s.nicPorts_[i]->payloadCarried()
                      : s.peers_[i] ? s.peers_[i]->port().payloadCarried()
                                    : s.nicPorts_[i]->payloadDelivered();
             return n;
         }},
        {"rpc_lat_mean_us", &R::rpcLatMeanUs, kMean, rpcLatency},
        {"rpc_lat_p50_us", &R::rpcLatP50Us, kQuantile, rpcLatency, 0.5},
        {"rpc_lat_p99_us", &R::rpcLatP99Us, kQuantile, rpcLatency, 0.99},
        {"rpc_lat_p999_us", &R::rpcLatP999Us, kQuantile, rpcLatency, 0.999},
        {"rpc_offered_rps", &R::rpcOfferedRps, kRate,
         [](const S &s) { return engineSum(s, &Engine::rpcRequests); }},
        {"rpc_achieved_rps", &R::rpcAchievedRps, kRate,
         [](const S &s) { return engineSum(s, &Engine::rpcResponses); }},
        // Validation time is kept in picoseconds; the key is in us.
        {"swpt_validation_us", &R::swptValidationUs, kScaled,
         sumOf<&S::swptValidators_, &Val::validationTime>, 1.0e6},

        // --- integer counters -------------------------------------------
        {"protection_faults", &R::protectionFaults, kDelta,
         [](const S &s) { return s.hv_->faultCount(); }},
        {"dma_violations", &R::dmaViolations, kDelta,
         [](const S &s) { return s.mem_->violationCount(); }},
        {"rx_drops_no_desc", &R::rxDropsNoDesc, kDelta,
         [](const S &s) { return nicSum(s, &Nic::rxDropNoDesc); }},
        {"rx_drops_no_buf", &R::rxDropsNoBuf, kDelta,
         [](const S &s) { return nicSum(s, &Nic::rxDropNoBuf); }},
        {"rx_drops_filter", &R::rxDropsFilter, kDelta,
         [](const S &s) { return nicSum(s, &Nic::rxDropFilter); }},
        {"frames_dropped", &R::faultFramesDropped, kDelta,
         [](const S &s) { return injected(s, kFrameDrop); }},
        {"frames_corrupted", &R::faultFramesCorrupted, kDelta,
         [](const S &s) { return injected(s, kFrameCorrupt); }},
        {"frames_duplicated", &R::faultFramesDuplicated, kDelta,
         [](const S &s) { return injected(s, kFrameDuplicate); }},
        {"dma_delays", &R::faultDmaDelays, kDelta,
         [](const S &s) { return injected(s, kDmaDelay); }},
        {"firmware_stalls", &R::firmwareStalls, kDelta,
         [](const S &s) { return injected(s, kFirmwareStall); }},
        {"guest_kills", &R::guestKills, kDelta,
         [](const S &s) { return injected(s, kGuestKill); }},
        {"mailbox_timeouts", &R::mailboxTimeouts, kDelta,
         [](const S &s) { return injected(s, kMailboxTimeout); }},
        {"ring_resyncs", &R::ringResyncs, kDelta,
         [](const S &s) { return injected(s, kRingResync); }},
        {"rx_drops_bad_csum", &R::rxDropsBadCsum, kDelta,
         [](const S &s) {
             return sumOver(s.peers_, &Peer::rxDropsBadCsum) +
                    sumOver(s.stacks_, &Stack::rxDropsBadCsum);
         }},
        // Lifetime high-water mark, not a windowed delta.
        {"tx_backlog_peak", &R::txBacklogPeak, kEnd,
         maxOf<&S::stacks_, &Stack::txBacklogPeak>},
        {"tx_backlog_now", &R::txBacklogNow, kEnd,
         sumOf<&S::stacks_, &Stack::txBacklogDepth>},
        {"tcp_retrans_segs", &R::tcpRetransSegs, kDelta,
         [](const S &s) { return tcpSum(s, &Tcp::retransSegs); }},
        {"tcp_fast_retransmits", &R::tcpFastRetransmits, kDelta,
         [](const S &s) { return tcpSum(s, &Tcp::fastRetransmits); }},
        {"tcp_rto_events", &R::tcpRtoEvents, kDelta,
         [](const S &s) { return tcpSum(s, &Tcp::rtoEvents); }},
        {"tcp_dup_acks", &R::tcpDupAcks, kDelta,
         [](const S &s) { return tcpSum(s, &Tcp::dupAcksRx); }},
        {"driver_domain_kills", &R::driverDomainKills, kDelta,
         [](const S &s) { return injected(s, kDriverDomainKill); }},
        {"firmware_reboots", &R::firmwareReboots, kDelta,
         [](const S &s) { return injected(s, kFirmwareReboot); }},
        {"fe_reconnects", &R::feReconnects, kDelta,
         [](const S &s) { return injected(s, kFrontendReconnect); }},
        {"grants_revoked", &R::grantsRevoked, kDelta,
         [](const S &s) { return s.hv_->grants().revokedGrants(); }},
        {"pages_quarantined", &R::pagesQuarantined, kDelta,
         [](const S &s) { return s.hv_->grants().quarantineAdmissions(); }},
        {"quarantine_released", &R::quarantineReleased, kDelta,
         [](const S &s) { return s.hv_->grants().quarantineReleases(); }},
        {"mailbox_throttled", &R::mailboxThrottled, kDelta,
         sumOf<&S::cdnaNics_, &CdnaNic::mailboxThrottled>},
        {"outage_packets_lost", &R::outagePacketsLost, kDelta,
         [](const S &s) {
             return sumOver(s.ddns_, [](const os::DriverDomainNet &d) {
                 return d.outageRxDrops() +
                        sumOver(d.vifs(), &os::XenVif::txLostCrash);
             });
         }},
        {"cxt_page_traps", &R::cxtPageTraps, kDelta,
         sumOf<&S::cdnaNics_, &CdnaNic::pageTraps>},
        {"cxt_evictions", &R::cxtEvictions, kDelta,
         sumOf<&S::cdnaNics_, &CdnaNic::pageEvictions>},
        {"cxt_page_ins", &R::cxtPageIns, kDelta,
         sumOf<&S::cdnaNics_, &CdnaNic::pageIns>},
        // Residency peaks are high-water marks over the whole run.
        {"cxt_resident_peak", &R::cxtResidentPeak, kEnd,
         sumOf<&S::cdnaNics_, &CdnaNic::residentPeak>},
        {"switch_drops", &R::switchDrops, kDelta,
         sumOf<&S::nicPorts_, &net::Port::egressDrops>},
        {"switch_drop_bytes", &R::switchDropBytes, kDelta,
         sumOf<&S::nicPorts_, &net::Port::egressDropBytes>},
        {"switch_queue_peak_bytes", &R::switchQueuePeakBytes, kEnd,
         maxOf<&S::nicPorts_, &net::Port::queuePeakBytes>},
        {"rpc_requests", &R::rpcRequests, kDelta,
         [](const S &s) { return engineSum(s, &Engine::rpcRequests); }},
        {"rpc_responses", &R::rpcResponses, kDelta,
         [](const S &s) { return engineSum(s, &Engine::rpcResponses); }},
        {"rpc_timeouts", &R::rpcTimeouts, kDelta,
         [](const S &s) { return engineSum(s, &Engine::rpcTimeouts); }},
        {"flows_started", &R::flowsStarted, kDelta,
         [](const S &s) { return engineSum(s, &Engine::flowsStarted); }},
        {"flows_completed", &R::flowsCompleted, kDelta,
         [](const S &s) { return engineSum(s, &Engine::flowsCompleted); }},
        {"swpt_doorbell_traps", &R::swptDoorbellTraps, kDelta,
         sumOf<&S::swptValidators_, &Val::doorbellTraps>},
        {"swpt_desc_validated", &R::swptDescValidated, kDelta,
         sumOf<&S::swptValidators_, &Val::descValidated>},
        {"swpt_desc_rejected", &R::swptDescRejected, kDelta,
         sumOf<&S::swptValidators_, &Val::descRejected>},

        // --- per-guest arrays -------------------------------------------
        // Transmit bytes are counted by source MAC at the local peer
        // (cross-host transmit is measured at the receiver); receive
        // bytes at the guest's stacks.
        {"per_guest_mbps", &R::perGuestMbps, kPerGuestMbps,
         [](const S &s, std::uint32_t g) {
             std::uint64_t n = 0;
             for (std::uint32_t i = 0; i < s.cfg_.numNics; ++i) {
                 if (!s.cfg_.transmitDir) {
                     n += s.stacks_[s.portIndex(g, i)]->rxBytes();
                 } else if (s.peers_[i]) {
                     n += s.peers_[i]->receivedFrom(s.guestMac(g, i));
                 }
             }
             return n;
         },
         0.0, 2},
        // Availability is absolute, not windowed: an outage is a property
        // of the whole run.  Zero without an outage fault plan.
        {"per_guest_downtime_us", &R::perGuestDowntimeUs, kPerGuest,
         [](const S &s, std::uint32_t g) {
             return s.avail_ ? s.avail_->downtimeUs(g) : 0.0;
         },
         0.0, 1},
        {"per_guest_ttfp_us", &R::perGuestTtfpUs, kPerGuest,
         [](const S &s, std::uint32_t g) {
             return s.avail_ ? s.avail_->ttfpUs(g) : 0.0;
         },
         0.0, 1},
    };
    return rows;
}

} // namespace cdna::core
