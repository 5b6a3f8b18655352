#include "core/report.hh"

#include <algorithm>
#include <cstdio>

namespace cdna::core {

std::string
Report::header()
{
    return "config                    Mb/s    Hyp  DrvOS DrvUsr  GstOS "
           "GstUsr   Idle   drvIrq/s gstIrq/s";
}

std::string
Report::row() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %7.0f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f "
                  "  %8.0f %8.0f",
                  label.c_str(), mbps, hypPct, drvOsPct, drvUserPct,
                  guestOsPct, guestUserPct, idlePct, drvIntrPerSec,
                  guestIntrPerSec);
    return buf;
}

bool
Report::anyFaultActivity() const
{
    return faultFramesDropped || faultFramesCorrupted ||
           faultFramesDuplicated || faultDmaDelays || firmwareStalls ||
           guestKills || mailboxTimeouts || ringResyncs ||
           driverDomainKills || firmwareReboots || feReconnects ||
           grantsRevoked || pagesQuarantined || mailboxThrottled ||
           outagePacketsLost || switchDrops;
}

std::string
Report::faultSummary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  drops: nodesc=%llu nobuf=%llu filter=%llu | faults: "
        "drop=%llu corrupt=%llu dup=%llu dmadelay=%llu fwstall=%llu "
        "kill=%llu | recovery: timeout=%llu resync=%llu",
        static_cast<unsigned long long>(rxDropsNoDesc),
        static_cast<unsigned long long>(rxDropsNoBuf),
        static_cast<unsigned long long>(rxDropsFilter),
        static_cast<unsigned long long>(faultFramesDropped),
        static_cast<unsigned long long>(faultFramesCorrupted),
        static_cast<unsigned long long>(faultFramesDuplicated),
        static_cast<unsigned long long>(faultDmaDelays),
        static_cast<unsigned long long>(firmwareStalls),
        static_cast<unsigned long long>(guestKills),
        static_cast<unsigned long long>(mailboxTimeouts),
        static_cast<unsigned long long>(ringResyncs));
    std::string out = buf;
    if (driverDomainKills || firmwareReboots || feReconnects ||
        grantsRevoked || outagePacketsLost) {
        std::snprintf(
            buf, sizeof(buf),
            " | outage: domkill=%llu fwreboot=%llu reconnect=%llu "
            "revoked=%llu quarantined=%llu lost=%llu",
            static_cast<unsigned long long>(driverDomainKills),
            static_cast<unsigned long long>(firmwareReboots),
            static_cast<unsigned long long>(feReconnects),
            static_cast<unsigned long long>(grantsRevoked),
            static_cast<unsigned long long>(pagesQuarantined),
            static_cast<unsigned long long>(outagePacketsLost));
        out += buf;
    }
    if (switchDrops) {
        std::snprintf(
            buf, sizeof(buf),
            " | fabric: swdrops=%llu (%llu bytes, qpeak=%llu)",
            static_cast<unsigned long long>(switchDrops),
            static_cast<unsigned long long>(switchDropBytes),
            static_cast<unsigned long long>(switchQueuePeakBytes));
        out += buf;
    }
    return out;
}

double
Report::fairness() const
{
    if (perGuestMbps.empty())
        return 1.0;
    double lo = *std::min_element(perGuestMbps.begin(), perGuestMbps.end());
    double hi = *std::max_element(perGuestMbps.begin(), perGuestMbps.end());
    return hi > 0 ? lo / hi : 1.0;
}

double
MetricRow::value(const Report &r) const
{
    if (const auto *f = std::get_if<double Report::*>(&field))
        return r.**f;
    if (const auto *f = std::get_if<std::uint64_t Report::*>(&field))
        return static_cast<double>(r.**f);
    if (const auto *f = std::get_if<double (Report::*)() const>(&field))
        return (r.**f)();
    return 0.0; // a per-guest array
}

std::string
reportToJson(const Report &r)
{
    char buf[512];
    std::string out = "{\n";
    std::snprintf(buf, sizeof(buf), "  \"schema_version\": %d,\n",
                  kReportSchemaVersion);
    out += buf;
    std::snprintf(buf, sizeof(buf), "  \"label\": \"%s\",\n",
                  r.label.c_str());
    out += buf;
    const std::vector<MetricRow> &rows = reportMetrics();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const MetricRow &m = rows[i];
        out += "  \"";
        out += m.key;
        out += "\": ";
        if (const auto *f = std::get_if<std::uint64_t Report::*>(&m.field)) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(r.**f));
            out += buf;
        } else if (const auto *f =
                       std::get_if<std::vector<double> Report::*>(&m.field)) {
            out += "[";
            const std::vector<double> &v = r.**f;
            for (std::size_t k = 0; k < v.size(); ++k) {
                std::snprintf(buf, sizeof(buf), "%s%.*f", k ? ", " : "",
                              m.decimals, v[k]);
                out += buf;
            }
            out += "]";
        } else {
            std::snprintf(buf, sizeof(buf), "%.*f", m.decimals, m.value(r));
            out += buf;
        }
        out += i + 1 < rows.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
}

} // namespace cdna::core
