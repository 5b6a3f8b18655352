#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace cdna::core {

namespace {

/** The paper's profile columns: report key and table title. */
constexpr std::pair<const char *, const char *> kProfile[] = {
    {"mbps", "Mb/s"},
    {"hyp_pct", "Hyp"},
    {"drv_os_pct", "DrvOS"},
    {"drv_user_pct", "DrvUsr"},
    {"guest_os_pct", "GstOS"},
    {"guest_user_pct", "GstUsr"},
    {"idle_pct", "Idle"},
    {"drv_intr_per_sec", "drvIrq/s"},
    {"guest_intr_per_sec", "gstIrq/s"},
};

/** A header()/row() line: fixed widths, each title at least six wide. */
std::string
profileLine(const std::string &label, const std::vector<std::string> &cells)
{
    std::vector<std::size_t> widths;
    for (const auto &[key, title] : kProfile)
        widths.push_back(std::max<std::size_t>(std::strlen(title), 6));
    return textRow(label, 22, cells, widths);
}

} // namespace

const std::vector<std::string> &
profileKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &[key, title] : kProfile)
            k.push_back(key);
        return k;
    }();
    return keys;
}

std::string
columnTitle(const std::string &key)
{
    for (const auto &[k, title] : kProfile)
        if (key == k)
            return title;
    return key;
}

std::string
formatColumn(const std::string &key, double v)
{
    const MetricRow *m = findMetric(key);
    int decimals = 2;
    if (key.ends_with("_pct"))
        decimals = 1;
    else if (m ? m->kind != MetricKind::kDerived : v == std::floor(v))
        decimals = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
textRow(const std::string &label, std::size_t labelWidth,
        const std::vector<std::string> &cells,
        const std::vector<std::size_t> &widths)
{
    std::string out = label;
    if (out.size() < labelWidth)
        out.resize(labelWidth, ' ');
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out += ' ';
        if (cells[i].size() < widths[i])
            out.append(widths[i] - cells[i].size(), ' ');
        out += cells[i];
    }
    while (!out.empty() && out.back() == ' ')
        out.pop_back(); // an empty last cell
    return out;
}

std::string
Report::header()
{
    std::vector<std::string> titles;
    for (const auto &[key, title] : kProfile)
        titles.push_back(title);
    return profileLine("config", titles);
}

std::string
Report::row() const
{
    std::vector<std::string> cells;
    for (const std::string &key : profileKeys())
        cells.push_back(formatColumn(key, findMetric(key)->value(*this)));
    return profileLine(label, cells);
}

std::string
Report::faultSummary() const
{
    std::string out;
    for (const MetricRow &m : reportMetrics()) {
        const auto *f = std::get_if<std::uint64_t Report::*>(&m.field);
        if (m.kind != MetricKind::kDelta || !f || this->**f == 0)
            continue;
        out += out.empty() ? "  " : " ";
        out += m.key;
        out += '=';
        out += std::to_string(this->**f);
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

const MetricRow *
findMetric(const std::string &key)
{
    for (const MetricRow &m : reportMetrics())
        if (key == m.key)
            return &m;
    return nullptr;
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
