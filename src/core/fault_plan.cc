#include "core/fault_plan.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cdna::core {

bool
FaultPlan::empty() const
{
    return !rates.framesArmed() && !rates.dmaArmed() &&
           firmwareStalls.empty() && guestKills.empty() &&
           driverDomainKills.empty() && firmwareReboots.empty();
}

bool
parseCount(const std::string &s, std::uint32_t *out)
{
    // from_chars into an unsigned type takes digits only and reports
    // overflow instead of wrapping.
    std::uint32_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return false;
    *out = v;
    return true;
}

bool
parseFinite(const std::string &s, double *out)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

namespace {

using Args = std::vector<std::string>;

/** "X@MS": X (an id) before the '@', and a time >= 0 after it. */
bool
parseAt(const std::string &s, std::uint32_t *id, double *at_ms)
{
    std::size_t at = s.find('@');
    return at != std::string::npos && parseCount(s.substr(0, at), id) &&
           parseFinite(s.substr(at + 1), at_ms) && *at_ms >= 0;
}

/** A directive taking one number that must satisfy @p ok. */
bool
oneNumber(const Args &args, bool (*ok)(double), double *out)
{
    double v = 0.0;
    if (args.size() != 1 || !parseFinite(args[0], &v) || !ok(v))
        return false;
    *out = v;
    return true;
}

bool
isProbability(double v)
{
    return v >= 0.0 && v <= 1.0;
}

/** One directive per row: its name is both the file key and the flag. */
constexpr FaultDirective kDirectives[] = {
    {"drop-rate", "P", "P(frame lost on the wire)",
     [](FaultPlan &p, const Args &a) {
         return oneNumber(a, isProbability, &p.rates.frameDrop);
     }},
    {"corrupt-rate", "P", "P(frame corrupted; dropped at the receiver)",
     [](FaultPlan &p, const Args &a) {
         return oneNumber(a, isProbability, &p.rates.frameCorrupt);
     }},
    {"dup-rate", "P", "P(frame delivered twice)",
     [](FaultPlan &p, const Args &a) {
         return oneNumber(a, isProbability, &p.rates.frameDuplicate);
     }},
    {"dma-delay-rate", "P", "P(DMA completion delayed)",
     [](FaultPlan &p, const Args &a) {
         return oneNumber(a, isProbability, &p.rates.dmaDelayChance);
     }},
    {"dma-delay-us", "US", "delayed-completion latency (default 25)",
     [](FaultPlan &p, const Args &a) {
         double us = 0.0;
         if (!oneNumber(a, [](double v) { return v > 0; }, &us))
             return false;
         p.rates.dmaDelay = sim::microseconds(us);
         return true;
     }},
    {"firmware-stall", "NIC@MS:DURMS",
     "stall NIC's firmware at MS ms for DURMS ms,\n"
     "then watchdog-reset it (repeatable)",
     [](FaultPlan &p, const Args &a) {
         FaultPlan::FirmwareStall fs;
         if (a.empty() || a.size() > 2 ||
             (a.size() == 2 && a[1] != "no-reset"))
             return false;
         std::size_t colon = a[0].rfind(':');
         if (colon == std::string::npos ||
             !parseAt(a[0].substr(0, colon), &fs.nic, &fs.atMs) ||
             !parseFinite(a[0].substr(colon + 1), &fs.durMs) ||
             fs.durMs <= 0)
             return false;
         fs.watchdogReset = a.size() == 1;
         p.firmwareStalls.push_back(fs);
         return true;
     }},
    {"kill-guest", "G@MS",
     "kill guest G at MS ms, revoking its NIC\n"
     "contexts mid-transfer (repeatable)",
     [](FaultPlan &p, const Args &a) {
         FaultPlan::GuestKill gk;
         if (a.size() != 1 || !parseAt(a[0], &gk.guest, &gk.atMs))
             return false;
         p.guestKills.push_back(gk);
         return true;
     }},
    {"kill-driver-domain", "MS",
     "crash the driver domain at MS ms, revoking its\n"
     "grant mappings; it reboots after the configured\n"
     "cost and frontends reconnect (repeatable)",
     [](FaultPlan &p, const Args &a) {
         FaultPlan::DriverDomainKill dk;
         if (!oneNumber(a, [](double v) { return v >= 0; }, &dk.atMs))
             return false;
         p.driverDomainKills.push_back(dk);
         return true;
     }},
    {"reboot-firmware", "NIC@MS",
     "reboot NIC's firmware at MS ms; volatile context\n"
     "state is lost and reconciled against the\n"
     "hypervisor-validated view (repeatable)",
     [](FaultPlan &p, const Args &a) {
         FaultPlan::FirmwareReboot fr;
         if (a.size() != 1 || !parseAt(a[0], &fr.nic, &fr.atMs))
             return false;
         p.firmwareReboots.push_back(fr);
         return true;
     }},
};

} // namespace

std::span<const FaultDirective>
faultDirectives()
{
    return kDirectives;
}

bool
FaultPlan::apply(const std::string &name, const std::string &args)
{
    std::istringstream in(args);
    Args words;
    for (std::string w; in >> w;)
        words.push_back(w);
    for (const FaultDirective &d : kDirectives)
        if (name == d.name)
            return d.apply(*this, words);
    return false;
}

std::optional<FaultPlan>
FaultPlan::parse(const std::string &text, std::string *error,
                 const FaultPlan *base)
{
    auto fail = [&](std::size_t line_no,
                    const std::string &line) -> std::optional<FaultPlan> {
        if (error)
            *error = "fault plan line " + std::to_string(line_no) +
                     ": cannot parse \"" + line + "\"";
        return std::nullopt;
    };

    FaultPlan plan = base ? *base : FaultPlan{};
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string key, args;
        if (!(ls >> key))
            continue; // blank or comment-only line
        std::getline(ls, args);
        if (!plan.apply(key, args))
            return fail(line_no, line);
    }
    return plan;
}

std::optional<FaultPlan>
FaultPlan::fromFile(const std::string &path, std::string *error,
                    const FaultPlan *base)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open fault plan: " + path;
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), error, base);
}

} // namespace cdna::core
