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
    return !rates().framesArmed() && !rates().dmaArmed() &&
           firmwareStalls.empty() && guestKills.empty() &&
           driverDomainKills.empty() && firmwareReboots.empty();
}

sim::FaultRates
FaultPlan::rates() const
{
    sim::FaultRates r;
    r.frameDrop = dropRate;
    r.frameCorrupt = corruptRate;
    r.frameDuplicate = dupRate;
    r.dmaDelayChance = dmaDelayRate;
    r.dmaDelay = sim::microseconds(dmaDelayUs);
    return r;
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

bool
parseRate(const std::string &s, double *out)
{
    return parseFinite(s, out) && *out >= 0.0 && *out <= 1.0;
}

} // namespace

std::optional<FaultPlan::FirmwareStall>
parseStallSpec(const std::string &spec)
{
    std::size_t at = spec.find('@');
    std::size_t colon = spec.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at)
        return std::nullopt;
    FaultPlan::FirmwareStall fs;
    if (!parseCount(spec.substr(0, at), &fs.nic) ||
        !parseFinite(spec.substr(at + 1, colon - at - 1), &fs.atMs) ||
        !parseFinite(spec.substr(colon + 1), &fs.durMs) || fs.atMs < 0 ||
        fs.durMs <= 0)
        return std::nullopt;
    return fs;
}

std::optional<FaultPlan::GuestKill>
parseKillSpec(const std::string &spec)
{
    std::size_t at = spec.find('@');
    if (at == std::string::npos)
        return std::nullopt;
    FaultPlan::GuestKill gk;
    if (!parseCount(spec.substr(0, at), &gk.guest) ||
        !parseFinite(spec.substr(at + 1), &gk.atMs) || gk.atMs < 0)
        return std::nullopt;
    return gk;
}

std::optional<FaultPlan::DriverDomainKill>
parseDriverKillSpec(const std::string &spec)
{
    FaultPlan::DriverDomainKill dk;
    if (!parseFinite(spec, &dk.atMs) || dk.atMs < 0)
        return std::nullopt;
    return dk;
}

std::optional<FaultPlan::FirmwareReboot>
parseRebootSpec(const std::string &spec)
{
    std::size_t at = spec.find('@');
    if (at == std::string::npos)
        return std::nullopt;
    FaultPlan::FirmwareReboot fr;
    if (!parseCount(spec.substr(0, at), &fr.nic) ||
        !parseFinite(spec.substr(at + 1), &fr.atMs) || fr.atMs < 0)
        return std::nullopt;
    return fr;
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
        std::string key;
        if (!(ls >> key))
            continue; // blank or comment-only line
        std::vector<std::string> args;
        std::string a;
        while (ls >> a)
            args.push_back(a);

        if (key == "drop-rate" && args.size() == 1) {
            if (!parseRate(args[0], &plan.dropRate))
                return fail(line_no, line);
        } else if (key == "corrupt-rate" && args.size() == 1) {
            if (!parseRate(args[0], &plan.corruptRate))
                return fail(line_no, line);
        } else if (key == "dup-rate" && args.size() == 1) {
            if (!parseRate(args[0], &plan.dupRate))
                return fail(line_no, line);
        } else if (key == "dma-delay" && args.size() == 2) {
            if (!parseRate(args[0], &plan.dmaDelayRate) ||
                !parseFinite(args[1], &plan.dmaDelayUs) ||
                plan.dmaDelayUs < 0)
                return fail(line_no, line);
        } else if (key == "firmware-stall" &&
                   (args.size() == 1 ||
                    (args.size() == 2 && args[1] == "no-reset"))) {
            auto fs = parseStallSpec(args[0]);
            if (!fs)
                return fail(line_no, line);
            fs->watchdogReset = args.size() == 1;
            plan.firmwareStalls.push_back(*fs);
        } else if (key == "kill-guest" && args.size() == 1) {
            auto gk = parseKillSpec(args[0]);
            if (!gk)
                return fail(line_no, line);
            plan.guestKills.push_back(*gk);
        } else if (key == "kill-driver-domain" && args.size() == 1) {
            auto dk = parseDriverKillSpec(args[0]);
            if (!dk)
                return fail(line_no, line);
            plan.driverDomainKills.push_back(*dk);
        } else if (key == "reboot-firmware" && args.size() == 1) {
            auto fr = parseRebootSpec(args[0]);
            if (!fr)
                return fail(line_no, line);
            plan.firmwareReboots.push_back(*fr);
        } else {
            return fail(line_no, line);
        }
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
