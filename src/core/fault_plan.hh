/**
 * @file
 * Declarative fault plan: what goes wrong, and when.
 *
 * A FaultPlan is plain data attached to a SystemConfig (see
 * SystemConfig::withFaults).  Continuous faults are probabilities drawn
 * per event by sim::FaultInjector; scheduled faults (firmware stalls,
 * guest kills) are turned into timed events by core::System at
 * construction.  An empty() plan installs no injector at all, so runs
 * without faults are bit-identical to a build without this subsystem.
 *
 * Plans can be built fluently in code, or parsed from a small text
 * format (one directive per line, '#' comments):
 *
 *   drop-rate 0.01            # P(frame lost on the wire)
 *   corrupt-rate 0.002        # P(frame arrives with a bad FCS)
 *   dup-rate 0.001            # P(frame delivered twice)
 *   dma-delay 0.05 25         # P(DMA completion delayed), delay in us
 *   firmware-stall 0@20:5     # NIC 0 stalls at t=20 ms for 5 ms
 *   firmware-stall 1@30:2 no-reset   # ... without the watchdog reboot
 *   kill-guest 1@40           # guest 1 dies at t=40 ms
 *   kill-driver-domain 60     # dom0 crashes at t=60 ms (reboot cost
 *                             # from CostModel::driverDomainReboot)
 *   reboot-firmware 0@60      # NIC 0 firmware reboots at t=60 ms,
 *                             # losing volatile context state
 */

#ifndef CDNA_CORE_FAULT_PLAN_HH
#define CDNA_CORE_FAULT_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"

namespace cdna::core {

struct FaultPlan
{
    /** A scheduled firmware outage on one NIC. */
    struct FirmwareStall
    {
        std::uint32_t nic = 0;
        double atMs = 0.0;  //!< simulated time the stall begins
        double durMs = 1.0; //!< how long the firmware is wedged
        /**
         * After the stall the on-NIC watchdog reboots the firmware,
         * losing every queued mailbox event; drivers must time out and
         * resynchronize their rings.  Without the reset the firmware
         * merely falls behind and catches up on its own.
         */
        bool watchdogReset = true;
    };

    /** A guest crash: revoke its context on every NIC at @p atMs. */
    struct GuestKill
    {
        std::uint32_t guest = 0;
        double atMs = 0.0;
    };

    /**
     * A driver-domain (dom0) crash at @p atMs.  Under Xen this tears
     * down every netback, force-revokes dom0's grant mappings (pages
     * quarantined until the DMA engine drains) and restarts the domain
     * after CostModel::driverDomainReboot; frontends reconnect with
     * exponential backoff.  Under CDNA the data path does not involve
     * the driver domain, so guests keep running.
     */
    struct DriverDomainKill
    {
        double atMs = 0.0;
    };

    /**
     * A full firmware reboot on one NIC at @p atMs: unlike a stall,
     * the firmware loses all volatile per-context state (staged
     * descriptors, producer doorbells, the event hierarchy) and must
     * reconcile mailboxes/sequence numbers against the
     * hypervisor-validated consumer state before serving guests again.
     * Downtime is CostModel::firmwareReboot.
     */
    struct FirmwareReboot
    {
        std::uint32_t nic = 0;
        double atMs = 0.0;
    };

    double dropRate = 0.0;
    double corruptRate = 0.0;
    double dupRate = 0.0;
    double dmaDelayRate = 0.0;
    double dmaDelayUs = 0.0;
    std::vector<FirmwareStall> firmwareStalls;
    std::vector<GuestKill> guestKills;
    std::vector<DriverDomainKill> driverDomainKills;
    std::vector<FirmwareReboot> firmwareReboots;

    /** True when the plan can never inject anything. */
    bool empty() const;

    /** The continuous-fault rates the injector draws against. */
    sim::FaultRates rates() const;

    // --- fluent builders -------------------------------------------------
    FaultPlan &
    dropping(double p)
    {
        dropRate = p;
        return *this;
    }

    FaultPlan &
    corrupting(double p)
    {
        corruptRate = p;
        return *this;
    }

    FaultPlan &
    duplicating(double p)
    {
        dupRate = p;
        return *this;
    }

    FaultPlan &
    delayingDma(double p, double us)
    {
        dmaDelayRate = p;
        dmaDelayUs = us;
        return *this;
    }

    FaultPlan &
    stallingFirmware(std::uint32_t nic, double at_ms, double dur_ms,
                     bool watchdog_reset = true)
    {
        firmwareStalls.push_back({nic, at_ms, dur_ms, watchdog_reset});
        return *this;
    }

    FaultPlan &
    killingGuest(std::uint32_t guest, double at_ms)
    {
        guestKills.push_back({guest, at_ms});
        return *this;
    }

    FaultPlan &
    killingDriverDomain(double at_ms)
    {
        driverDomainKills.push_back({at_ms});
        return *this;
    }

    FaultPlan &
    rebootingFirmware(std::uint32_t nic, double at_ms)
    {
        firmwareReboots.push_back({nic, at_ms});
        return *this;
    }

    /**
     * Parse the text plan format described in the file comment,
     * applying its directives on top of @p base (when given): a rate
     * directive replaces the base's rate, and a scheduled fault is
     * appended.
     * @param error receives a message naming the offending line on failure
     */
    static std::optional<FaultPlan> parse(const std::string &text,
                                          std::string *error,
                                          const FaultPlan *base = nullptr);

    /** Load a plan file and parse it on top of @p base (when given). */
    static std::optional<FaultPlan> fromFile(const std::string &path,
                                             std::string *error,
                                             const FaultPlan *base = nullptr);
};

/**
 * Parse @p s as an id or a count: decimal digits only (no sign, no
 * space) and at most UINT32_MAX.  Shared by the plan parser and the
 * command line, so neither wraps "-1" or "4294967297" to another value.
 */
bool parseCount(const std::string &s, std::uint32_t *out);

/** Parse @p s as a complete number that is finite (no nan, no inf). */
bool parseFinite(const std::string &s, double *out);

/** Parse "NIC@MS:DURMS" (e.g. "0@20:5") as used by --firmware-stall. */
std::optional<FaultPlan::FirmwareStall>
parseStallSpec(const std::string &spec);

/** Parse "G@MS" (e.g. "1@40") as used by --kill-guest. */
std::optional<FaultPlan::GuestKill> parseKillSpec(const std::string &spec);

/** Parse "MS" (e.g. "60") as used by --kill-driver-domain. */
std::optional<FaultPlan::DriverDomainKill>
parseDriverKillSpec(const std::string &spec);

/** Parse "NIC@MS" (e.g. "0@60") as used by --reboot-firmware. */
std::optional<FaultPlan::FirmwareReboot>
parseRebootSpec(const std::string &spec);

} // namespace cdna::core

#endif // CDNA_CORE_FAULT_PLAN_HH
