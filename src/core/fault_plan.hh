/**
 * @file
 * Declarative fault plan: what goes wrong, and when.
 *
 * A FaultPlan is plain data attached to a SystemConfig (see
 * SystemConfig::withFaults).  Continuous faults are probabilities drawn
 * per event by sim::FaultInjector; scheduled faults (firmware stalls,
 * guest kills) are turned into timed events by core::System.  An
 * empty() plan installs no injector at all, so runs without faults are
 * bit-identical to a build without this subsystem.
 *
 * Plans can be built fluently in code, or from directives.  Every
 * directive is one row of faultDirectives(), and that table is the
 * whole vocabulary: a plan-file line "NAME ARGS" and the cdna_sim flag
 * "--NAME ARGS" apply the same row, and the flags' usage text is
 * generated from it.  A plan file holds one directive per line, with
 * '#' comments:
 *
 *   drop-rate 0.01            # P(frame lost on the wire)
 *   corrupt-rate 0.002        # P(frame arrives with a bad FCS)
 *   dup-rate 0.001            # P(frame delivered twice)
 *   dma-delay-rate 0.05       # P(DMA completion delayed)
 *   dma-delay-us 25           # ... by this many us (default 25)
 *   firmware-stall 0@20:5     # NIC 0 stalls at t=20 ms for 5 ms
 *   firmware-stall 1@30:2 no-reset   # ... without the watchdog reboot
 *   kill-guest 1@40           # guest 1 dies at t=40 ms
 *   kill-driver-domain 60     # dom0 crashes at t=60 ms (reboot cost
 *                             # from CostModel::driverDomainReboot)
 *   reboot-firmware 0@60      # NIC 0 firmware reboots at t=60 ms,
 *                             # losing volatile context state
 *
 * A rate directive replaces the plan's rate; a scheduled fault is
 * appended.
 */

#ifndef CDNA_CORE_FAULT_PLAN_HH
#define CDNA_CORE_FAULT_PLAN_HH

#include <cstdint>
#include <optional>
#include <span>
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

        bool operator==(const FirmwareStall &) const = default;
    };

    /** A guest crash: revoke its context on every NIC at @p atMs. */
    struct GuestKill
    {
        std::uint32_t guest = 0;
        double atMs = 0.0;

        bool operator==(const GuestKill &) const = default;
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

        bool operator==(const DriverDomainKill &) const = default;
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

        bool operator==(const FirmwareReboot &) const = default;
    };

    /** The continuous-fault rates the injector draws against. */
    sim::FaultRates rates;
    std::vector<FirmwareStall> firmwareStalls;
    std::vector<GuestKill> guestKills;
    std::vector<DriverDomainKill> driverDomainKills;
    std::vector<FirmwareReboot> firmwareReboots;

    /** True when the plan can never inject anything. */
    bool empty() const;

    bool operator==(const FaultPlan &) const = default;

    // --- fluent builders -------------------------------------------------
    FaultPlan &
    dropping(double p)
    {
        rates.frameDrop = p;
        return *this;
    }

    FaultPlan &
    corrupting(double p)
    {
        rates.frameCorrupt = p;
        return *this;
    }

    FaultPlan &
    duplicating(double p)
    {
        rates.frameDuplicate = p;
        return *this;
    }

    FaultPlan &
    delayingDma(double p, double us)
    {
        rates.dmaDelayChance = p;
        rates.dmaDelay = sim::microseconds(us);
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
     * Apply the directive @p name (a faultDirectives() row) with its
     * arguments @p args, split on whitespace.
     * @return false, leaving the plan unchanged, when @p name is no
     *         directive or @p args do not parse
     */
    bool apply(const std::string &name, const std::string &args);

    /**
     * Parse the text plan format described in the file comment,
     * applying its directives on top of @p base (when given).
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

/** One fault directive: the plan-file line "NAME ARGS" and the flag
 *  "--NAME ARGS" (see FaultPlan::apply). */
struct FaultDirective
{
    const char *name;    //!< e.g. "drop-rate"
    const char *argName; //!< usage metavariable, e.g. "P"
    const char *help;    //!< usage text ('\n' continues on a new line)
    /** Apply @p args to @p plan; false when they do not parse. */
    bool (*apply)(FaultPlan &plan, const std::vector<std::string> &args);
};

/** Every fault directive, in usage order. */
std::span<const FaultDirective> faultDirectives();

} // namespace cdna::core

#endif // CDNA_CORE_FAULT_PLAN_HH
