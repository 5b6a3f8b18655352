/**
 * @file
 * Deterministic fault injection for the simulator.
 *
 * A FaultInjector owns its own random stream, seeded from the system
 * seed through a fixed mixing constant, so fault decisions never draw
 * from (and therefore never perturb) the workload RNG: a run with a
 * zero-probability plan is bit-identical to a run with no injector at
 * all, and two runs with the same seed and plan make identical fault
 * decisions.
 *
 * The injector only knows *rates* and the fault *ledger*; the
 * declarative plan (which guest dies when, which firmware stalls, ...)
 * lives in core::FaultPlan and is turned into scheduled events by
 * core::System.  The ledger is the one place a fault or recovery event
 * is counted: whoever fires or recovers from a fault calls note().
 * Components reach the injector through SimContext::faultInjector(),
 * which is null unless a non-empty plan was installed -- fault hooks
 * must stay entirely inert in that case.
 */

#ifndef CDNA_SIM_FAULT_INJECTOR_HH
#define CDNA_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/time.hh"

namespace cdna::sim {

/** Probabilities (and the one magnitude) the injector draws against. */
struct FaultRates
{
    double frameDrop = 0.0;      //!< P(frame vanishes on the wire)
    double frameCorrupt = 0.0;   //!< P(frame arrives with a bad FCS)
    double frameDuplicate = 0.0; //!< P(frame is delivered twice)
    double dmaDelayChance = 0.0; //!< P(a DMA completion is delayed)
    Time dmaDelay = microseconds(25); //!< extra latency of a delayed DMA

    bool
    framesArmed() const
    {
        return frameDrop > 0.0 || frameCorrupt > 0.0 ||
               frameDuplicate > 0.0;
    }

    bool dmaArmed() const { return dmaDelayChance > 0.0 && dmaDelay > 0; }

    bool operator==(const FaultRates &) const = default;
};

/**
 * Every fault and recovery event, in ledger order: the order of the
 * injector's counters in --stats-json.  Each is counted, and traced as
 * an instant on the injector's lane, by FaultInjector::note() alone.
 */
enum class FaultEvent : std::uint8_t
{
    kFrameDrop,
    kFrameCorrupt,
    kFrameDuplicate,
    kDmaDelay,
    kFirmwareStall,
    kFirmwareReset,
    kGuestKill,
    kMailboxTimeout,
    kRingResync,
    kDriverDomainKill,
    kDriverDomainRestart,
    kFirmwareReboot,
    kFrontendReconnect,
};

inline constexpr std::size_t kNumFaultEvents = 13;

/** Mix the system seed into the independent fault-stream seed. */
constexpr std::uint64_t
faultStreamSeed(std::uint64_t system_seed)
{
    return system_seed ^ 0xFA177C0DEC0FFEEDull;
}

class FaultInjector : public SimObject
{
  public:
    /** What (if anything) happens to one frame on the wire. */
    enum class FrameFault { kNone, kDrop, kCorrupt, kDuplicate };

    FaultInjector(SimContext &ctx, std::string name,
                  std::uint64_t system_seed, FaultRates rates);

    const FaultRates &rates() const { return rates_; }
    bool framesArmed() const { return rates_.framesArmed(); }
    bool dmaArmed() const { return rates_.dmaArmed(); }

    /** Draw the fate of one frame about to occupy the wire. */
    FrameFault frameFault();

    /** Extra completion latency for one DMA transfer (usually 0). */
    Time dmaDelay();

    /** Count @p e and trace it (called where the event happens). */
    void note(FaultEvent e);

    /** Times @p e has happened. */
    std::uint64_t
    count(FaultEvent e) const
    {
        return counters_[static_cast<std::size_t>(e)].value();
    }

  private:
    FaultRates rates_;
    Rng rng_;
    std::array<sim::Counter, kNumFaultEvents> counters_;
};

} // namespace cdna::sim

#endif // CDNA_SIM_FAULT_INJECTOR_HH
