/**
 * @file
 * Low-overhead event tracing for the simulator.
 *
 * Components record (lane, event, t_start, duration, optional arg)
 * tuples into a fixed-capacity ring buffer; a run can then be exported
 * as Chrome trace-event JSON and inspected in chrome://tracing or
 * Perfetto.  A "lane" is one horizontal row in the viewer -- one per
 * simulated vCPU, hypervisor, NIC processor, or other serially-used
 * resource -- so the Xen and CDNA datapaths are visually comparable.
 *
 * Design constraints:
 *  - Zero cost when disabled: hot paths guard every record call with
 *    the inline wants() check (see the CDNA_TRACE_* macros), so a
 *    disabled tracer costs one predictable branch.
 *  - No perturbation: recording only reads the simulated clock; it
 *    never schedules events or consumes random numbers, so a run with
 *    tracing enabled is bit-identical to one without.
 *  - Bounded memory: the ring buffer overwrites the oldest events once
 *    full; droppedCount() reports how many were lost.
 *
 * Event names must be string literals (or otherwise outlive the
 * tracer): only the pointer is stored.
 */

#ifndef CDNA_SIM_TRACE_HH
#define CDNA_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace cdna::sim {

/** @p s as the body of a JSON string: quotes, backslashes and control
 *  characters escaped. */
std::string jsonEscape(const std::string &s);

class Tracer
{
  public:
    /** Index of one lane ("thread" row in the trace viewer). */
    using LaneId = std::uint32_t;

    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    /**
     * Intern a lane name, returning a stable id.  Idempotent: the same
     * name always maps to the same id.  Callable while disabled (lanes
     * are typically interned at component construction).
     */
    LaneId lane(const std::string &name);

    /** Start recording (allocates the ring buffer). */
    void enable(std::size_t capacity = kDefaultCapacity);

    /** Stop recording; buffered events remain exportable. */
    void disable() { enabled_ = false; }

    bool enabled() const { return enabled_; }

    /**
     * Restrict recording to lanes whose name contains any of the
     * comma-separated substrings in @p filter.  Empty matches all.
     * Applies to already-interned and future lanes.
     */
    void setFilter(const std::string &filter);

    /** Hot-path guard: should events on @p lane be recorded now? */
    bool
    wants(LaneId lane) const
    {
        return enabled_ && lane < laneWanted_.size() && laneWanted_[lane];
    }

    // --- recording (call only when wants() is true) ----------------------

    /** A span of simulated time [start, start+dur) on a lane. */
    void span(LaneId lane, const char *name, Time start, Time dur,
              const char *arg_name = nullptr, std::uint64_t arg = 0);

    /** A point event at @p at. */
    void instant(LaneId lane, const char *name, Time at,
                 const char *arg_name = nullptr, std::uint64_t arg = 0);

    /** A sampled counter value (rendered as a filled graph). */
    void counter(LaneId lane, const char *name, Time at, double value);

    // --- inspection / export ---------------------------------------------

    /** Events currently held in the ring buffer. */
    std::size_t eventCount() const;

    /** Events lost to ring-buffer wrap-around. */
    std::uint64_t droppedCount() const;

    std::size_t laneCount() const { return laneNames_.size(); }
    const std::string &laneName(LaneId id) const { return laneNames_[id]; }

    /** Serialize as Chrome trace-event JSON (chrome://tracing). */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path.  @return success */
    bool writeChromeJson(const std::string &path) const;

    /** Discard buffered events (lanes and filter are kept). */
    void clear();

  private:
    enum class Kind : std::uint8_t { kSpan, kInstant, kCounter };

    struct Event
    {
        Time start;
        Time dur;          //!< spans only
        const char *name;
        const char *argName; //!< null when no argument
        double arg;          //!< counter value or integer argument
        LaneId lane;
        Kind kind;
    };

    void push(const Event &e);
    bool laneMatchesFilter(const std::string &name) const;
    void appendEventJson(std::string &out, const Event &e) const;

    bool enabled_ = false;
    std::vector<Event> buf_;
    std::size_t capacity_ = 0;
    std::uint64_t total_ = 0; //!< events ever pushed

    std::vector<std::string> laneNames_;
    std::vector<char> laneWanted_; //!< filter verdict per lane
    std::vector<std::string> filter_;
};

} // namespace cdna::sim

/**
 * Hot-path tracing macros: arguments after the lane are not evaluated
 * unless the tracer wants the lane, keeping disabled tracing free.
 */
#define CDNA_TRACE_SPAN(tracer, lane, name, start, dur)                   \
    do {                                                                  \
        if ((tracer).wants(lane))                                         \
            (tracer).span((lane), (name), (start), (dur));                \
    } while (0)

#define CDNA_TRACE_SPAN_ARG(tracer, lane, name, start, dur, akey, aval)   \
    do {                                                                  \
        if ((tracer).wants(lane))                                         \
            (tracer).span((lane), (name), (start), (dur), (akey),         \
                          (aval));                                        \
    } while (0)

#define CDNA_TRACE_INSTANT(tracer, lane, name, at)                        \
    do {                                                                  \
        if ((tracer).wants(lane))                                         \
            (tracer).instant((lane), (name), (at));                       \
    } while (0)

#define CDNA_TRACE_INSTANT_ARG(tracer, lane, name, at, akey, aval)        \
    do {                                                                  \
        if ((tracer).wants(lane))                                         \
            (tracer).instant((lane), (name), (at), (akey), (aval));       \
    } while (0)

#define CDNA_TRACE_COUNTER(tracer, lane, name, at, value)                 \
    do {                                                                  \
        if ((tracer).wants(lane))                                         \
            (tracer).counter((lane), (name), (at), (value));              \
    } while (0)

#endif // CDNA_SIM_TRACE_HH
