/**
 * @file
 * Internal-invariant checking for the simulator.
 *
 * Two kinds of failure, kept apart:
 *  - SIM_PANIC / SIM_ASSERT fire on conditions that indicate a bug in the
 *    simulator itself; they abort.
 *  - A condition that is the *user's* fault (a configuration the machine
 *    cannot hold, such as more guests than its memory) throws
 *    std::runtime_error with a message naming the limit, and never
 *    aborts; front ends print the message and exit 1.
 *
 * Protection violations by simulated guests are neither: they are modeled
 * outcomes, reported as values (see vmm::Fault), never as aborts.
 */

#ifndef CDNA_SIM_ASSERT_HH
#define CDNA_SIM_ASSERT_HH

#include <cstdarg>

namespace cdna::sim {

/** Abort with a formatted message; used for simulator bugs. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);

} // namespace cdna::sim

/** Abort: something happened that should never happen (simulator bug). */
#define SIM_PANIC(...) \
    ::cdna::sim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; aborts with location on failure. */
#define SIM_ASSERT(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::cdna::sim::panicImpl(__FILE__, __LINE__,                    \
                                   "assertion failed: %s", #cond);        \
        }                                                                 \
    } while (0)

#endif // CDNA_SIM_ASSERT_HH
