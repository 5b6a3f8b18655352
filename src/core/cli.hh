/**
 * @file
 * Command-line front end for the simulator.
 *
 * Turns argv into a SystemConfig, run parameters and observability
 * options, so scripts can sweep configurations without writing C++.
 * `cdna_sim` runs the result through sim::runHost(), a sweep cell's
 * default executor, and `cdna_sweep` parses its observability flags
 * through the same table; exposed as a library so the parsing is
 * unit-testable.
 *
 * Parsing is table-driven: every option lives in one spec table (see
 * cliOptionTable()) from which the usage text is generated, so a new
 * flag cannot be parsed but undocumented or vice versa.
 */

#ifndef CDNA_CORE_CLI_HH
#define CDNA_CORE_CLI_HH

#include <optional>
#include <string>
#include <vector>

#include "core/system.hh"

namespace cdna::core {

/** Parsed command line. */
struct CliOptions
{
    SystemConfig config;
    sim::Time warmup = sim::milliseconds(100);
    sim::Time measure = sim::milliseconds(500);
    bool json = false;
    bool help = false;

    // Observability (see docs: "Observability" in README.md).
    std::string traceFile;     //!< --trace FILE: Chrome trace JSON output
    std::string traceFilter;   //!< --trace-filter SUBSTR[,SUBSTR...]
    std::string statsJsonFile; //!< --stats-json FILE: metrics dump
    sim::Time samplePeriod = 0; //!< --sample-period US (0 = no sampling)
};

/**
 * One CLI option as rendered in the usage text.  The same table drives
 * the parser, so tests can iterate it to check that every documented
 * option is accepted.
 */
struct CliOptionSpec
{
    std::string name;    //!< e.g. "--mode"
    std::string argName; //!< metavariable, empty for boolean flags
    std::string help;    //!< one-line description ('\n' allowed)
    std::string group;   //!< usage section heading

    bool takesValue() const { return !argName.empty(); }
};

/** Every option the parser understands, in usage order. */
const std::vector<CliOptionSpec> &cliOptionTable();

/** The usage line(s) of one option, its help at the usage help column. */
std::string cliOptionUsage(const CliOptionSpec &s);

/** Usage text for the CLI (generated from cliOptionTable()). */
std::string cliUsage();

/**
 * Parse arguments (excluding argv[0]).
 * @param args   the argument vector
 * @param error  receives a message when parsing fails
 * @return options, or no value on error
 */
std::optional<CliOptions> parseCli(const std::vector<std::string> &args,
                                   std::string *error);

} // namespace cdna::core

#endif // CDNA_CORE_CLI_HH
