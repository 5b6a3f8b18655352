/**
 * @file
 * `cdna_sweep`: parallel experiment-sweep driver.
 *
 * One binary regenerates every paper artifact (and the repository's
 * extension/ablation sweeps) from the shared presets, running the
 * expanded grid on a shared-index thread pool:
 *
 *   cdna_sweep --preset table2                      # one artifact
 *   cdna_sweep --preset fig3 -j 8 --seeds 5 --out fig3.json
 *   cdna_sweep --preset paper -j 8 --out paper.json # tables 1-4 + figs
 *   cdna_sweep --list                               # available presets
 *   cdna_sweep --preset fig3 --observe cdna/g1 --trace t.json
 *
 * Each preset prints its table (sim::renderTable): one row per cell in
 * the preset's columns, then the paper's published values against their
 * bands.  Per-run JSON inside --out is byte-identical for any -j, with
 * or without observability, and matches a standalone run of the same
 * configuration at the same seed (see sim/sweep.hh for the determinism
 * contract).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/fault_plan.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "sim/thread_pool.hh"

using namespace cdna;

namespace {

/** Usage text; the observability lines come from the core CLI's rows. */
std::string
usage()
{
    std::string out =
        "usage: cdna_sweep --preset NAME [options]\n"
        "\n"
        "presets:\n"
        "  --preset NAME       experiment preset to expand and run; 'paper'\n"
        "                      runs tables 1-4 and figures 3-4 in sequence\n"
        "  --list              print the available presets and exit\n"
        "\n"
        "execution (never affects results):\n"
        "  -j N, -jN, --jobs N worker threads (default: hardware threads)\n"
        "  --seeds N           run each cell with seeds 1..N (default 1)\n"
        "  --out FILE          write the sweep JSON document to FILE\n"
        "                      ('paper' appends the preset name per file)\n"
        "  --quiet             suppress per-run progress lines\n"
        "  --help              this text\n"
        "\n"
        "observability (one run of one preset; its JSON is unchanged):\n";
    for (const core::CliOptionSpec &s : core::cliOptionTable())
        if (s.group == "observability")
            out += core::cliOptionUsage(s);
    out += "  --observe CELL      observe the first run whose cell contains\n"
           "                      CELL (default: the preset's first cell)\n"
           "\n"
           "stdout gets each preset's table: one row per cell, then the\n"
           "paper's published values against their bands.\n";
    return out;
}

struct Args
{
    std::vector<std::string> presets;
    unsigned jobs = 0; // 0 = defaultThreadCount()
    std::uint32_t seeds = 1;
    std::string out;
    bool quiet = false;
    core::CliOptions obs;
    std::optional<std::string> observe;

    bool
    observing() const
    {
        return !obs.traceFile.empty() || !obs.statsJsonFile.empty();
    }
};

/**
 * Parse @p v as a complete positive decimal integer that fits in 32
 * bits; anything else ("2x", "-1", "0", "") is an error for @p flag.
 */
bool
positive(const char *flag, const std::string &v, std::uint32_t *out)
{
    std::uint32_t n = 0;
    if (!core::parseCount(v, &n) || n == 0) {
        std::fprintf(stderr,
                     "cdna_sweep: %s needs a positive integer, got '%s'\n",
                     flag, v.c_str());
        return false;
    }
    *out = n;
    return true;
}

/** The core CLI's observability option named @p name, or nullptr. */
const core::CliOptionSpec *
observabilityOption(const std::string &name)
{
    for (const core::CliOptionSpec &s : core::cliOptionTable())
        if (s.group == "observability" && s.name == name)
            return &s;
    return nullptr;
}

int
runOne(const std::string &name, const Args &args)
{
    auto spec = sim::presets::byName(name);
    if (!spec) {
        std::fprintf(stderr, "cdna_sweep: unknown preset '%s' "
                             "(--list shows the choices)\n",
                     name.c_str());
        return 1;
    }
    spec->seeds(args.seeds);
    std::vector<sim::RunPoint> points = spec->expand();

    sim::SweepOptions opt;
    opt.jobs = args.jobs;
    if (args.observing()) {
        opt.observeCell = args.observe.value_or(points.front().cell);
        if (std::none_of(points.begin(), points.end(), [&](const auto &p) {
                return p.cell.find(opt.observeCell) != std::string::npos;
            })) {
            std::fprintf(stderr,
                         "cdna_sweep: --observe '%s' matches no cell of "
                         "preset '%s'\n",
                         opt.observeCell.c_str(), name.c_str());
            return 1;
        }
        opt.obs = args.obs;
    }
    if (!args.quiet) {
        opt.onResult = [](const sim::RunResult &r, std::size_t done,
                          std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s seed=%llu: %.0f Mb/s\n",
                         done, total, r.point.cell.c_str(),
                         static_cast<unsigned long long>(r.point.seed),
                         r.report.mbps);
        };
    }

    unsigned jobs = args.jobs ? args.jobs : sim::defaultThreadCount();
    std::fprintf(stderr, "=== %s: %zu runs on %u worker(s) ===\n",
                 name.c_str(), points.size(), jobs);

    auto t0 = std::chrono::steady_clock::now();
    sim::SweepResult result;
    try {
        result = sim::runSweep(*spec, opt);
    } catch (const std::exception &e) {
        // A run that failed, or an observed run whose trace or stats
        // file cannot be written: no table and no --out.
        std::fprintf(stderr, "cdna_sweep: %s\n", e.what());
        return 1;
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::fprintf(stderr, "=== %s: done in %.2f s ===\n", name.c_str(),
                 wall);

    sim::SweepTable table = sim::renderTable(*spec, result);
    std::printf("%s\n", table.text.c_str());

    if (!args.out.empty()) {
        std::string path = args.out;
        if (args.presets.size() > 1) {
            // Several presets share --out: suffix each with its name.
            std::size_t dot = path.rfind('.');
            std::string stem =
                dot == std::string::npos ? path : path.substr(0, dot);
            std::string ext =
                dot == std::string::npos ? "" : path.substr(dot);
            path = stem + "-" + name + ext;
        }
        std::ofstream f(path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "cdna_sweep: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        f << sim::sweepToJson(result);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    for (const std::string &e : table.errors)
        std::fprintf(stderr, "cdna_sweep: %s: %s\n", name.c_str(), e.c_str());
    return table.errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::vector<std::string> obsArgs; // parsed by the core CLI's table
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        // Accept --opt=value and -jN as well as --opt value.
        std::size_t eq = a.find('=');
        bool inlineValue = a.size() > 2 && a.compare(0, 2, "--") == 0 &&
                           eq != std::string::npos;
        if (inlineValue) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (a.size() > 2 && a.compare(0, 2, "-j") == 0) {
            inlineValue = true;
            v = a.substr(2);
            a = "-j";
        }
        auto value = [&](const char *flag) {
            if (!inlineValue && i + 1 < argc)
                v = argv[++i];
            if (v.empty())
                std::fprintf(stderr, "cdna_sweep: %s needs a value\n", flag);
            return !v.empty();
        };

        if (a == "--help" || a == "-h") {
            std::printf("%s", usage().c_str());
            return 0;
        } else if (a == "--list") {
            for (const auto &[name, make] : sim::presets::all()) {
                auto spec = make();
                std::printf("  %-12s %zu runs/seed\n", name.c_str(),
                            spec.expand().size());
            }
            return 0;
        } else if (a == "--preset") {
            if (!value("--preset"))
                return 1;
            if (v == "paper")
                args.presets = {"table1", "table2", "table3",
                                "table4", "fig3",   "fig4"};
            else
                args.presets.push_back(v);
        } else if (a == "-j" || a == "--jobs") {
            std::uint32_t jobs = 0;
            if (!value("--jobs") || !positive("--jobs", v, &jobs))
                return 1;
            args.jobs = jobs;
        } else if (a == "--seeds") {
            if (!value("--seeds") || !positive("--seeds", v, &args.seeds))
                return 1;
        } else if (a == "--out") {
            if (!value("--out"))
                return 1;
            args.out = v;
        } else if (a == "--quiet") {
            args.quiet = true;
        } else if (a == "--observe") {
            if (!value("--observe"))
                return 1;
            args.observe = v;
        } else if (const core::CliOptionSpec *o = observabilityOption(a)) {
            obsArgs.push_back(a);
            if (o->takesValue()) {
                if (!value(o->name.c_str()))
                    return 1;
                obsArgs.push_back(v);
            }
        } else {
            std::fprintf(stderr, "cdna_sweep: unknown option %s\n%s",
                         a.c_str(), usage().c_str());
            return 1;
        }
    }

    if (args.presets.empty()) {
        std::fprintf(stderr, "cdna_sweep: --preset is required\n%s",
                     usage().c_str());
        return 1;
    }
    if (!obsArgs.empty() || args.observe) {
        std::string error;
        auto parsed = core::parseCli(obsArgs, &error);
        if (!parsed) {
            std::fprintf(stderr, "cdna_sweep: %s\n", error.c_str());
            return 1;
        }
        args.obs = *parsed;
        if (args.observe && !args.observing()) {
            std::fprintf(stderr, "cdna_sweep: --observe would write "
                                 "nothing without --trace or "
                                 "--stats-json\n");
            return 1;
        }
        if (args.observing() && args.presets.size() > 1) {
            std::fprintf(stderr, "cdna_sweep: --trace and --stats-json "
                                 "observe one run of one preset\n");
            return 1;
        }
    }

    for (const std::string &name : args.presets) {
        int rc = runOne(name, args);
        if (rc)
            return rc;
    }
    return 0;
}
