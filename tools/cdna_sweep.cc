/**
 * @file
 * `cdna_sweep`: parallel experiment-sweep driver.
 *
 * One binary regenerates every paper artifact (and the repository's
 * extension/ablation sweeps) from the shared presets, running the
 * expanded grid on a work-stealing thread pool:
 *
 *   cdna_sweep --preset table2                      # one artifact
 *   cdna_sweep --preset fig3 -j 8 --seeds 5 --out fig3.json
 *   cdna_sweep --preset paper -j 8 --out paper.json # tables 1-4 + figs
 *   cdna_sweep --list                               # available presets
 *
 * Per-run JSON inside --out is byte-identical for any -j and matches a
 * standalone run of the same configuration at the same seed (see
 * sim/sweep.hh for the determinism contract).
 */

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "sim/thread_pool.hh"

using namespace cdna;

namespace {

constexpr const char *kUsage =
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
    "  --help              this text\n";

struct Args
{
    std::vector<std::string> presets;
    unsigned jobs = 0; // 0 = defaultThreadCount()
    std::uint32_t seeds = 1;
    std::string out;
    bool quiet = false;
};

bool
needValue(int argc, char **argv, int *i, const char *flag,
          std::string *value)
{
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "cdna_sweep: %s needs a value\n", flag);
        return false;
    }
    *value = argv[++*i];
    return true;
}

/**
 * Parse @p v as a complete positive decimal integer that fits in 32
 * bits; anything else ("2x", "-1", "0", "") is an error for @p flag.
 */
bool
positive(const char *flag, const std::string &v, std::uint32_t *out)
{
    bool digits = !v.empty() &&
                  v.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    unsigned long long n = digits ? std::strtoull(v.c_str(), nullptr, 10) : 0;
    if (n == 0 || errno == ERANGE || n > UINT32_MAX) {
        std::fprintf(stderr,
                     "cdna_sweep: %s needs a positive integer, got '%s'\n",
                     flag, v.c_str());
        return false;
    }
    *out = static_cast<std::uint32_t>(n);
    return true;
}

/** Print a compact per-cell summary table for one finished sweep. */
void
printSummary(const sim::SweepResult &result)
{
    std::printf("%-28s %5s %10s %9s %8s %8s\n", "cell", "n", "Mb/s",
                "+-ci95", "idle%", "gstIrq/s");
    for (const auto &cell : result.cells) {
        double mbps = 0, ci = 0, idle = 0, irq = 0;
        for (const auto &[name, st] : cell.metrics) {
            if (!std::strcmp(name.c_str(), "mbps")) {
                mbps = st.mean;
                ci = st.ci95;
            } else if (!std::strcmp(name.c_str(), "idle_pct")) {
                idle = st.mean;
            } else if (!std::strcmp(name.c_str(),
                                    "guest_intr_per_sec")) {
                irq = st.mean;
            }
        }
        std::printf("%-28s %5zu %10.0f %9.1f %8.1f %8.0f\n",
                    cell.cell.c_str(), cell.runs, mbps, ci, idle, irq);
    }
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

    sim::SweepOptions opt;
    opt.jobs = args.jobs;
    if (!args.quiet) {
        opt.onResult = [](const sim::RunResult &r, std::size_t done,
                          std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s seed=%llu: %.0f Mb/s\n",
                         done, total, r.point.cell.c_str(),
                         static_cast<unsigned long long>(r.point.seed),
                         r.report.mbps);
        };
    }

    std::size_t totalRuns = spec->expand().size();
    unsigned jobs = args.jobs ? args.jobs : sim::defaultThreadCount();
    std::fprintf(stderr, "=== %s: %zu runs on %u worker(s) ===\n",
                 name.c_str(), totalRuns, jobs);

    auto t0 = std::chrono::steady_clock::now();
    sim::SweepResult result = sim::runSweep(*spec, opt);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::fprintf(stderr, "=== %s: done in %.2f s ===\n", name.c_str(),
                 wall);

    printSummary(result);

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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
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
            if (!inlineValue)
                return needValue(argc, argv, &i, flag, &v);
            if (v.empty())
                std::fprintf(stderr, "cdna_sweep: %s needs a value\n", flag);
            return !v.empty();
        };

        if (a == "--help" || a == "-h") {
            std::printf("%s", kUsage);
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
        } else {
            std::fprintf(stderr, "cdna_sweep: unknown option %s\n%s",
                         a.c_str(), kUsage);
            return 1;
        }
    }

    if (args.presets.empty()) {
        std::fprintf(stderr, "cdna_sweep: --preset is required\n%s",
                     kUsage);
        return 1;
    }

    for (const std::string &name : args.presets) {
        int rc = runOne(name, args);
        if (rc)
            return rc;
    }
    return 0;
}
