#include "sim/sweep.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <set>

#include "sim/assert.hh"
#include "sim/thread_pool.hh"
#include "sim/topology.hh"

namespace cdna::sim {

namespace {

/** Student's t(0.975, df): the 95% interval of a mean over df + 1
 *  samples.  Past df = 30 the normal quantile is close enough. */
double
tQuantile975(std::size_t df)
{
    static constexpr double kT[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    return df <= std::size(kT) ? kT[df - 1] : 1.960;
}

} // namespace

MetricStats
MetricStats::of(const std::vector<double> &xs)
{
    MetricStats s;
    if (xs.empty())
        return s;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    s.mean = sum / static_cast<double>(xs.size());
    if (xs.size() > 1) {
        double sq = 0.0;
        for (double x : xs)
            sq += (x - s.mean) * (x - s.mean);
        s.stddev = std::sqrt(sq / static_cast<double>(xs.size() - 1));
        s.ci95 = tQuantile975(xs.size() - 1) * s.stddev /
                 std::sqrt(static_cast<double>(xs.size()));
    }
    return s;
}

std::vector<RunPoint>
ExperimentSpec::expand() const
{
    SIM_ASSERT(!configs_.empty(), "experiment spec has no configurations");
    SIM_ASSERT(!guests_.empty(), "experiment spec has no guest counts");
    SIM_ASSERT(!seeds_.empty(), "experiment spec has no seeds");

    std::vector<RunPoint> points;

    // Odometer over the generic axes (empty product = one iteration).
    std::vector<std::size_t> pos(axes_.size(), 0);
    auto advance = [&]() {
        for (std::size_t a = axes_.size(); a-- > 0;) {
            if (++pos[a] < axes_[a].values.size())
                return true;
            pos[a] = 0;
        }
        return false;
    };

    for (const ConfigSeries &series : configs_) {
        for (std::uint32_t g : guests_) {
            std::fill(pos.begin(), pos.end(), 0);
            do {
                core::SystemConfig base = series.make(g);
                std::string cell = series.label;
                if (guests_.size() > 1)
                    cell += "/g" + std::to_string(g);
                for (std::size_t a = 0; a < axes_.size(); ++a) {
                    const AxisValue &v = axes_[a].values[pos[a]];
                    v.apply(base);
                    if (!v.label.empty())
                        cell += "/" + v.label;
                }
                for (std::uint64_t seed : seeds_) {
                    RunPoint p;
                    p.cell = cell;
                    p.seed = seed;
                    p.config = base;
                    p.config.withSeed(seed);
                    p.warmup = warmup_;
                    p.measure = measure_;
                    points.push_back(std::move(p));
                }
            } while (advance());
        }
    }
    return points;
}

core::Report
runHost(const RunPoint &point)
{
    Topology topo(point.config.seed, point.observe);
    topo.addHost(point.config, {});
    topo.run(point.warmup, point.measure);
    return topo.report(0);
}

RunResult
runPoint(const ExperimentSpec &spec, const RunPoint &point)
{
    RunResult result;
    result.point = point;
    result.point.observe = nullptr;
    result.report = spec.runnerFn() ? spec.runnerFn()(point, result.extra)
                                    : runHost(point);
    result.json = core::reportToJson(result.report);
    return result;
}

namespace {

std::vector<CellStats>
aggregate(const std::vector<RunResult> &runs)
{
    // Group run indices by cell, preserving first-appearance order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<std::size_t>> byCell;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        auto [it, fresh] = byCell.try_emplace(runs[i].point.cell);
        if (fresh)
            order.push_back(runs[i].point.cell);
        it->second.push_back(i);
    }

    std::vector<CellStats> cells;
    cells.reserve(order.size());
    for (const std::string &cell : order) {
        const std::vector<std::size_t> &idx = byCell[cell];
        CellStats cs;
        cs.cell = cell;
        cs.runs = idx.size();
        cs.firstRun = idx.front();
        std::vector<double> xs(idx.size());
        for (const core::MetricRow &m : core::reportMetrics()) {
            if (!m.cell)
                continue;
            for (std::size_t k = 0; k < idx.size(); ++k)
                xs[k] = m.value(runs[idx[k]].report);
            cs.metrics.emplace_back(m.key, MetricStats::of(xs));
        }
        // Runner extras: keyed off the first run (every run of a cell
        // shares the spec's runner, hence the same keys).
        for (const auto &[name, unused] : runs[idx.front()].extra) {
            (void)unused;
            for (std::size_t k = 0; k < idx.size(); ++k) {
                auto it = runs[idx[k]].extra.find(name);
                xs[k] = it == runs[idx[k]].extra.end() ? 0.0 : it->second;
            }
            cs.metrics.emplace_back(name, MetricStats::of(xs));
        }
        cells.push_back(std::move(cs));
    }
    return cells;
}

} // namespace

SweepResult
runSweep(const ExperimentSpec &spec, const SweepOptions &opt)
{
    std::vector<RunPoint> points = spec.expand();

    // The observed run (if any): the first expanded point whose cell
    // matches, at the first seed.
    if (!opt.observeCell.empty()) {
        for (RunPoint &p : points) {
            if (p.seed == spec.seedEnsemble().front() &&
                p.cell.find(opt.observeCell) != std::string::npos) {
                p.observe = &opt.obs;
                break;
            }
        }
    }

    SweepResult result;
    result.name = spec.name();
    result.runs.resize(points.size());

    std::mutex progressMu;
    std::size_t done = 0;
    unsigned jobs = opt.jobs ? opt.jobs : defaultThreadCount();

    parallelFor(jobs, points.size(), [&](std::size_t i) {
        RunResult r = runPoint(spec, points[i]);
        {
            std::lock_guard<std::mutex> lock(progressMu);
            result.runs[i] = std::move(r);
            ++done;
            if (opt.onResult)
                opt.onResult(result.runs[i], done, points.size());
        }
    });

    result.cells = aggregate(result.runs);
    return result;
}

namespace {

/** Append @p text with every line prefixed by @p indent. */
void
appendIndented(std::string *out, const std::string &text,
               const char *indent)
{
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > start) {
            *out += indent;
            out->append(text, start, nl - start);
        }
        if (nl < text.size())
            *out += '\n';
        start = nl + 1;
    }
}

} // namespace

std::string
sweepToJson(const SweepResult &result)
{
    char buf[256];
    std::string out = "{\n";
    std::snprintf(buf, sizeof(buf), "  \"schema_version\": %d,\n",
                  core::kReportSchemaVersion);
    out += buf;
    out += "  \"kind\": \"cdna-sweep\",\n";
    out += "  \"name\": \"" + result.name + "\",\n";

    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        const RunResult &r = result.runs[i];
        out += "    {\n";
        out += "      \"cell\": \"" + r.point.cell + "\",\n";
        std::snprintf(buf, sizeof(buf), "      \"seed\": %llu,\n",
                      static_cast<unsigned long long>(r.point.seed));
        out += buf;
        if (!r.extra.empty()) {
            out += "      \"extra\": {";
            bool first = true;
            for (const auto &[name, value] : r.extra) {
                std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f",
                              first ? "" : ", ", name.c_str(), value);
                out += buf;
                first = false;
            }
            out += "},\n";
        }
        out += "      \"report\": ";
        // reportToJson output starts with '{': splice it in, indented.
        std::string rj = r.json;
        if (!rj.empty() && rj.back() == '\n')
            rj.pop_back();
        std::string indented;
        appendIndented(&indented, rj, "      ");
        out += indented.substr(6); // first line follows "report": directly
        out += i + 1 < result.runs.size() ? "\n    },\n" : "\n    }\n";
    }
    out += "  ],\n";

    out += "  \"cells\": [\n";
    for (std::size_t c = 0; c < result.cells.size(); ++c) {
        const CellStats &cs = result.cells[c];
        out += "    {\n";
        out += "      \"cell\": \"" + cs.cell + "\",\n";
        std::snprintf(buf, sizeof(buf), "      \"runs\": %llu,\n",
                      static_cast<unsigned long long>(cs.runs));
        out += buf;
        out += "      \"metrics\": {\n";
        for (std::size_t m = 0; m < cs.metrics.size(); ++m) {
            const auto &[name, st] = cs.metrics[m];
            std::snprintf(buf, sizeof(buf),
                          "        \"%s\": {\"mean\": %.4f, "
                          "\"stddev\": %.4f, \"ci95\": %.4f}%s\n",
                          name.c_str(), st.mean, st.stddev, st.ci95,
                          m + 1 < cs.metrics.size() ? "," : "");
            out += buf;
        }
        out += "      }\n";
        out += c + 1 < result.cells.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n}\n";
    return out;
}

namespace {

/** The default band of @p key's family (see PaperValue::band). */
std::optional<Band>
defaultBand(const std::string &key, double paper)
{
    if (key.ends_with("_pct"))
        return Band::absolute(5.0);
    if (key.ends_with("mbps"))
        return paper != 0.0 ? Band::percent(10.0) : Band::absolute(10.0);
    if (key.ends_with("_per_sec"))
        return paper != 0.0 ? Band::percent(25.0) : Band::absolute(100.0);
    return std::nullopt;
}

/**
 * Mean over @p cell's seeds of @p key: a report key (per-guest arrays
 * element by element) or a runner extra.  Empty when the sweep produced
 * no such cell, or the cell no such key.
 */
std::optional<std::vector<double>>
cellMean(const SweepResult &result, const std::string &cell,
         const std::string &key)
{
    const core::MetricRow *m = core::findMetric(key);
    std::vector<double> sum;
    std::size_t n = 0;
    for (const RunResult &run : result.runs) {
        if (run.point.cell != cell)
            continue;
        std::vector<double> v;
        if (!m) {
            auto it = run.extra.find(key);
            if (it == run.extra.end())
                return std::nullopt;
            v = {it->second};
        } else if (const auto *f =
                       std::get_if<std::vector<double> core::Report::*>(
                           &m->field)) {
            v = run.report.**f;
        } else {
            v = {m->value(run.report)};
        }
        sum.resize(std::max(sum.size(), v.size()), 0.0);
        for (std::size_t i = 0; i < v.size(); ++i)
            sum[i] += v[i];
        ++n;
    }
    if (n == 0)
        return std::nullopt;
    for (double &x : sum)
        x /= static_cast<double>(n);
    return sum;
}

/** Labelled rows of cells; the first row holds the column titles. */
using Rows = std::vector<std::pair<std::string, std::vector<std::string>>>;

/** @p rows as text lines, each column right-aligned to its widest cell. */
std::string
alignRows(const Rows &rows)
{
    std::size_t labelWidth = 0;
    std::vector<std::size_t> widths(rows.front().second.size(), 0);
    for (const auto &[label, cells] : rows) {
        labelWidth = std::max(labelWidth, label.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    }
    std::string out;
    for (const auto &[label, cells] : rows)
        out += core::textRow(label, labelWidth, cells, widths) + "\n";
    return out;
}

} // namespace

SweepTable
renderTable(const ExperimentSpec &spec, const SweepResult &result)
{
    SweepTable table;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "=== %s (mean of %zu seed(s)) ===\n",
                  result.name.c_str(), spec.seedEnsemble().size());
    table.text = buf;

    // One row per cell: each column's mean over the cell's seeds.
    const std::vector<std::string> &keys = spec.tableColumns();
    Rows rows = {{"cell", {}}};
    for (const std::string &key : keys)
        rows[0].second.push_back(core::columnTitle(key));
    // A runner extra named like a report key would be written to --out
    // cells under the name the table uses for the report key.
    std::set<std::string> shadowing;
    for (const RunResult &run : result.runs)
        for (const auto &[key, value] : run.extra)
            if (core::findMetric(key) && shadowing.insert(key).second)
                table.errors.push_back("runner extra '" + key +
                                       "' of cell '" + run.point.cell +
                                       "' is named like a report key");
    std::set<std::string> unresolved;
    for (const CellStats &cs : result.cells) {
        std::vector<std::string> cells;
        for (const std::string &key : keys) {
            auto v = cellMean(result, cs.cell, key);
            if (!v && unresolved.insert(key).second)
                table.errors.push_back("column '" + key +
                                       "' is neither a report key nor a "
                                       "runner extra of cell '" +
                                       cs.cell + "'");
            std::string text = v ? "" : "?";
            for (std::size_t i = 0; v && i < v->size(); ++i) {
                if (i)
                    text += '/';
                text += core::formatColumn(key, (*v)[i]);
            }
            cells.push_back(text.empty() ? "-" : text);
        }
        rows.emplace_back(cs.cell, std::move(cells));
    }
    table.text += alignRows(rows);

    // Then one line per paper value: measured, published, error, band.
    Rows lines = {{"paper value", {"measured", "paper", "error", "band", ""}}};
    for (const PaperValue &pv : spec.paperValues()) {
        std::string name = pv.cell + " " + pv.key;
        auto v = cellMean(result, pv.cell, pv.key);
        std::optional<Band> band =
            pv.band ? pv.band : defaultBand(pv.key, pv.value);
        const char *problem = !v || v->size() != 1
                                  ? "the sweep has no such cell and key"
                              : !band ? "no default band for this key"
                                      : nullptr;
        if (problem) {
            table.errors.push_back("paper value " + name + ": " + problem);
            continue;
        }
        const PaperCheck &c = table.checks.emplace_back(
            PaperCheck{pv, v->front(), *band});
        double err = c.measured - pv.value;
        std::snprintf(buf, sizeof(buf), band->relative ? "%+.1f%%" : "%+.1f",
                      band->relative ? 100.0 * err / pv.value : err);
        std::string error = buf;
        std::snprintf(buf, sizeof(buf), band->relative ? "+-%g%%" : "+-%g",
                      band->relative ? 100.0 * band->width : band->width);
        lines.push_back({name,
                         {core::formatColumn(pv.key, c.measured),
                          core::formatColumn(pv.key, pv.value), error, buf,
                          c.inBand() ? "ok" : "OUT"}});
    }
    if (lines.size() > 1)
        table.text += "\n" + alignRows(lines);
    return table;
}

} // namespace cdna::sim
