/**
 * @file
 * Parallel experiment sweeps: declarative specs, isolated runs,
 * aggregated reports.
 *
 * The paper's evaluation is a grid of {configuration x guest count x
 * direction x seed} runs.  An ExperimentSpec describes such a grid
 * declaratively on top of SystemConfig: a set of base configurations
 * (one per paper row/series) crossed with named parameter axes and a
 * seed ensemble.  expand() turns the spec into a flat, deterministic
 * list of RunPoints; runSweep() executes them on a shared-index thread
 * pool, each run a fully isolated sim::Topology (its own EventQueue and
 * Rng), and aggregates per-cell statistics (mean / stddev / 95% CI
 * across the seed ensemble).
 *
 * Determinism is the contract: a run's result depends only on its
 * SystemConfig (including the seed), never on the thread that executed
 * it or on how many workers ran, so per-run JSON is byte-identical
 * between -j1, -jN, and a standalone sequential run of the same
 * configuration.  Results are addressed by run index, and the sweep
 * JSON document contains no wall-clock or thread-count fields.
 */

#ifndef CDNA_SIM_SWEEP_HH
#define CDNA_SIM_SWEEP_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "sim/time.hh"

namespace cdna::sim {

/** One fully resolved run of the grid. */
struct RunPoint
{
    /** Cell identity: config + axis labels, excluding the seed. */
    std::string cell;
    std::uint64_t seed = 1;
    core::SystemConfig config;
    sim::Time warmup = 0;
    sim::Time measure = 0;
    /**
     * Observability options for this run, or null.  runSweep() sets it
     * on the one observed run only, `cdna_sim` on its one run;
     * executors hand it to their Topology, and results never keep it.
     */
    const core::CliOptions *observe = nullptr;
};

/** The outcome of one run. */
struct RunResult
{
    RunPoint point;
    core::Report report;
    /** Canonical per-run JSON: exactly core::reportToJson(report). */
    std::string json;
    /** Runner-extracted metrics (deterministic order); usually empty. */
    std::map<std::string, double> extra;
};

/** mean / sample stddev / 95% CI half-width (Student's t) of one metric
 *  in a cell. */
struct MetricStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double ci95 = 0.0;
    static MetricStats of(const std::vector<double> &xs);
};

/** Aggregate over the seed ensemble of one cell. */
struct CellStats
{
    std::string cell;
    std::size_t runs = 0;
    /** Keyed by the per-run JSON metric name ("mbps", "idle_pct"...). */
    std::vector<std::pair<std::string, MetricStats>> metrics;
    /** Index of the cell's first run (lowest seed) in the result list. */
    std::size_t firstRun = 0;
};

/** Tolerance around a published value. */
struct Band
{
    double width = 0.0;    //!< half-width of the band
    bool relative = false; //!< width is a fraction of the published value

    static Band percent(double p) { return {p / 100.0, true}; }
    static Band absolute(double w) { return {w, false}; }
};

/** A number the paper publishes for one metric of one preset cell. */
struct PaperValue
{
    std::string cell;
    /** A table column: report key or runner extra. */
    std::string key;
    double value = 0.0;
    /**
     * Unset: the key family's default -- +-10% for Mb/s, +-5 points for
     * *_pct, +-25% for *_per_sec, absolute (10 Mb/s, 100 /s) where the
     * published value is 0.  Wider bands only for a deviation that
     * EXPERIMENTS.md documents.
     */
    std::optional<Band> band;
};

/**
 * Declarative description of an experiment grid.
 *
 * Build fluently:
 *
 *   auto spec = ExperimentSpec("fig3")
 *                   .config("xen", [](std::uint32_t g) {
 *                       return core::SystemConfig::xenIntel(g);
 *                   })
 *                   .config("cdna", [](std::uint32_t g) {
 *                       return core::SystemConfig::cdna(g);
 *                   })
 *                   .guests({1, 2, 4, 8, 12, 16, 20, 24})
 *                   .seeds(3);
 *
 * Expansion order is the declaration order: configs outermost, then
 * each axis in the order added, then seeds innermost.  Cell labels are
 * "config/axis1/axis2" (axis labels with empty strings are skipped).
 */
class ExperimentSpec
{
  public:
    /** Builds a base configuration for a given guest count. */
    using ConfigFactory =
        std::function<core::SystemConfig(std::uint32_t guests)>;
    /** In-place tweak applied by a generic axis value. */
    using Mutator = std::function<void(core::SystemConfig &)>;
    /**
     * Custom executor: build the sim::Topology the run point asks for
     * (multi-host switches, external peers), hand it point.observe,
     * run it, and return the report to record, filling @p extra with
     * whatever it reads from the topology after the run.  Without one,
     * a cell runs as a one-host topology (runHost()).  Determinism
     * contract is unchanged: the result may depend only on the run
     * point.
     */
    using Runner = std::function<core::Report(
        const RunPoint &, std::map<std::string, double> &extra)>;

    explicit ExperimentSpec(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Add a base configuration series (one curve / table row group). */
    ExperimentSpec &
    config(std::string label, ConfigFactory make)
    {
        configs_.push_back({std::move(label), std::move(make)});
        return *this;
    }

    /** Convenience: a series from a fixed config (guest count preset). */
    ExperimentSpec &
    config(std::string label, core::SystemConfig cfg)
    {
        return config(std::move(label),
                      [cfg = std::move(cfg)](std::uint32_t) { return cfg; });
    }

    /** Guest-count axis (passed to every ConfigFactory). */
    ExperimentSpec &
    guests(std::vector<std::uint32_t> counts)
    {
        guests_ = std::move(counts);
        return *this;
    }

    /** Direction axis: which of tx / rx to run. */
    ExperimentSpec &
    directions(bool tx, bool rx)
    {
        Axis axis{"direction", {}};
        if (tx)
            axis.values.push_back(
                {"tx", [](core::SystemConfig &c) { c.transmit(true); }});
        if (rx)
            axis.values.push_back(
                {"rx", [](core::SystemConfig &c) { c.receive(); }});
        axes_.push_back(std::move(axis));
        return *this;
    }

    /** Generic named axis of (label, config mutation) values. */
    ExperimentSpec &
    vary(std::string axis_name,
         std::vector<std::pair<std::string, Mutator>> values)
    {
        Axis axis{std::move(axis_name), {}};
        for (auto &[label, apply] : values)
            axis.values.push_back({std::move(label), std::move(apply)});
        axes_.push_back(std::move(axis));
        return *this;
    }

    /** Seed ensemble 1..n. */
    ExperimentSpec &
    seeds(std::uint32_t n)
    {
        seeds_.clear();
        for (std::uint64_t s = 1; s <= n; ++s)
            seeds_.push_back(s);
        return *this;
    }

    ExperimentSpec &
    warmup(sim::Time t)
    {
        warmup_ = t;
        return *this;
    }

    ExperimentSpec &
    measure(sim::Time t)
    {
        measure_ = t;
        return *this;
    }

    /** Install a custom executor (see Runner). */
    ExperimentSpec &
    runner(Runner r)
    {
        runner_ = std::move(r);
        return *this;
    }

    /** The columns of the preset's table: report keys or runner extras. */
    ExperimentSpec &
    columns(std::vector<std::string> keys)
    {
        columns_ = std::move(keys);
        return *this;
    }

    /** A published value for @p cell's @p key (see PaperValue). */
    ExperimentSpec &
    paper(std::string cell, std::string key, double value,
          std::optional<Band> band = std::nullopt)
    {
        paper_.push_back({std::move(cell), std::move(key), value, band});
        return *this;
    }

    const Runner &runnerFn() const { return runner_; }
    const std::vector<std::uint64_t> &seedEnsemble() const { return seeds_; }
    const std::vector<std::string> &tableColumns() const { return columns_; }
    const std::vector<PaperValue> &paperValues() const { return paper_; }

    /**
     * Expand the grid into its flat, deterministically ordered run
     * list: configs x guests x axes x seeds, declaration order.
     */
    std::vector<RunPoint> expand() const;

  private:
    struct ConfigSeries
    {
        std::string label;
        ConfigFactory make;
    };
    struct AxisValue
    {
        std::string label;
        Mutator apply;
    };
    struct Axis
    {
        std::string name;
        std::vector<AxisValue> values;
    };

    std::string name_;
    std::vector<ConfigSeries> configs_;
    std::vector<std::uint32_t> guests_{1};
    std::vector<Axis> axes_;
    std::vector<std::uint64_t> seeds_{1};
    sim::Time warmup_ = sim::milliseconds(100);
    sim::Time measure_ = sim::milliseconds(400);
    Runner runner_;
    std::vector<std::string> columns_;
    std::vector<PaperValue> paper_;
};

/** Execution knobs for a sweep (none of these affect results). */
struct SweepOptions
{
    /** Worker threads; 0 picks defaultThreadCount(). */
    unsigned jobs = 1;
    /**
     * Observability: apply these CLI trace/stats options to the first
     * run whose cell contains observeCell (first seed only).  Tracing
     * is read-only with respect to simulated state, so an observed run
     * still produces byte-identical JSON.
     */
    std::string observeCell;
    core::CliOptions obs;
    /**
     * Progress hook, called after each run completes (from worker
     * threads, serialized by the runner).  Completion order is
     * nondeterministic; use the result list for ordered output.
     */
    std::function<void(const RunResult &, std::size_t done,
                       std::size_t total)>
        onResult;
};

/** The results of a full sweep, in expansion (not completion) order. */
struct SweepResult
{
    std::string name;
    std::vector<RunResult> runs;
    /** Per-cell aggregates, in first-appearance order. */
    std::vector<CellStats> cells;
};

/**
 * The default executor: run @p point's config as the only host of a
 * sim::Topology observed by point.observe, and return its report.
 * @throw std::runtime_error when the machine cannot hold the config or
 *        an observability file cannot be written
 */
core::Report runHost(const RunPoint &point);

/** Execute @p point in isolation: @p spec's runner, else runHost(). */
RunResult runPoint(const ExperimentSpec &spec, const RunPoint &point);

/**
 * Expand @p spec and execute every run; see file header for contract.
 * The first exception a run throws is rethrown once every worker stops.
 */
SweepResult runSweep(const ExperimentSpec &spec, const SweepOptions &opt);

/**
 * Render a sweep as a versioned JSON document.
 *
 * Layout (stable key order, byte-identical for any -j):
 *   { "schema_version": core::kReportSchemaVersion,
 *     "kind": "cdna-sweep", "name": ...,
 *     "runs":  [ {"cell", "seed", ["extra",] "report": {...}} ... ],
 *     "cells": [ {"cell", "runs", "metrics": {name: {mean,stddev,ci95}}} ] }
 *
 * The nested "report" objects are exactly reportToJson() output, so a
 * sweep cell can be diffed byte-for-byte against a single run.
 */
std::string sweepToJson(const SweepResult &result);

/** One published value against what the sweep measured. */
struct PaperCheck
{
    PaperValue paper;
    double measured = 0.0;
    /** The band applied: the value's own, else its family's default. */
    Band band;

    double
    halfWidth() const
    {
        return band.relative ? band.width * std::fabs(paper.value)
                             : band.width;
    }
    double lo() const { return paper.value - halfWidth(); }
    double hi() const { return paper.value + halfWidth(); }
    bool inBand() const { return measured >= lo() && measured <= hi(); }
};

/** A preset's text table and its paper checks. */
struct SweepTable
{
    /** One row per cell, then one line per paper value. */
    std::string text;
    std::vector<PaperCheck> checks;
    /**
     * Columns and paper values the table cannot resolve: a cell or key
     * the sweep did not produce, or a key with no default band.
     */
    std::vector<std::string> errors;
};

/**
 * Render @p result with @p spec's columns.  Each value is the mean over
 * the cell's seeds, in report units; per-guest arrays are joined by '/'.
 */
SweepTable renderTable(const ExperimentSpec &spec, const SweepResult &result);

} // namespace cdna::sim

#endif // CDNA_SIM_SWEEP_HH
