/**
 * @file
 * Lightweight statistics primitives used throughout the simulator.
 *
 * Components expose Counters and SampleStats; experiment harnesses read
 * them at the end of (or during) a run.  A StatGroup gives a component a
 * flat, named view of its statistics, which the metrics registry
 * federates into one JSON document (sim/metrics_registry.hh).
 */

#ifndef CDNA_SIM_STATS_HH
#define CDNA_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace cdna::sim {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Events per simulated second over @p elapsed. */
    double
    rate(Time elapsed) const
    {
        return elapsed > 0 ? static_cast<double>(value_) / toSeconds(elapsed)
                           : 0.0;
    }

  private:
    std::uint64_t value_ = 0;
};

/** Running min/max/mean/variance over double-valued samples (Welford). */
class SampleStats
{
  public:
    void record(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /** Population variance. */
    double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
    double stddev() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Power-of-two bucketed histogram for latency-like quantities, with
 * optional HdrHistogram-style sub-bucketing: each power-of-two range
 * is split into 2^sub_bucket_bits linear sub-buckets, bounding the
 * relative quantile error at 2^-sub_bucket_bits (12.5% at 3 bits)
 * instead of a full octave.  The default (0 bits) keeps the original
 * one-bucket-per-octave geometry and bucket layout bit-for-bit.
 */
class Histogram
{
  public:
    explicit Histogram(int num_buckets = 48, int sub_bucket_bits = 0)
        : buckets_(num_buckets, 0), subBits_(sub_bucket_bits)
    {}

    void record(std::uint64_t x);

    /** Accumulate another histogram's buckets into this one.  Both
     *  histograms must share the same sub-bucket geometry. */
    void merge(const Histogram &other);

    std::uint64_t count() const { return total_; }
    int subBucketBits() const { return subBits_; }

    /**
     * Approximate quantile (bucket upper bound).  @p q is clamped to
     * [0,1] (NaN counts as 0); q = 1.0 returns the upper bound of the
     * highest occupied bucket.
     */
    std::uint64_t quantile(double q) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
    int subBits_ = 0;
};

/**
 * Latency samples in microseconds: their sum (for the mean) and a
 * Histogram (for the count and quantiles).  Recorders merge, so a
 * report reads one latency family over every component recording it.
 */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(int num_buckets = 48, int sub_bucket_bits = 0)
        : hist_(num_buckets, sub_bucket_bits)
    {}

    void
    record(Time elapsed)
    {
        double us = toMicroseconds(elapsed);
        sum_ += us;
        hist_.record(static_cast<std::uint64_t>(us));
    }

    /** Add @p other's samples (same histogram geometry). */
    void
    merge(const LatencyRecorder &other)
    {
        hist_.merge(other.hist_);
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return hist_.count(); }
    /** Mean in microseconds; needs count() > 0. */
    double mean() const { return sum_ / static_cast<double>(count()); }
    std::uint64_t quantile(double q) const { return hist_.quantile(q); }

  private:
    Histogram hist_;
    double sum_ = 0.0;
};

/** A named, flat set of statistics owned by one component. */
class StatGroup
{
  public:
    /** Register a counter.  Duplicate names are a simulator bug (panic). */
    Counter &addCounter(const std::string &name);
    /** Register a sample stat.  Duplicate names panic. */
    SampleStats &addSamples(const std::string &name);

    /** Look up a registered stat by name; null when absent. */
    const Counter *findCounter(const std::string &name) const;
    const SampleStats *findSamples(const std::string &name) const;

    const std::vector<std::pair<std::string, const Counter *>> &
    counters() const { return counterView_; }
    const std::vector<std::pair<std::string, const SampleStats *>> &
    samples() const { return sampleView_; }

  private:
    // Deque-like stable storage: pointers handed out must not move.
    std::vector<std::unique_ptr<Counter>> counterStore_;
    std::vector<std::unique_ptr<SampleStats>> sampleStore_;
    std::vector<std::pair<std::string, const Counter *>> counterView_;
    std::vector<std::pair<std::string, const SampleStats *>> sampleView_;
};

} // namespace cdna::sim

#endif // CDNA_SIM_STATS_HH
