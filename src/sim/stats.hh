/**
 * @file
 * Lightweight statistics primitives used throughout the simulator.
 *
 * A component counts events in Counters it holds as members; each one
 * registers with the component's StatGroup, a flat, named view that the
 * metrics registry federates into one JSON document
 * (sim/metrics_registry.hh).  Latency families are LatencyRecorders,
 * which the report reads directly.
 */

#ifndef CDNA_SIM_STATS_HH
#define CDNA_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace cdna::sim {

class StatGroup;

/**
 * Monotonic event counter, a member of the component that counts it.
 * Declared with its group and name, it registers where it is declared,
 * so a group lists its counters in declaration order:
 *
 *   sim::Counter nTxPkts_{stats(), "tx_packets"};
 *
 * A counter whose name is computed (per port, per ledger entry) is
 * default-constructed and registered with StatGroup::add() instead.
 * The group keeps its address, so a counter never copies or moves.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup &group, std::string name);

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
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

/**
 * One component's counters by name, in registration order.  The
 * counters belong to the component; the group only lists them.
 */
class StatGroup
{
  public:
    /** Register @p c as @p name.  Duplicate names are a simulator bug
     *  (panic). */
    void add(std::string name, const Counter &c);

    /** Look up a registered counter by name; null when absent. */
    const Counter *findCounter(const std::string &name) const;

    const std::vector<std::pair<std::string, const Counter *>> &
    counters() const { return counters_; }

  private:
    std::vector<std::pair<std::string, const Counter *>> counters_;
};

inline Counter::Counter(StatGroup &group, std::string name)
{
    group.add(std::move(name), *this);
}

} // namespace cdna::sim

#endif // CDNA_SIM_STATS_HH
