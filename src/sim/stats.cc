#include "sim/stats.hh"

#include <bit>
#include <cmath>
#include <utility>

#include "sim/assert.hh"

namespace cdna::sim {

void
Histogram::record(std::uint64_t x)
{
    // With S = 2^subBits_ sub-buckets per octave: values below 2S get
    // an exact bucket each; above, the top subBits_ bits below the
    // leading one select a linear sub-bucket inside the octave.  At
    // subBits_ == 0 this reduces exactly to the original
    // one-bucket-per-octave layout (index = bit_width(x)).
    const std::uint64_t s = 1ULL << subBits_;
    int b;
    if (x < 2 * s) {
        b = static_cast<int>(x);
    } else {
        int m = std::bit_width(x) - 1;
        auto sub = static_cast<int>((x >> (m - subBits_)) & (s - 1));
        b = (m - subBits_) * static_cast<int>(s) + sub +
            static_cast<int>(s);
    }
    if (b >= static_cast<int>(buckets_.size()))
        b = static_cast<int>(buckets_.size()) - 1;
    ++buckets_[b];
    ++total_;
}

void
Histogram::merge(const Histogram &other)
{
    SIM_ASSERT(subBits_ == other.subBits_,
               "merging histograms of different sub-bucket geometry");
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    total_ += other.total_;
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return 0;
    // Clamp malformed input (NaN compares false, so test the valid range).
    if (!(q > 0.0))
        q = 0.0;
    else if (q > 1.0)
        q = 1.0;
    // Rank of the target sample: the smallest value v with CDF(v) >= q.
    // ceil() keeps q = 1.0 reachable (the old floor()-and-strictly-greater
    // form could never satisfy `seen > total` and fell off the loop).
    auto target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
    if (target == 0)
        target = 1;
    const std::uint64_t s = 1ULL << subBits_;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen < target)
            continue;
        // Inclusive upper bound of bucket b (inverse of record()).
        if (b < 2 * s)
            return b;
        std::uint64_t t = b - s;
        std::uint64_t m = t / s + subBits_;
        std::uint64_t r = t % s;
        return (1ULL << m) + (r + 1) * (1ULL << (m - subBits_)) - 1;
    }
    SIM_PANIC("histogram bucket sum diverged from total");
}

void
StatGroup::add(std::string name, const Counter &c)
{
    SIM_ASSERT(!findCounter(name), "duplicate stat name registered");
    counters_.emplace_back(std::move(name), &c);
}

const Counter *
StatGroup::findCounter(const std::string &name) const
{
    for (const auto &[n, c] : counters_)
        if (n == name)
            return c;
    return nullptr;
}

} // namespace cdna::sim
