/**
 * @file
 * Small statistics helpers shared by the simulators and benches.
 */

#ifndef ARCC_COMMON_STATS_HH
#define ARCC_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace arcc
{

/**
 * Online mean / variance accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
    }

    /** @return sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** @return population variance (0 when fewer than 2 samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** @return population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** @return smallest sample seen (+inf when empty). */
    double min() const { return min_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
};

} // namespace arcc

#endif // ARCC_COMMON_STATS_HH
