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
        max_ = std::max(max_, x);
    }

    /** @return number of samples accumulated. */
    std::uint64_t count() const { return n_; }

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

    /** @return largest sample seen (-inf when empty). */
    double max() const { return max_; }

    /** @return sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(n_); }

    /** Merge another accumulator into this one. */
    void
    merge(const RunningStat &other)
    {
        if (other.n_ == 0)
            return;
        if (n_ == 0) {
            *this = other;
            return;
        }
        double total = static_cast<double>(n_ + other.n_);
        double delta = other.mean_ - mean_;
        double new_mean = mean_ + delta * other.n_ / total;
        m2_ += other.m2_ +
               delta * delta * n_ * other.n_ / total;
        mean_ = new_mean;
        n_ += other.n_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace arcc

#endif // ARCC_COMMON_STATS_HH
