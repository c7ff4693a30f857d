// Lightweight sample statistics for benchmark reporting (mean / min / max /
// percentiles over repetition timings).

#ifndef VMSV_UTIL_HISTOGRAM_H_
#define VMSV_UTIL_HISTOGRAM_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace vmsv {

/// Accumulates double samples; keeps them all so percentiles are exact.
class SampleStats {
 public:
  void Add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  size_t Count() const { return samples_.size(); }

  double Sum() const {
    double total = 0;
    for (const double s : samples_) total += s;
    return total;
  }

  double Mean() const {
    return samples_.empty() ? 0.0 : Sum() / static_cast<double>(samples_.size());
  }

  double Min() const {
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
  }

  double Max() const {
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  double Stddev() const {
    if (samples_.size() < 2) return 0.0;
    const double mean = Mean();
    double accum = 0;
    for (const double s : samples_) accum += (s - mean) * (s - mean);
    return std::sqrt(accum / static_cast<double>(samples_.size() - 1));
  }

  /// Exact percentile by nearest-rank; p in [0, 100].
  double Percentile(double p) {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double Median() { return Percentile(50.0); }

 private:
  void EnsureSorted() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace vmsv

#endif  // VMSV_UTIL_HISTOGRAM_H_
