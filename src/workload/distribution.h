// Synthetic data distributions (paper Figure 2): uniform for the index
// comparison, plus the three clustered layouts — linear, sine, sparse —
// whose page-level value locality is what makes partial views small.
//
// All generators are pure functions of (spec, row): filling a column twice
// or regenerating a single row yields identical values, which the golden
// distribution tests pin at seed 42.

#ifndef VMSV_WORKLOAD_DISTRIBUTION_H_
#define VMSV_WORKLOAD_DISTRIBUTION_H_

#include <cstdint>
#include <memory>

#include "storage/column.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

enum class DataDistribution {
  kUniform,  // iid uniform over [0, max_value]
  kLinear,   // value grows linearly with the row position, plus jitter
  kSine,     // value follows a sine wave over the row position, plus jitter
  kSparse,   // most pages sit in a narrow low band; few pages spike
};

const char* DistributionName(DataDistribution kind);

struct DistributionSpec {
  DataDistribution kind = DataDistribution::kUniform;
  /// Inclusive upper bound of the value domain.
  Value max_value = 100'000'000;
  uint64_t seed = 42;
  /// Sine wavelength measured in storage pages. Page-count-relative (not
  /// column-relative) so the page-level clustering that makes views small is
  /// preserved at every scale, from 256-page smoke runs to 1M-page paper
  /// runs. Figure 2 plots 300 pages = three full periods at the default.
  double period_pages = 100.0;
  /// Linear/sine: jitter amplitude as a fraction of max_value (centered).
  /// Sparse: fraction of pages that are spikes.
  double noise = 0.10;
};

/// Stateless row→value function for one spec.
class ValueGenerator {
 public:
  ValueGenerator(const DistributionSpec& spec, uint64_t num_rows);

  Value operator()(uint64_t row) const;

 private:
  DistributionSpec spec_;
  uint64_t num_rows_;
  double value_scale_;  // max_value as double (for the trig paths)
};

/// Fills an EXISTING column with the spec's values through the bulk loader
/// (exact page zones) — the load phase for columns whose backing the caller
/// created (e.g. the durable file-backed path, where
/// AdaptiveColumn::CreateDurable owns file creation).
void FillColumn(const DistributionSpec& spec, PhysicalColumn* column);

/// Creates a PhysicalColumn of `num_rows` values drawn from `spec`.
StatusOr<std::unique_ptr<PhysicalColumn>> MakeColumn(
    const DistributionSpec& spec, uint64_t num_rows);

}  // namespace vmsv

#endif  // VMSV_WORKLOAD_DISTRIBUTION_H_
