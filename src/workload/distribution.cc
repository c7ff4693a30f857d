#include "workload/distribution.h"

#include <cmath>

#include "util/random.h"

namespace vmsv {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Clamped double→Value conversion; doubles at/above 2^64 saturate.
Value ClampToDomain(double d, Value max_value) {
  if (d <= 0.0) return 0;
  if (d >= 1.8446744073709552e19) return max_value;
  const Value v = static_cast<Value>(d);
  return v > max_value ? max_value : v;
}

/// Uniform in [0, max_value] from a hash, handling max_value == 2^64-1.
Value BoundedHash(uint64_t hash, Value max_value) {
  if (max_value == ~Value{0}) return hash;
  return hash % (max_value + 1);
}

}  // namespace

const char* DistributionName(DataDistribution kind) {
  switch (kind) {
    case DataDistribution::kUniform: return "uniform";
    case DataDistribution::kLinear: return "linear";
    case DataDistribution::kSine: return "sine";
    case DataDistribution::kSparse: return "sparse";
  }
  return "unknown";
}

ValueGenerator::ValueGenerator(const DistributionSpec& spec, uint64_t num_rows)
    : spec_(spec), num_rows_(num_rows == 0 ? 1 : num_rows),
      value_scale_(static_cast<double>(spec.max_value)) {}

Value ValueGenerator::operator()(uint64_t row) const {
  switch (spec_.kind) {
    case DataDistribution::kUniform:
      return BoundedHash(MixHash(spec_.seed, row), spec_.max_value);

    case DataDistribution::kLinear: {
      const double pos =
          static_cast<double>(row) / static_cast<double>(num_rows_);
      const double jitter =
          (ToUnitDouble(MixHash(spec_.seed ^ 0x9e3779b97f4a7c15ull, row)) - 0.5) *
          spec_.noise * value_scale_;
      return ClampToDomain(pos * value_scale_ + jitter, spec_.max_value);
    }

    case DataDistribution::kSine: {
      const double pos_pages =
          static_cast<double>(row) / static_cast<double>(kValuesPerPage);
      const double wave =
          (std::sin(kTwoPi * pos_pages / spec_.period_pages) + 1.0) * 0.5;
      const double jitter =
          (ToUnitDouble(MixHash(spec_.seed ^ 0xc2b2ae3d27d4eb4full, row)) - 0.5) *
          spec_.noise * value_scale_;
      return ClampToDomain(wave * value_scale_ + jitter, spec_.max_value);
    }

    case DataDistribution::kSparse: {
      // Per-page decision: a `noise` fraction of pages spike to a random
      // spot in the domain; the rest sit in a narrow band at the bottom.
      // This concentrates most of the value domain on few physical pages.
      const uint64_t page = row / kValuesPerPage;
      const bool spike =
          ToUnitDouble(MixHash(spec_.seed ^ 0xa0761d6478bd642full, page)) <
          spec_.noise;
      if (!spike) {
        const Value band = spec_.max_value / 100;
        return BoundedHash(MixHash(spec_.seed ^ 0xe7037ed1a0b428dbull, row), band);
      }
      const Value center =
          BoundedHash(MixHash(spec_.seed ^ 0x8ebc6af09c88c6e3ull, page),
                      spec_.max_value);
      const double jitter =
          (ToUnitDouble(MixHash(spec_.seed ^ 0x589965cc75374cc3ull, row)) - 0.5) *
          0.005 * value_scale_;
      return ClampToDomain(static_cast<double>(center) + jitter,
                           spec_.max_value);
    }
  }
  return 0;
}

void FillColumn(const DistributionSpec& spec, PhysicalColumn* column) {
  column->Load(ValueGenerator(spec, column->num_rows()));
}

StatusOr<std::unique_ptr<PhysicalColumn>> MakeColumn(
    const DistributionSpec& spec, uint64_t num_rows) {
  auto column_r = PhysicalColumn::Create(num_rows);
  if (!column_r.ok()) return column_r.status();
  auto column = std::move(column_r).ValueOrDie();
  FillColumn(spec, column.get());
  return column;
}

}  // namespace vmsv
