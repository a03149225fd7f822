// Mergeable log-linear quantile sketch (HDR-histogram-style): fixed
// geometric buckets with kSubBits sub-buckets per octave, so the relative
// error of any quantile is bounded by 2^-kSubBits (~3.1%) while merges are
// exact — bucket counts add, which makes merge() associative and
// commutative bit-for-bit (merge-of-merges equals any other grouping).
//
// Values below 2^kSubBits land in width-1 buckets, so small-sample
// quantiles over small values are exact order statistics: with all samples
// in width-1 buckets, quantile(q) returns the ceil(q*n)-th order statistic
// (q=0 returns min, q=1 returns max). Within wider buckets the rank is
// linearly interpolated and the result clamped to [min, max], so p999 on a
// handful of samples degrades to max() instead of a bucket bound.
//
// Used by the QoS subsystem for per-tenant submit-to-settle latency
// (p50/p99/p999) and by bench/fault_storm for per-op latency.
#pragma once

#include <cstdint>
#include <vector>

namespace agile {

class QuantileSketch {
 public:
  // Sub-bucket resolution: 2^kSubBits linear sub-buckets per power of two.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  // Bucket groups: g = 0 holds exact values < kSubBuckets; octave e (from
  // kSubBits to 63) maps to group e - kSubBits + 1, so 64 - kSubBits
  // octave groups plus the exact group.
  static constexpr std::uint32_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

  QuantileSketch() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v);

  // Exact merge: bucket counts add; associative and commutative.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Interpolated quantile, q in [0, 1]. q<=0 -> min, q>=1 -> max; otherwise
  // the ceil(q*count)-th sample's bucket, linearly interpolated within the
  // bucket and clamped to [min, max]. Exact when every sample landed in a
  // width-1 bucket (values < 2^kSubBits).
  std::uint64_t quantile(double q) const;

  void reset();

  // Bucket index of value v: exact for v < kSubBuckets, log-linear above.
  static std::uint32_t bucketOf(std::uint64_t v);
  // Inclusive lower / exclusive upper value bound of bucket idx.
  static std::uint64_t bucketLo(std::uint32_t idx);
  static std::uint64_t bucketHi(std::uint32_t idx);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace agile
