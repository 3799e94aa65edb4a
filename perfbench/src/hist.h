// Fixed-memory latency histogram for the serving benchmark.
//
// Log-bucketed in the HDR style: values are recorded in 1/128 ns units,
// and every power-of-two range above 128 units is split into 128 equal
// buckets, so a bucket is at most 1/128 (0.78%) of its value wide. The
// bucket array is allocated once (about 58 KiB) and never grows,
// however many samples arrive — unlike util/stats.h's Samples, which
// keeps and sorts every value.
#ifndef DYNCQ_PERFBENCH_HIST_H_
#define DYNCQ_PERFBENCH_HIST_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dyncq::perfbench {

class LogHistogram {
 public:
  LogHistogram() : buckets_(kBuckets, 0) {}

  /// Records one sample in nanoseconds (negative values clamp to 0).
  void Add(double ns) {
    const double scaled = ns > 0 ? ns * kSub : 0.0;
    const std::uint64_t x =
        scaled >= 0x1p62 ? (std::uint64_t{1} << 62)
                         : static_cast<std::uint64_t>(scaled);
    ++buckets_[Index(x)];
    ++count_;
  }

  void Merge(const LogHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Value (ns) at quantile q in (0, 1]: the sample of rank
  /// ceil(q * count), placed by linear interpolation inside its bucket
  /// (samples spread evenly over the bucket's width). 0 when empty.
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = Rank(q);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
        return (Lower(i) + frac * Width(i)) / kSub;
      }
      seen += buckets_[i];
    }
    return Lower(kBuckets - 1) / kSub;
  }

  /// Samples ranked above quantile q's rank. A tail percentile is only
  /// reported when at least ten samples lie beyond it.
  std::uint64_t Beyond(double q) const {
    return count_ == 0 ? 0 : count_ - Rank(q);
  }

 private:
  static constexpr std::uint64_t kSub = 128;  // buckets per octave
  static constexpr std::size_t kBuckets = kSub + 56 * kSub + kSub;

  std::uint64_t Rank(double q) const {
    auto r = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (r < 1) r = 1;
    return r > count_ ? count_ : r;
  }

  static std::size_t Index(std::uint64_t x) {
    if (x < kSub) return static_cast<std::size_t>(x);
    const int octave = std::bit_width(x) - 8;  // x >> octave in [128, 256)
    return static_cast<std::size_t>(kSub * (octave + 1) +
                                    ((x >> octave) - kSub));
  }

  static double Lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t octave = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << octave);
  }
  static double Width(std::size_t i) {
    return i < kSub ? 1.0
                    : static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace dyncq::perfbench

#endif  // DYNCQ_PERFBENCH_HIST_H_
