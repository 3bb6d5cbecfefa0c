#pragma once
// Order statistics for benchmark results. A tail percentile is only as
// good as the samples beyond it, so percentile() refuses to answer when
// fewer than kMinTail samples lie past the requested rank.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

// Number of the n samples that lie strictly beyond the q-quantile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

// q-quantile (q in [0, 1]) with linear interpolation between closest
// ranks; nullopt when samples_beyond(n, q) < kMinTail.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double q);

// Median of a non-empty vector (the middle pair's mean for even sizes).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
