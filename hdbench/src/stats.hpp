#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdbench {

/// A tail percentile is reported only where at least this many samples lie
/// beyond it; with fewer samples the number says nothing about the tail.
inline constexpr std::size_t kMinBeyond = 10;

/// Median plus the highest percentile (at most the target) that has at
/// least kMinBeyond samples beyond it, with the sample count stated.
struct TailSummary {
    std::size_t samples = 0;
    double p50 = 0.0;
    double tail = 0.0;
    /// The percentile `tail` was read at. Equals the target when the sample
    /// supports it, less when it does not, and 100 (the maximum) when there
    /// are fewer than 2·kMinBeyond samples, so that no percentile at or
    /// above the median qualifies.
    double tail_pct = 0.0;
    /// False when tail_pct fell back to the maximum.
    bool tail_supported = false;
};

/// Summarize @p values (any order; +inf marks an operation that failed or
/// was never answered and sorts last). Percentiles use the nearest-rank
/// rule: the p-th percentile of n sorted samples is sample ceil(p·n/100).
/// An empty input gives a summary of zeros.
[[nodiscard]] TailSummary summarize_tail(std::vector<double> values,
                                         double target_pct = 99.0);

/// Plain median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The floor of fail_fraction: a run without failures reads this, not 0,
/// so that the metric can carry a relative regression bound.
inline constexpr double kFailFloor = 1e-9;

/// failed / attempted, at least kFailFloor; 1 when nothing was attempted.
[[nodiscard]] double fail_fraction(std::uint64_t failed, std::uint64_t attempted) noexcept;

} // namespace hdbench
