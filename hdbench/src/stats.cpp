#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace hdbench {

TailSummary summarize_tail(std::vector<double> values, double target_pct)
{
    TailSummary out;
    out.samples = values.size();
    if (values.empty()) {
        return out;
    }
    std::sort(values.begin(), values.end());
    out.p50 = median(values);
    const std::size_t n = values.size();
    // Below 2·kMinBeyond samples the supported percentile would fall under
    // the median; the maximum is the only tail figure left.
    if (n < 2 * kMinBeyond) {
        out.tail = values.back();
        out.tail_pct = 100.0;
        return out;
    }
    // Nearest rank of the target, capped so kMinBeyond samples lie beyond.
    const auto target_rank = static_cast<std::size_t>(
        std::ceil(target_pct / 100.0 * static_cast<double>(n) - 1e-9));
    const std::size_t rank = std::clamp<std::size_t>(target_rank, 1, n - kMinBeyond);
    out.tail = values[rank - 1];
    out.tail_pct = rank == target_rank
                       ? target_pct
                       : 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    out.tail_supported = true;
    return out;
}

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) {
        return upper;
    }
    const double lower = *std::max_element(
        values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return lower == upper ? upper : lower + (upper - lower) / 2.0; // inf stays inf
}

double fail_fraction(std::uint64_t failed, std::uint64_t attempted) noexcept
{
    if (attempted == 0) {
        return 1.0;
    }
    return std::max(kFailFloor,
                    static_cast<double>(failed) / static_cast<double>(attempted));
}

} // namespace hdbench
