#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace hdbench {

/// What one invocation of the benchmark runs.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Load threads the run may use in total, server workers included:
    /// the host's hardware threads, capped at 4.
    unsigned threads = 1;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything a workload reports: metrics, operation counts and the
/// outcome of its correctness gates.
class Outcome {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// Record a correctness gate; a failed gate makes the run incorrect.
    void check(bool ok, const std::string& what);
    /// A line of human-readable context printed before the result.
    void note(const std::string& line) { notes_.push_back(line); }
    /// Count operations attempted and failed.
    void count(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    [[nodiscard]] bool correct() const noexcept { return problems_.empty(); }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
    [[nodiscard]] const std::vector<std::string>& problems() const noexcept
    {
        return problems_;
    }
    [[nodiscard]] const std::vector<std::string>& notes() const noexcept { return notes_; }

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Whole file contents (empty when unreadable).
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Every regular file directly under @p dir, sorted by name, with contents.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> dir_files(
    const std::filesystem::path& dir);

/// Seconds elapsed since @p start.
[[nodiscard]] inline double seconds_since(Clock::time_point start) noexcept
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed of the accuracy evaluation set: held-out data-type I–V streams,
/// the same for every workload seed, so that model_err_pct moves only with
/// the characterized models and not with the streams a seed happens to draw
/// (a counter stream's start value alone moves its error far more than the
/// characterization does).
inline constexpr std::uint64_t kEvaluationSeed = 0x5eed'e7a1;
/// Evaluation streams per data type, and their length.
inline constexpr std::size_t kEvaluationStreams = 3;
inline constexpr std::size_t kEvaluationLength = 1000;

/// A seed for one purpose, derived from the workload seed so that distinct
/// purposes (stimulus plans, held-out streams, request mixes) never share
/// a stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) noexcept;

// Workloads. Each fills @p out with every end-to-end metric (untraced) or
// its per-layer metrics (traced); layers a workload does not exercise are
// reported as 0 by the caller.
void run_char_event_journal(const RunConfig& config, Tracer& tracer, Outcome& out);
void run_char_emul_corners(const RunConfig& config, Tracer& tracer, Outcome& out);
void run_serve_churn(const RunConfig& config, Tracer& tracer, Outcome& out);

} // namespace hdbench
