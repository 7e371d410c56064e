#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace hdbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since a fixed process-wide origin.
[[nodiscard]] double now_us() noexcept;

/// One recorded span. `op` groups every span of one workload operation (a
/// characterization pass, a churn round, a request); `parent` is the id of
/// the span that caused it, 0 for a root.
struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t op = 0;
    std::string name; ///< "<layer>.<what>", e.g. "journal.publish"
    double start_us = 0.0;
    double end_us = 0.0;
};

/// In-memory span recorder, written out when the run ends. A disabled
/// tracer records nothing and hands out id 0, so untraced runs pay one
/// branch per call site. Thread-safe.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Open a span; returns its id (0 when disabled).
    std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t op);
    void end(std::uint32_t id);
    /// Record a span whose interval was measured by the caller.
    std::uint32_t record(const char* name, std::uint32_t parent, std::uint64_t op,
                         double start_us, double end_us);

    [[nodiscard]] std::vector<Span> spans() const;
    /// Spans as a JSON array, one object per line.
    void write_json(std::ostream& os) const;

private:
    bool enabled_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;  ///< index = id - 1
};

/// RAII span.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0,
               std::uint64_t op = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, op))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

private:
    Tracer& tracer_;
    std::uint32_t id_;
};

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Children may overlap each other (parallel shards); the
/// covered part is the union of their intervals clipped to the parent.
[[nodiscard]] double self_time_us(const Span& span, std::span<const Span> children);

/// Self and total time summed per layer (the span name up to the first '.').
struct LayerTime {
    double total_us = 0.0;
    double self_us = 0.0;
    std::size_t spans = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layer_self_times(std::span<const Span> spans);

/// Sum of the durations of spans named @p name, in milliseconds.
[[nodiscard]] double total_ms(std::span<const Span> spans, const std::string& name);
/// Durations of spans named @p name, in the order recorded, in microseconds.
[[nodiscard]] std::vector<double> durations_us(std::span<const Span> spans,
                                               const std::string& name);

} // namespace hdbench
