#include "trace.hpp"

#include <algorithm>
#include <iomanip>

namespace hdbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

} // namespace

double now_us() noexcept
{
    return std::chrono::duration<double, std::micro>(Clock::now() - kOrigin).count();
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::uint64_t op)
{
    if (!enabled_) {
        return 0;
    }
    const double start = now_us();
    const std::lock_guard lock{mutex_};
    spans_.push_back(Span{static_cast<std::uint32_t>(spans_.size() + 1), parent, op,
                          name, start, start});
    return spans_.back().id;
}

void Tracer::end(std::uint32_t id)
{
    if (id == 0) {
        return;
    }
    const double end = now_us();
    const std::lock_guard lock{mutex_};
    spans_[id - 1].end_us = end;
}

std::uint32_t Tracer::record(const char* name, std::uint32_t parent, std::uint64_t op,
                             double start_us, double end_us)
{
    if (!enabled_) {
        return 0;
    }
    const std::lock_guard lock{mutex_};
    spans_.push_back(Span{static_cast<std::uint32_t>(spans_.size() + 1), parent, op,
                          name, start_us, end_us});
    return spans_.back().id;
}

std::vector<Span> Tracer::spans() const
{
    const std::lock_guard lock{mutex_};
    return spans_;
}

void Tracer::write_json(std::ostream& os) const
{
    const std::vector<Span> all = spans();
    os << "[\n" << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
           << ",\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
           << ",\"end_us\":" << s.end_us << '}' << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

double self_time_us(const Span& span, std::span<const Span> children)
{
    std::vector<std::pair<double, double>> covered;
    covered.reserve(children.size());
    for (const Span& child : children) {
        const double lo = std::max(child.start_us, span.start_us);
        const double hi = std::min(child.end_us, span.end_us);
        if (hi > lo) {
            covered.emplace_back(lo, hi);
        }
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
        if (lo > run_hi) {
            union_us += std::max(0.0, run_hi - run_lo);
            run_lo = lo;
            run_hi = hi;
        } else {
            run_hi = std::max(run_hi, hi);
        }
    }
    union_us += std::max(0.0, run_hi - run_lo);
    return (span.end_us - span.start_us) - union_us;
}

std::map<std::string, LayerTime> layer_self_times(std::span<const Span> spans)
{
    std::map<std::uint32_t, std::vector<Span>> children;
    for (const Span& s : spans) {
        if (s.parent != 0) {
            children[s.parent].push_back(s);
        }
    }
    std::map<std::string, LayerTime> layers;
    for (const Span& s : spans) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        LayerTime& t = layers[layer];
        const auto it = children.find(s.id);
        t.total_us += s.end_us - s.start_us;
        t.self_us += it == children.end() ? s.end_us - s.start_us
                                          : self_time_us(s, it->second);
        ++t.spans;
    }
    return layers;
}

double total_ms(std::span<const Span> spans, const std::string& name)
{
    double sum = 0.0;
    for (const Span& s : spans) {
        if (s.name == name) {
            sum += s.end_us - s.start_us;
        }
    }
    return sum / 1000.0;
}

std::vector<double> durations_us(std::span<const Span> spans, const std::string& name)
{
    std::vector<double> out;
    for (const Span& s : spans) {
        if (s.name == name) {
            out.push_back(s.end_us - s.start_us);
        }
    }
    return out;
}

} // namespace hdbench
