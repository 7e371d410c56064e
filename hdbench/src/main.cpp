/// hdbench — the end-to-end benchmark of the characterization and serving
/// pipelines. One invocation runs one workload for a fixed measuring time,
/// checks the outputs, and prints one JSON result as its last stdout line:
///
///   hdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--workdir DIR] [--spans FILE]
///
/// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
/// again with spans around every call into the pipelines and reports the
/// per-layer metrics instead. See README.md beside this file.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/cpu.hpp"

#ifndef HDBENCH_BUILD_TYPE
#define HDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hdbench;

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json lists
/// the same names; run.py checks that they agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},           {"qps_at_slo", "req/s"},
    {"lat_p50_us", "us"},      {"lat_p99_us", "us"},      {"mcycles_per_s", "Mcycles/s"},
    {"model_err_pct", "%"},    {"peak_rss_mb", "MiB"},    {"fail_frac", "ratio"},
};

/// The per-layer metrics every traced run reports; a layer the workload
/// does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"journal.publish_ms", "ms"},
    {"journal.publish_p50_ms", "ms"},
    {"journal.publishes", "count"},
    {"journal.bytes_written", "bytes"},
    {"sim.compile_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.transitions", "count"},
    {"sim.warmup_batches", "count"},
    {"sim.emulation_passes", "count"},
    {"char.shard_run_ms", "ms"},
    {"char.shard_run_p50_ms", "ms"},
    {"char.shard_run_tail_ms", "ms"},
    {"char.pool_wait_ms", "ms"},
    {"char.merge_ms", "ms"},
    {"char.shards_run", "count"},
    {"char.shards_merged", "count"},
    {"char.useful_shard_ratio", "ratio"},
    {"char.records", "count"},
    {"char.calibrate_ms", "ms"},
    {"char.calibration_pairs", "count"},
    {"char.corner_calibration_pairs", "count"},
    {"char.sweep_ms", "ms"},
    {"fit.ms", "ms"},
    {"fit.corner_surface_ms", "ms"},
    {"library.store_ms", "ms"},
    {"dpgen.make_module_ms", "ms"},
    {"serve.rtt_p50_us", "us"},
    {"serve.rtt_p99_us", "us"},
    {"serve.client_encode_us", "us"},
    {"serve.server_eval_us", "us"},
    {"serve.decode_request_ns", "ns"},
    {"serve.encode_reply_ns", "ns"},
    {"engine.estimate_us", "us"},
    {"streams.pack_ms", "ms"},
    {"streams.hd_hist_ms", "ms"},
    {"streams.class_hist_ms", "ms"},
    {"serve.register_p50_ms", "ms"},
    {"serve.upload_mb_per_s", "MB/s"},
    {"serve.histograms_built", "count"},
    {"serve.histogram_hits", "count"},
    {"serve.coalesced", "count"},
    {"serve.histogram_hit_ratio", "ratio"},
    {"serve.model_hits", "count"},
    {"serve.model_misses", "count"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"loadgen.sent", "count"},
    {"loadgen.completed", "count"},
    {"trace.overhead_pct", "%"},
};

using WorkloadFn = void (*)(const RunConfig&, Tracer&, Outcome&);

const std::map<std::string, WorkloadFn>& workloads()
{
    static const std::map<std::string, WorkloadFn> table{
        {"char_event_journal", &run_char_event_journal},
        {"char_emul_corners", &run_char_emul_corners},
        {"serve_churn", &run_serve_churn},
    };
    return table;
}

[[noreturn]] void usage(const char* why)
{
    std::cerr << "hdbench: " << why
              << "\nusage: hdbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir DIR] [--spans FILE]\nworkloads:";
    for (const auto& [name, fn] : workloads()) {
        std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    std::exit(2);
}

/// JSON number with every digit the double carries.
std::string json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

} // namespace

int main(int argc, char** argv)
{
#if defined(HDPM_FAULT_INJECTION) && HDPM_FAULT_INJECTION
    std::cerr << "hdbench: this build compiles the fault-injection hooks "
                 "(HDPM_FAULT_INJECTION); it reports no numbers. Rebuild "
                 "without that definition, as run.py does.\n";
    return 3;
#endif
    RunConfig config;
    std::string workdir;
    std::string spans_path;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                config.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value);
            } else if (flag == "--trace") {
                config.trace = value != "0";
            } else if (flag == "--workdir") {
                workdir = value;
            } else if (flag == "--spans") {
                spans_path = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    const auto fn = workloads().find(config.workload);
    if (!have_workload || !have_seed || fn == workloads().end() || config.seconds <= 0.0) {
        usage("need a known --workload, a --seed and positive --seconds");
    }
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    config.threads = std::min(hw, 4u);

    if (!workdir.empty()) {
        std::filesystem::create_directories(workdir);
        std::filesystem::current_path(workdir);
    }

    std::cout << "host: nproc=" << hw << " simd="
              << hdpm::util::cpu::level_name(hdpm::util::cpu::active())
              << " build=" << HDBENCH_BUILD_TYPE << " fault_injection=off"
              << " load_threads=" << config.threads << '\n'
              << "run: workload=" << config.workload << " seed=" << config.seed
              << " seconds=" << config.seconds << " trace=" << (config.trace ? 1 : 0)
              << '\n';

    Tracer tracer{config.trace};
    Outcome out;
    try {
        fn->second(config, tracer, out);
    } catch (const std::exception& error) {
        out.check(false, std::string("workload threw: ") + error.what());
    }

    // The reported set is exactly the declared set for the mode.
    std::vector<Metric> reported;
    if (config.trace) {
        for (const MetricSpec& spec : kPerLayer) {
            const auto it = std::find_if(out.metrics().begin(), out.metrics().end(),
                                         [&](const Metric& m) { return m.name == spec.name; });
            reported.push_back(Metric{spec.name, it == out.metrics().end() ? 0.0 : it->value,
                                      spec.unit});
        }
    } else {
        for (const MetricSpec& spec : kEndToEnd) {
            const auto it = std::find_if(out.metrics().begin(), out.metrics().end(),
                                         [&](const Metric& m) { return m.name == spec.name; });
            if (it == out.metrics().end()) {
                out.check(false, std::string("workload did not report ") + spec.name);
                continue;
            }
            reported.push_back(Metric{spec.name, it->value, spec.unit});
        }
    }
    for (const Metric& m : out.metrics()) {
        const auto& specs = config.trace ? std::span<const MetricSpec>{kPerLayer}
                                         : std::span<const MetricSpec>{kEndToEnd};
        const bool declared = std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
            return m.name == s.name;
        });
        out.check(declared, "workload reported undeclared metric " + m.name);
    }
    for (const Metric& m : reported) {
        out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }

    if (config.trace) {
        const std::vector<Span> spans = tracer.spans();
        std::cout << "self time per layer (" << spans.size() << " spans):\n";
        std::cout << "  " << std::left << std::setw(10) << "layer" << std::right
                  << std::setw(14) << "total_ms" << std::setw(14) << "self_ms"
                  << std::setw(10) << "spans" << '\n';
        for (const auto& [layer, t] : layer_self_times(spans)) {
            std::cout << "  " << std::left << std::setw(10) << layer << std::right
                      << std::fixed << std::setprecision(3) << std::setw(14)
                      << t.total_us / 1000.0 << std::setw(14) << t.self_us / 1000.0
                      << std::setw(10) << t.spans << '\n';
        }
        std::cout.unsetf(std::ios::floatfield);
        if (!spans_path.empty()) {
            std::ofstream file{spans_path};
            tracer.write_json(file);
            out.check(static_cast<bool>(file), "could not write spans to " + spans_path);
        }
    }
    for (const std::string& line : out.notes()) {
        std::cout << line << '\n';
    }
    for (const std::string& problem : out.problems()) {
        std::cout << "CHECK FAILED: " << problem << '\n';
    }

    std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(out.attempted(), 1)
              << ", \"failed\": " << out.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << '"' << reported[i].name
                  << "\": {\"value\": " << json_number(reported[i].value)
                  << ", \"unit\": \"" << reported[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return out.correct() ? 0 : 1;
}
