// The serving workload, against an in-process hdpowerd server on a Unix
// socket. The server's workers plus the client connections never exceed
// the run's thread budget.
//
// serve_churn: closed loop. Each connection registers a fresh trace, both
// connections ask for basic and enhanced estimates of both fresh traces at
// once (so concurrent builds of one histogram coalesce), and the traces are
// closed. Upload, the trace store, the classification kernels and the
// single-flight broker do the work.

#include <algorithm>
#include <array>
#include <barrier>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/estimation_engine.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/power.hpp"
#include "stats.hpp"
#include "streams/kernels.hpp"
#include "util/rng.hpp"

namespace hdbench {
namespace {

namespace fs = std::filesystem;
using namespace hdpm;

struct ServedModule {
    dp::ModuleType type;
    std::vector<int> widths; ///< as sent on the wire
};

/// Set-up characterizes every served model on miss, which moves with the
/// host more than the timed work does; its median over five is steadier.
constexpr int kSetupRepeats = 5;
constexpr int kZeroClusters = 0;

/// Seed purposes (see derive_seed).
constexpr std::uint64_t kModelSeed = 11;
constexpr std::uint64_t kTraceSeed = 12;

/// Server workers and client connections: half the thread budget each.
unsigned half_budget(const RunConfig& config)
{
    return std::max(1u, config.threads / 2);
}

/// Characterize-on-miss settings of the served models: a reduced budget,
/// because set-up characterizes every served model from an empty directory.
core::CharacterizationOptions served_char_options(const RunConfig& config)
{
    core::CharacterizationOptions options;
    options.max_transitions = 4000;
    options.min_transitions = 2000;
    options.seed = derive_seed(config.seed, kModelSeed);
    options.threads = config.threads;
    return options;
}

serve::ServerOptions server_options(const RunConfig& config, const fs::path& dir)
{
    serve::ServerOptions options;
    options.unix_path = (dir / "s.sock").string();
    options.models_dir = (dir / "models").string();
    options.workers = half_budget(config);
    options.char_options = served_char_options(config);
    return options;
}

/// A data-type I–V trace of a module, with the patterns it was packed from
/// kept for the reference simulation.
struct TraceInput {
    std::size_t module = 0;
    streams::DataType type = streams::DataType::Random;
    std::vector<std::vector<std::int64_t>> operands;
    streams::PackedTrace trace;
};

TraceInput make_trace(const std::vector<ServedModule>& modules, std::size_t module,
                      streams::DataType type, std::size_t samples, std::uint64_t seed)
{
    TraceInput input;
    input.module = module;
    input.type = type;
    const dp::DatapathModule dpm =
        dp::make_module(modules[module].type, modules[module].widths);
    input.operands = core::make_operand_streams(dpm, type, samples, seed);
    input.trace = streams::PackedTrace::from_operands(input.operands, dpm.operand_widths());
    return input;
}

serve::EstimateRequest make_request(const ServedModule& module, std::uint64_t trace_id,
                                    serve::ModelKind kind)
{
    serve::EstimateRequest request;
    request.trace_id = trace_id;
    request.module_type = static_cast<std::uint8_t>(module.type);
    request.widths = module.widths;
    request.kind = kind;
    request.zero_clusters = kZeroClusters;
    return request;
}

/// The served models, loaded through the same library and options the
/// server's model cache used, for the direct-engine comparison.
struct DirectModels {
    std::vector<core::HdModel> basic;
    std::vector<core::EnhancedHdModel> enhanced;
};

DirectModels load_direct(const RunConfig& config, const std::vector<ServedModule>& modules,
                         const std::string& models_dir)
{
    DirectModels direct;
    const core::ModelLibrary library{models_dir};
    const core::CharacterizationOptions options = served_char_options(config);
    for (const ServedModule& m : modules) {
        const std::vector<int> widths = dp::expand_operand_widths(m.type, m.widths);
        direct.basic.push_back(library.get_or_characterize(m.type, widths, options));
        direct.enhanced.push_back(
            library.get_or_characterize_enhanced(m.type, widths, kZeroClusters, options));
    }
    return direct;
}

double direct_estimate(core::EstimationEngine& engine, const DirectModels& direct,
                       const TraceInput& input, serve::ModelKind kind)
{
    return kind == serve::ModelKind::Basic
               ? engine.estimate(direct.basic[input.module], input.trace)
               : engine.estimate(direct.enhanced[input.module], input.trace);
}

/// Mean |estimate − reference| / reference of the served models over the
/// evaluation set (kEvaluationStreams streams per module and data type),
/// both kinds, the reference being the event kernel on each stream.
double served_model_error_pct(const std::vector<ServedModule>& modules,
                              const DirectModels& direct)
{
    core::EstimationEngine engine;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t m = 0; m < modules.size(); ++m) {
        const dp::DatapathModule dpm = dp::make_module(modules[m].type, modules[m].widths);
        for (const streams::DataType type : streams::all_data_types()) {
            for (std::size_t k = 0; k < kEvaluationStreams; ++k) {
                const TraceInput input = make_trace(
                    modules, m, type, kEvaluationLength,
                    derive_seed(kEvaluationSeed, static_cast<std::uint64_t>(type) * 16 + k));
                sim::PowerSimulator reference{dpm.netlist(), gate::TechLibrary::generic350()};
                const double ref =
                    reference.run(core::encode_module_stream(dpm, input.operands)).mean_charge_fc();
                if (ref <= 0.0) {
                    continue;
                }
                for (const serve::ModelKind kind :
                     {serve::ModelKind::Basic, serve::ModelKind::Enhanced}) {
                    sum += std::abs(direct_estimate(engine, direct, input, kind) - ref) / ref;
                    ++n;
                }
            }
        }
    }
    return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

bool same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A started server in its own directory.
struct Harness {
    serve::ServerOptions options;
    std::unique_ptr<serve::Server> server;
};

/// Start a server in a fresh directory.
std::unique_ptr<Harness> start_harness(const RunConfig& config, const fs::path& dir)
{
    auto h = std::make_unique<Harness>();
    fs::remove_all(dir);
    fs::create_directories(dir);
    h->options = server_options(config, dir);
    h->server = std::make_unique<serve::Server>(h->options);
    h->server->start();
    return h;
}

double codec_probe_ns(bool decode, const serve::EstimateRequest& request)
{
    constexpr int kIterations = 200'000;
    serve::WireWriter writer;
    serve::encode_estimate_request(writer, request);
    const std::vector<std::uint8_t> payload = writer.bytes();
    serve::EstimateReply reply;
    reply.estimate_fc = 1.5;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kIterations; ++i) {
        if (decode) {
            serve::WireReader reader{payload};
            sink += serve::decode_estimate_request(reader).trace_id;
        } else {
            serve::WireWriter w;
            reply.cycles = static_cast<std::uint64_t>(i);
            serve::encode_estimate_reply(w, reply);
            sink += w.bytes().size();
        }
    }
    const double ns = seconds_since(start) * 1e9 / kIterations;
    [[maybe_unused]] volatile std::uint64_t keep = sink; // the loop's result is used
    return ns;
}

/// Mean time of a cached-histogram estimate on the direct engine.
double engine_probe_us(const DirectModels& direct, const TraceInput& input)
{
    constexpr int kProbe = 20'000;
    core::EstimationEngine engine;
    double sink = direct_estimate(engine, direct, input, serve::ModelKind::Enhanced);
    const auto start = Clock::now();
    for (int i = 0; i < kProbe; ++i) {
        sink += direct_estimate(engine, direct, input,
                                i % 2 == 0 ? serve::ModelKind::Basic : serve::ModelKind::Enhanced);
    }
    const double us = seconds_since(start) * 1e6 / kProbe;
    return std::isfinite(sink) ? us : 0.0;
}

/// Per-layer figures of one Estimate: client round trip and encode from the
/// traced "serve.rtt" / "serve.encode" spans, the server's evaluate time
/// from a Stats delta, and direct probes of the codecs and of a
/// cached-histogram engine estimate on the same inputs.
void report_request_layers(Outcome& out, const std::vector<Span>& spans,
                           const serve::ServerStatsReply& from,
                           const serve::ServerStatsReply& to,
                           const serve::EstimateRequest& request, const DirectModels& direct,
                           const TraceInput& input)
{
    const TailSummary rtt = summarize_tail(durations_us(spans, "serve.rtt"));
    out.metric("serve.rtt_p50_us", rtt.p50, "us");
    out.metric("serve.rtt_p99_us", rtt.tail, "us");
    out.metric("serve.client_encode_us", median(durations_us(spans, "serve.encode")), "us");
    out.metric("serve.server_eval_us",
               1e6 * (to.serve_seconds - from.serve_seconds) /
                   static_cast<double>(std::max<std::uint64_t>(to.estimates - from.estimates, 1)),
               "us");
    out.metric("serve.decode_request_ns", codec_probe_ns(true, request), "ns");
    out.metric("serve.encode_reply_ns", codec_probe_ns(false, request), "ns");
    out.metric("engine.estimate_us", engine_probe_us(direct, input), "us");
    std::ostringstream note;
    note << "serve.rtt tail at p" << rtt.tail_pct << " of " << rtt.samples << " requests";
    out.note(note.str());
}

/// Server counters over a phase, divided by @p per (passes, or 1).
void report_server_counters(Outcome& out, const serve::ServerStatsReply& before,
                            const serve::ServerStatsReply& after, double per)
{
    const auto delta = [&](std::uint64_t serve::ServerStatsReply::*field) {
        return static_cast<double>(after.*field - before.*field);
    };
    const double built = delta(&serve::ServerStatsReply::histograms_built);
    const double hits = delta(&serve::ServerStatsReply::histogram_cache_hits);
    const double coalesced = delta(&serve::ServerStatsReply::histogram_coalesced);
    out.metric("serve.histograms_built", built / per, "count");
    out.metric("serve.histogram_hits", hits / per, "count");
    out.metric("serve.coalesced", coalesced / per, "count");
    out.metric("serve.histogram_hit_ratio",
               built + hits + coalesced > 0 ? hits / (built + hits + coalesced) : 0.0, "ratio");
    out.metric("serve.model_hits", static_cast<double>(after.model_cache_hits), "count");
    out.metric("serve.model_misses", static_cast<double>(after.model_cache_misses), "count");
    out.metric("serve.shed", static_cast<double>(after.connections_shed), "count");
    out.metric("serve.errors", static_cast<double>(after.errors), "count");
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// Served modules of serve_churn: 16, 32, 48 and 64 input bits. (The only
/// family with 128 input bits, a 32×32 MAC, cannot be served: the server
/// expands its operand widths twice and rejects the 64-bit accumulator.)
const std::vector<ServedModule> kChurnModules{
    {dp::ModuleType::RippleAdder, {8}},
    {dp::ModuleType::CsaMultiplier, {16}},
    {dp::ModuleType::RippleAdder, {24}},
    {dp::ModuleType::RippleAdder, {32}},
};
constexpr std::size_t kChurnRounds = 4; ///< per pass; each round registers one trace per connection
constexpr std::size_t kMinSamples = 1 << 16;
constexpr std::size_t kMaxSamples = 1 << 20;
constexpr int kMinChurnPasses = 3;

/// Strictly sequential Estimate round trips on one connection, each with an
/// encode span and a round-trip span. Returns the replies that differ from
/// @p expected.
std::size_t sequential_round_trips(serve::ServeClient& client,
                                   const serve::EstimateRequest& request, double expected,
                                   Tracer& tracer)
{
    constexpr int kRoundTrips = 20'000;
    std::size_t mismatches = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
        const auto op = static_cast<std::uint64_t>(i);
        const double start = now_us();
        client.enqueue_estimate(request);
        const double encoded = now_us();
        client.flush();
        const serve::EstimateReply reply = client.read_estimate_reply();
        tracer.record("serve.encode", 0, op, start, encoded);
        tracer.record("serve.rtt", 0, op, encoded, now_us());
        mismatches += same_bits(reply.estimate_fc, expected) ? 0 : 1;
    }
    return mismatches;
}

struct ChurnSetup {
    std::unique_ptr<Harness> harness;
    std::vector<serve::ServeClient> clients;
};

/// Server start and model warm-up: one tiny trace per module, estimated
/// under both kinds, characterizes every served model on miss.
ChurnSetup churn_setup(const RunConfig& config, const fs::path& dir, std::uint64_t seed)
{
    ChurnSetup s;
    s.harness = start_harness(config, dir);
    for (unsigned c = 0; c < half_budget(config); ++c) {
        s.clients.push_back(serve::ServeClient::connect_unix(s.harness->options.unix_path));
    }
    for (std::size_t m = 0; m < kChurnModules.size(); ++m) {
        const TraceInput tiny = make_trace(kChurnModules, m, streams::DataType::Random, 64, seed);
        const std::uint64_t id = s.clients.front().register_trace(tiny.trace);
        for (const serve::ModelKind kind : {serve::ModelKind::Basic, serve::ModelKind::Enhanced}) {
            (void)s.clients.front().estimate(make_request(kChurnModules[m], id, kind));
        }
        s.clients.front().close_trace(id);
    }
    return s;
}

struct ChurnPass {
    double wall_s = 0.0;
    std::vector<double> first_estimate_us; ///< register start → first own estimate
    std::uint64_t cycles = 0;
    std::uint64_t bytes = 0;
    std::size_t requests = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
};

/// One pass over the round plan. @p expected[item][kind] is the direct
/// engine's answer.
ChurnPass churn_pass(std::vector<serve::ServeClient>& clients,
                     const std::vector<TraceInput>& items,
                     const std::vector<std::array<double, 2>>& expected, Tracer* tracer,
                     std::uint64_t op)
{
    const std::size_t conns = clients.size();
    ChurnPass pass;
    std::vector<ChurnPass> local(conns);
    std::vector<std::uint64_t> ids(conns, 0);
    std::barrier sync{static_cast<std::ptrdiff_t>(conns)};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            ChurnPass& mine = local[c];
            serve::ServeClient& client = clients[c];
            for (std::size_t round = 0; round < kChurnRounds; ++round) {
                const std::size_t item = round * conns + c;
                const TraceInput& input = items[item];
                const double reg_start = now_us();
                bool registered = true;
                try {
                    ids[c] = client.register_trace(input.trace);
                } catch (const std::exception&) {
                    registered = false;
                    ++mine.failed;
                }
                const double reg_end = now_us();
                ++mine.requests;
                if (registered) {
                    mine.cycles += input.trace.cycles();
                    mine.bytes += input.trace.words().size() * sizeof(std::uint64_t);
                }
                if (tracer != nullptr) {
                    tracer->record("serve.register", 0, op, reg_start, reg_end);
                }
                sync.arrive_and_wait();
                // Basic and enhanced estimates of the own trace, then of the
                // partner's: both connections ask for the same trace at once.
                std::vector<std::pair<std::size_t, serve::ModelKind>> asks;
                for (std::size_t k = 0; k < conns; ++k) {
                    const std::size_t other = (c + k) % conns;
                    for (const serve::ModelKind kind :
                         {serve::ModelKind::Basic, serve::ModelKind::Enhanced}) {
                        asks.emplace_back(other, kind);
                    }
                }
                for (const auto& [other, kind] : asks) {
                    client.enqueue_estimate(make_request(
                        kChurnModules[items[round * conns + other].module], ids[other], kind));
                }
                const double sent = now_us();
                try {
                    client.flush();
                } catch (const std::exception&) {
                    mine.failed += asks.size();
                    mine.requests += asks.size();
                    sync.arrive_and_wait();
                    continue;
                }
                for (std::size_t a = 0; a < asks.size(); ++a) {
                    const auto& [other, kind] = asks[a];
                    ++mine.requests;
                    try {
                        const serve::EstimateReply reply = client.read_estimate_reply();
                        const std::size_t it = round * conns + other;
                        if (!same_bits(reply.estimate_fc,
                                       expected[it][kind == serve::ModelKind::Basic ? 0 : 1])) {
                            ++mine.mismatches;
                        }
                        if (a == 0) {
                            mine.first_estimate_us.push_back(now_us() - reg_start);
                        }
                    } catch (const std::exception&) {
                        ++mine.failed;
                    }
                }
                if (tracer != nullptr) {
                    tracer->record("serve.estimates", 0, op, sent, now_us());
                }
                sync.arrive_and_wait();
                ++mine.requests;
                try {
                    if (!client.close_trace(ids[c])) {
                        ++mine.failed;
                    }
                } catch (const std::exception&) {
                    ++mine.failed;
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    pass.wall_s = seconds_since(start);
    for (const ChurnPass& l : local) {
        pass.first_estimate_us.insert(pass.first_estimate_us.end(), l.first_estimate_us.begin(),
                                      l.first_estimate_us.end());
        pass.cycles += l.cycles;
        pass.bytes += l.bytes;
        pass.requests += l.requests;
        pass.failed += l.failed;
        pass.mismatches += l.mismatches;
    }
    return pass;
}

void serve_churn(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    const unsigned conns = half_budget(config);
    // The round plan: one fresh trace per connection per round. Lengths
    // run geometrically from 64k to 1M samples and modules (16–64 input
    // bits) go round-robin, so every seed uploads and classifies the same
    // volume; the seed picks each trace's data type and values.
    util::Rng rng{derive_seed(config.seed, kTraceSeed)};
    const std::size_t count = kChurnRounds * conns;
    std::vector<TraceInput> items;
    for (std::size_t i = 0; i < count; ++i) {
        const double share = count > 1 ? static_cast<double>(i) / static_cast<double>(count - 1) : 0.0;
        const auto samples = static_cast<std::size_t>(
            static_cast<double>(kMinSamples) *
            std::pow(static_cast<double>(kMaxSamples) / kMinSamples, share));
        const auto type = streams::all_data_types()[static_cast<std::size_t>(rng.uniform_int(0, 4))];
        items.push_back(make_trace(kChurnModules, i % kChurnModules.size(), type, samples,
                                   rng.next_u64()));
    }

    std::vector<double> setup_times;
    ChurnSetup setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (setup.harness) {
            setup.clients.clear();
            setup.harness->server->stop();
        }
        const auto start = Clock::now();
        setup = churn_setup(config, "churn" + std::to_string(i), derive_seed(config.seed, 99));
        setup_times.push_back(seconds_since(start));
    }
    serve::Server& server = *setup.harness->server;

    const DirectModels direct =
        load_direct(config, kChurnModules, setup.harness->options.models_dir);
    std::vector<std::array<double, 2>> expected;
    {
        core::EstimationEngine engine;
        for (const TraceInput& input : items) {
            expected.push_back({direct_estimate(engine, direct, input, serve::ModelKind::Basic),
                                direct_estimate(engine, direct, input, serve::ModelKind::Enhanced)});
        }
    }

    const serve::ServerStatsReply before = server.stats_snapshot();
    std::vector<ChurnPass> passes;
    std::vector<double> traced_walls;
    std::vector<double> plain_walls;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (static_cast<int>(passes.size()) < kMinChurnPasses ||
           seconds_since(start) < config.seconds) {
        passes.push_back(churn_pass(setup.clients, items, expected, nullptr, 0));
        plain_walls.push_back(passes.back().wall_s);
        if (config.trace) {
            ChurnPass traced = churn_pass(setup.clients, items, expected, &tracer, ++op);
            traced_walls.push_back(traced.wall_s);
            passes.push_back(std::move(traced));
        }
    }
    const serve::ServerStatsReply after = server.stats_snapshot();

    std::vector<double> first;
    std::uint64_t cycles = 0;
    double wall_sum = 0.0;
    std::size_t mismatches = 0;
    for (const ChurnPass& p : passes) {
        first.insert(first.end(), p.first_estimate_us.begin(), p.first_estimate_us.end());
        cycles += p.cycles;
        wall_sum += p.wall_s;
        mismatches += p.mismatches;
        out.count(p.requests, p.failed);
    }
    out.check(mismatches == 0, "a daemon reply differs from the direct engine");
    out.check(after.errors == before.errors, "the server reported errors");
    out.check(after.connections_shed == 0, "the server shed a connection");
    out.check(server.traces().count() == 0, "a churn trace was left registered");

    if (!config.trace) {
        const TailSummary lat = summarize_tail(first);
        out.metric("setup_s", median(setup_times), "s");
        out.metric("wall_s", median(plain_walls), "s");
        out.metric("qps_at_slo", static_cast<double>(out.attempted()) / wall_sum, "req/s");
        out.metric("lat_p50_us", lat.p50, "us");
        out.metric("lat_p99_us", lat.tail, "us");
        out.metric("mcycles_per_s", static_cast<double>(cycles) / wall_sum / 1e6, "Mcycles/s");
        out.metric("model_err_pct", served_model_error_pct(kChurnModules, direct), "%");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.metric("fail_frac", fail_fraction(out.failed(), out.attempted()), "ratio");
        std::ostringstream note;
        note << "passes=" << passes.size() << " register-to-first-estimate: p50 " << lat.p50
             << " us, p" << lat.tail_pct << " " << lat.tail << " us over " << lat.samples
             << " traces";
        out.note(note.str());
    } else {
        // Direct probes of the streams kernels: one pass's traces, packed and
        // classified on one thread, as a server worker does.
        for (std::size_t i = 0; i < items.size(); ++i) {
            const TraceInput& input = items[i];
            const std::uint64_t probe_op = op + 1 + i;
            const dp::DatapathModule dpm = dp::make_module(kChurnModules[input.module].type,
                                                           kChurnModules[input.module].widths);
            std::optional<streams::PackedTrace> packed;
            {
                const ScopedSpan span{tracer, "streams.pack", 0, probe_op};
                packed.emplace(
                    streams::PackedTrace::from_operands(input.operands, dpm.operand_widths()));
            }
            const streams::KernelOptions kernel{.threads = 1};
            std::size_t pairs = 0;
            {
                const ScopedSpan span{tracer, "streams.hd_hist", 0, probe_op};
                pairs += streams::hd_histogram(*packed, kernel).pairs;
            }
            {
                const ScopedSpan span{tracer, "streams.class_hist", 0, probe_op};
                pairs += streams::hd_class_histogram(*packed, kernel).pairs;
            }
            out.check(pairs == 2 * packed->cycles(),
                      "kernel probe histogram has the wrong pair count");
        }
        const double traced_passes = static_cast<double>(traced_walls.size());
        const std::vector<Span> spans = tracer.spans();
        const std::vector<double> reg = durations_us(spans, "serve.register");
        double reg_total_s = 0.0;
        for (const double r : reg) {
            reg_total_s += r / 1e6;
        }
        std::uint64_t traced_bytes = 0;
        for (std::size_t i = 1; i < passes.size(); i += 2) {
            traced_bytes += passes[i].bytes;
        }
        out.metric("streams.pack_ms", total_ms(spans, "streams.pack"), "ms");
        out.metric("streams.hd_hist_ms", total_ms(spans, "streams.hd_hist"), "ms");
        out.metric("streams.class_hist_ms", total_ms(spans, "streams.class_hist"), "ms");
        out.metric("serve.register_p50_ms", median(reg) / 1000.0, "ms");
        out.metric("serve.upload_mb_per_s",
                   reg_total_s > 0 ? static_cast<double>(traced_bytes) / 1e6 / reg_total_s : 0.0,
                   "MB/s");
        report_server_counters(out, before, after, static_cast<double>(passes.size()));

        // The request path on a cached histogram: sequential round trips.
        serve::ServeClient& client = setup.clients.front();
        const TraceInput& probe_input = items.front();
        const std::uint64_t id = client.register_trace(probe_input.trace);
        const serve::EstimateRequest request = make_request(
            kChurnModules[probe_input.module], id, serve::ModelKind::Enhanced);
        (void)client.estimate(request);
        const serve::ServerStatsReply from = server.stats_snapshot();
        const std::size_t probe_mismatches =
            sequential_round_trips(client, request, expected.front()[1], tracer);
        const serve::ServerStatsReply to = server.stats_snapshot();
        client.close_trace(id);
        out.check(probe_mismatches == 0, "a daemon reply differs from the direct engine");
        report_request_layers(out, tracer.spans(), from, to, request, direct, probe_input);
        std::size_t requests = 0;
        std::size_t failed = 0;
        for (const ChurnPass& p : passes) {
            requests += p.requests;
            failed += p.failed;
        }
        out.metric("loadgen.sent", static_cast<double>(requests), "count");
        out.metric("loadgen.completed", static_cast<double>(requests - failed), "count");
        out.metric("trace.overhead_pct",
                   100.0 * (median(traced_walls) - median(plain_walls)) / median(plain_walls),
                   "%");
        std::ostringstream note;
        note << "passes=" << passes.size() << " (" << traced_passes
             << " traced); setup_s=" << median(setup_times);
        out.note(note.str());
    }
    setup.clients.clear();
    server.drain();
    for (int i = 0; i < kSetupRepeats; ++i) {
        fs::remove_all("churn" + std::to_string(i));
    }
}

} // namespace

void run_serve_churn(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    serve_churn(config, tracer, out);
}

} // namespace hdbench
