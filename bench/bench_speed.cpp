/// Quantifies the paper's motivation: the macro-model trades a little
/// accuracy for orders-of-magnitude faster power estimation than the
/// reference (gate-level event) simulation, and the purely statistical
/// estimator needs no per-cycle work at all.
///
/// google-benchmark microbenchmarks; run with --benchmark_* flags.
/// After the microbenchmarks an event-kernel comparison (binary-heap
/// baseline vs timing-wheel, events/sec and end-to-end characterization;
/// skip with --no-kernel), a thread-scaling sweep of the sharded
/// characterization engine (skip with --no-scaling), a pairs-mode
/// warm-up comparison (per-record vs batched vs all-core default; skip
/// with --no-pairs), a characterization-backend comparison (exact event
/// kernel vs word-parallel power emulation, with and without glitch
/// calibration; skip with --no-char-backend), a checkpoint-journal
/// overhead measurement (skip
/// with --no-checkpoint) and an estimation serving-throughput comparison
/// (scalar vs packed vs packed+threads on a 1M-sample 16-bit stream,
/// plus a 16/64/128/256-bit width sweep across the scalar kernel and
/// the packed kernel's SIMD tiers; skip both with --no-estimation) and a
/// serving load harness (an in-process hdpowerd Server driven to a
/// million pipelined queries over concurrent Unix-socket connections,
/// with p50/p99/p999 latency and a one-shot-CLI-path baseline; skip with
/// --no-serving) run and write their sections into BENCH_speed.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hdpower.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace hdpm;

namespace {

struct Fixture {
    dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 8);
    core::HdModel model;
    std::vector<util::BitVec> patterns;
    std::vector<streams::WordStats> word_stats;

    Fixture()
    {
        core::CharacterizationOptions options;
        options.max_transitions = 6000;
        options.min_transitions = 3000;
        options.seed = 7;
        const core::Characterizer characterizer;
        model = characterizer.characterize(module, options);

        const auto operands =
            core::make_operand_streams(module, streams::DataType::Music, 4096, 11);
        patterns = core::encode_module_stream(module, operands);
        for (std::size_t op = 0; op < operands.size(); ++op) {
            word_stats.push_back(streams::measure_word_stats(
                operands[op], module.operand_widths()[op]));
        }
    }
};

Fixture& fixture()
{
    static Fixture f;
    return f;
}

void BM_ReferenceEventSimulation(benchmark::State& state)
{
    Fixture& f = fixture();
    sim::PowerSimulator power{f.module.netlist(), gate::TechLibrary::generic350()};
    for (auto _ : state) {
        benchmark::DoNotOptimize(power.run(f.patterns).total_charge_fc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.patterns.size() - 1));
}
BENCHMARK(BM_ReferenceEventSimulation)->Unit(benchmark::kMillisecond);

void BM_HdModelStreamEstimate(benchmark::State& state)
{
    Fixture& f = fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.model.estimate_average(f.patterns));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.patterns.size() - 1));
}
BENCHMARK(BM_HdModelStreamEstimate)->Unit(benchmark::kMicrosecond);

void BM_StatisticalEstimate(benchmark::State& state)
{
    Fixture& f = fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::estimate_from_word_stats(f.model, f.word_stats).from_distribution_fc);
    }
}
BENCHMARK(BM_StatisticalEstimate)->Unit(benchmark::kMicrosecond);

void BM_Characterization(benchmark::State& state)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const core::Characterizer characterizer;
    core::CharacterizationOptions options;
    options.max_transitions = static_cast<std::size_t>(state.range(0));
    options.min_transitions = options.max_transitions;
    options.seed = 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            characterizer.characterize(module, options).average_deviation());
    }
}
BENCHMARK(BM_Characterization)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_AnalyticHdDistribution(benchmark::State& state)
{
    streams::WordStats stats;
    stats.mean = 12.0;
    stats.variance = 900.0;
    stats.rho = 0.93;
    stats.width = 16;
    stats.count = 10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::compute_hd_distribution(stats).mean());
    }
}
BENCHMARK(BM_AnalyticHdDistribution);

/// Event-kernel comparison on the 16-bit CSA multiplier: the same random
/// stimulus stream through the binary-heap baseline and the timing-wheel
/// kernel (events/sec), plus a single-thread end-to-end collect_records
/// run per kernel. Verifies bit-identical charges / transitions / records
/// on the way; returns a JSON fragment for BENCH_speed.json.
std::string run_kernel_bench(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 16);
    const int m = module.total_input_bits();
    const sim::SimContext context{module.netlist(), gate::TechLibrary::generic350()};

    util::Rng rng{4242};
    std::vector<util::BitVec> patterns;
    for (int i = 0; i < 1500; ++i) {
        patterns.emplace_back(m, rng.next_u64());
    }

    struct KernelRun {
        const char* name = "";
        double apply_wall_ms = 0.0;
        std::uint64_t events = 0;
        double events_per_sec = 0.0;
        std::size_t max_queue_depth = 0;
        double total_charge_fc = 0.0;
        std::uint64_t transitions = 0;
        double char_wall_ms = 0.0;
    };
    std::vector<KernelRun> runs;
    std::vector<core::CharacterizationRecord> baseline_records;
    bool identical = true;

    for (const auto& [kind, name] :
         {std::pair{sim::SchedulerKind::BinaryHeap, "heap"},
          std::pair{sim::SchedulerKind::TimingWheel, "wheel"}}) {
        KernelRun run;
        run.name = name;

        sim::EventSimOptions sim_options;
        sim_options.scheduler = kind;
        sim::EventSimulator simulator{context, sim_options};
        simulator.initialize(patterns.front());
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 1; i < patterns.size(); ++i) {
            const sim::CycleResult cycle = simulator.apply(patterns[i]);
            run.total_charge_fc += cycle.charge_fc;
            run.transitions += cycle.transitions;
        }
        run.apply_wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        run.events = simulator.kernel_stats().events_processed;
        run.max_queue_depth = simulator.kernel_stats().max_queue_depth;
        run.events_per_sec =
            static_cast<double>(run.events) / (run.apply_wall_ms / 1000.0);

        // End-to-end single-thread characterization with the same kernel.
        core::CharacterizationOptions options;
        options.max_transitions = 3000;
        options.min_transitions = 3000;
        options.shard_size = 1000;
        options.seed = 9;
        const core::Characterizer characterizer{gate::TechLibrary::generic350(),
                                                sim_options};
        const auto char_start = std::chrono::steady_clock::now();
        const auto records = characterizer.collect_records(module, options);
        run.char_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - char_start)
                               .count();
        if (baseline_records.empty()) {
            baseline_records = records;
        } else if (records.size() != baseline_records.size()) {
            identical = false;
        } else {
            for (std::size_t i = 0; i < records.size(); ++i) {
                if (records[i].charge_fc != baseline_records[i].charge_fc ||
                    records[i].hd != baseline_records[i].hd) {
                    identical = false;
                    break;
                }
            }
        }
        runs.push_back(run);
    }
    identical = identical &&
                runs[0].total_charge_fc == runs[1].total_charge_fc &&
                runs[0].transitions == runs[1].transitions;

    std::cout << "\nevent kernel comparison (csa_multiplier 16x16, "
              << patterns.size() - 1 << " vectors + 3000-transition characterization):\n";
    util::TextTable table;
    table.set_header({"kernel", "apply [ms]", "Mevents/s", "peak queue",
                      "char [ms]", "speedup"});
    for (const KernelRun& run : runs) {
        table.add_row({run.name, util::TextTable::fmt(run.apply_wall_ms, 1),
                       util::TextTable::fmt(run.events_per_sec / 1e6, 2),
                       std::to_string(run.max_queue_depth),
                       util::TextTable::fmt(run.char_wall_ms, 1),
                       util::TextTable::fmt(runs.front().apply_wall_ms /
                                                run.apply_wall_ms,
                                            2)});
    }
    table.print(std::cout);
    std::cout << "heap and wheel bit-identical: "
              << (identical ? "yes" : "NO — KERNEL MISMATCH") << '\n';
    all_bit_identical = all_bit_identical && identical;

    std::ostringstream json;
    json << "  \"event_kernel\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 16,\n"
         << "    \"vectors\": " << patterns.size() - 1 << ",\n"
         << "    \"identical\": " << (identical ? "true" : "false")
         << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        json << (i == 0 ? "" : ",") << "\n      {\"kernel\": \"" << runs[i].name
             << "\", \"apply_wall_ms\": " << runs[i].apply_wall_ms
             << ", \"events\": " << runs[i].events
             << ", \"events_per_sec\": " << runs[i].events_per_sec
             << ", \"max_queue_depth\": " << runs[i].max_queue_depth
             << ", \"char_wall_ms\": " << runs[i].char_wall_ms
             << ", \"apply_speedup\": "
             << runs.front().apply_wall_ms / runs[i].apply_wall_ms
             << ", \"char_speedup\": "
             << runs.front().char_wall_ms / runs[i].char_wall_ms << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Thread-scaling sweep of Characterizer::collect_records on an 8-bit CSA
/// multiplier: fixed 20k-transition budget, 1k-transition shards, threads
/// 1/2/4. Verifies the bit-identical-across-thread-counts guarantee on the
/// way and returns a JSON fragment for BENCH_speed.json.
std::string run_thread_scaling(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 8);
    const core::Characterizer characterizer;

    core::CharacterizationOptions options;
    options.max_transitions = 20000;
    options.min_transitions = 20000; // fixed workload: no early convergence stop
    options.batch = 2000;
    options.shard_size = 1000;
    options.seed = 42;

    struct Run {
        unsigned threads = 1;
        double wall_ms = 0.0;
        std::uint64_t sim_transitions = 0;
    };
    std::vector<Run> runs;
    std::vector<core::CharacterizationRecord> baseline;
    bool deterministic = true;

    std::cout << "\ncollect_records thread scaling (csa_multiplier 8x8, "
              << options.max_transitions << " transitions, shard size "
              << options.shard_size << "):\n";
    for (const unsigned threads : {1U, 2U, 4U}) {
        options.threads = threads;
        core::CharRunStats stats;
        options.stats = &stats;
        const auto start = std::chrono::steady_clock::now();
        const auto records = characterizer.collect_records(module, options);
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        runs.push_back(Run{threads, wall_ms, stats.sim_transitions});

        if (threads == 1) {
            baseline = records;
        } else if (records.size() != baseline.size()) {
            deterministic = false;
        } else {
            for (std::size_t i = 0; i < records.size(); ++i) {
                if (records[i].hd != baseline[i].hd ||
                    records[i].stable_zeros != baseline[i].stable_zeros ||
                    records[i].charge_fc != baseline[i].charge_fc ||
                    records[i].toggle_mask != baseline[i].toggle_mask) {
                    deterministic = false;
                    break;
                }
            }
        }
    }

    util::TextTable table;
    table.set_header({"threads", "wall [ms]", "speedup", "toggles/s"});
    for (const Run& run : runs) {
        table.add_row({std::to_string(run.threads),
                       util::TextTable::fmt(run.wall_ms, 1),
                       util::TextTable::fmt(runs.front().wall_ms / run.wall_ms, 2),
                       util::TextTable::fmt(static_cast<double>(run.sim_transitions) /
                                                (run.wall_ms / 1000.0),
                                            0)});
    }
    table.print(std::cout);
    std::cout << "records bit-identical across thread counts: "
              << (deterministic ? "yes" : "NO — DETERMINISM BUG") << '\n';
    all_bit_identical = all_bit_identical && deterministic;

    std::ostringstream json;
    json << "  \"collect_records_thread_scaling\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 8,\n"
         << "    \"transitions\": " << options.max_transitions << ",\n"
         << "    \"shard_size\": " << options.shard_size << ",\n"
         << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ",\n    \"deterministic\": " << (deterministic ? "true" : "false")
         << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        json << (i == 0 ? "" : ",") << "\n      {\"threads\": " << runs[i].threads
             << ", \"wall_ms\": " << runs[i].wall_ms
             << ", \"speedup\": " << runs.front().wall_ms / runs[i].wall_ms
             << ", \"sim_transitions\": " << runs[i].sim_transitions << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Pairs-mode (enhanced-model) characterization of the 16-bit CSA
/// multiplier: the original pipeline (binary-heap kernel, per-record
/// warm-up, one thread) against the optimized wheel kernel, the batched
/// warm-up fast path and the current default (batched warm-up, all
/// cores). Verifies bit-identical records and fitted enhanced-model
/// coefficients across every configuration and returns a JSON fragment
/// for BENCH_speed.json.
std::string run_pairs_bench(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 16);
    const int m = module.total_input_bits();

    core::CharacterizationOptions options;
    options.max_transitions = 6000;
    options.min_transitions = 6000; // fixed workload: no early convergence stop
    options.batch = 6000;
    options.shard_size = 1000;
    options.seed = 77;
    options.mode = core::StimulusMode::StratifiedPairs;

    struct Config {
        const char* name = "";
        sim::SchedulerKind scheduler = sim::SchedulerKind::TimingWheel;
        core::WarmupMode warmup = core::WarmupMode::Batched;
        unsigned threads = 1;
    };
    const Config configs[] = {
        // The original pipeline: binary-heap kernel, a full initialize()
        // per record, one thread. The heap kernel is the retained
        // differential baseline, so this row tracks the whole event-kernel
        // line of work, not just this round's changes.
        {"heap kernel, per-record, 1 thread", sim::SchedulerKind::BinaryHeap,
         core::WarmupMode::PerRecord, 1},
        {"wheel kernel, per-record, 1 thread", sim::SchedulerKind::TimingWheel,
         core::WarmupMode::PerRecord, 1},
        {"wheel kernel, batched, 1 thread", sim::SchedulerKind::TimingWheel,
         core::WarmupMode::Batched, 1},
        {"wheel kernel, batched, all cores (default)",
         sim::SchedulerKind::TimingWheel, core::WarmupMode::Batched, 0},
    };

    struct Run {
        const Config* config = nullptr;
        double wall_ms = 0.0;
        core::CharRunStats stats;
    };
    std::vector<Run> runs;
    std::vector<core::CharacterizationRecord> baseline;
    core::EnhancedHdModel baseline_model;
    bool identical = true;

    std::cout << "\npairs-mode characterization (csa_multiplier 16x16, "
              << options.max_transitions << " records, shard size "
              << options.shard_size << "):\n";
    for (const Config& config : configs) {
        sim::EventSimOptions sim_options;
        sim_options.scheduler = config.scheduler;
        const core::Characterizer characterizer{gate::TechLibrary::generic350(),
                                                sim_options};
        options.warmup = config.warmup;
        options.threads = config.threads;
        Run run;
        run.config = &config;
        options.stats = &run.stats;
        const auto start = std::chrono::steady_clock::now();
        const auto records = characterizer.collect_records(module, options);
        run.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

        const core::EnhancedHdModel model = core::fit_enhanced_model(m, 0, records);
        if (baseline.empty()) {
            baseline = records;
            baseline_model = model;
        } else {
            if (records.size() != baseline.size()) {
                identical = false;
            } else {
                for (std::size_t i = 0; i < records.size(); ++i) {
                    if (records[i].hd != baseline[i].hd ||
                        records[i].stable_zeros != baseline[i].stable_zeros ||
                        records[i].charge_fc != baseline[i].charge_fc ||
                        records[i].toggle_mask != baseline[i].toggle_mask) {
                        identical = false;
                        break;
                    }
                }
            }
            for (int hd = 1; identical && hd <= m; ++hd) {
                for (int z = 0; z <= m - hd; ++z) {
                    if (model.coefficient(hd, z) != baseline_model.coefficient(hd, z)) {
                        identical = false;
                        break;
                    }
                }
            }
        }
        runs.push_back(run);
    }

    util::TextTable table;
    table.set_header({"configuration", "threads", "wall [ms]", "speedup",
                      "warm-up batches"});
    for (const Run& run : runs) {
        table.add_row({run.config->name, std::to_string(run.stats.threads),
                       util::TextTable::fmt(run.wall_ms, 1),
                       util::TextTable::fmt(runs.front().wall_ms / run.wall_ms, 2),
                       std::to_string(run.stats.warmup_batches)});
    }
    table.print(std::cout);
    std::cout << "records and fitted coefficients bit-identical: "
              << (identical ? "yes" : "NO — WARM-UP/THREADING BUG")
              << "\nend-to-end speedup (pre-overhaul -> default): "
              << util::TextTable::fmt(runs.front().wall_ms / runs.back().wall_ms, 2)
              << "x\n";

    all_bit_identical = all_bit_identical && identical;

    std::ostringstream json;
    json << "  \"pairs_warmup\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 16,\n"
         << "    \"records\": " << options.max_transitions << ",\n"
         << "    \"shard_size\": " << options.shard_size << ",\n"
         << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ",\n    \"identical\": " << (identical ? "true" : "false")
         << ",\n    \"end_to_end_speedup\": "
         << runs.front().wall_ms / runs.back().wall_ms << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& run = runs[i];
        json << (i == 0 ? "" : ",") << "\n      {\"config\": \"" << run.config->name
             << "\", \"scheduler\": \""
             << (run.config->scheduler == sim::SchedulerKind::TimingWheel ? "wheel"
                                                                          : "heap")
             << "\", \"warmup\": \""
             << (run.config->warmup == core::WarmupMode::Batched ? "batched"
                                                                 : "per-record")
             << "\", \"threads\": " << run.stats.threads
             << ", \"wall_ms\": " << run.wall_ms
             << ", \"speedup\": " << runs.front().wall_ms / run.wall_ms
             << ", \"warmup_vectors\": " << run.stats.warmup_vectors
             << ", \"warmup_batches\": " << run.stats.warmup_batches << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Characterization-backend comparison on the 16-bit CSA multiplier in
/// pairs mode: the exact event kernel against the word-parallel
/// power-emulation backend, uncalibrated and with the default glitch
/// calibration, single-threaded and on all cores. Reports pairs/sec, the
/// speedup over the event kernel, and the emulated mean cycle charge's
/// relative error against the event reference; verifies the emulation
/// records are bit-identical across thread counts on the way. Returns a
/// JSON fragment for BENCH_speed.json.
std::string run_char_backend(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 16);

    core::CharacterizationOptions options;
    // A larger budget than the warm-up bench: the calibration is a fixed
    // event-kernel cost (512 pairs), so the backend's speedup grows with
    // the number of pairs it is amortized over.
    options.max_transitions = 12000;
    options.min_transitions = 12000; // fixed workload: no early convergence stop
    options.batch = 12000;
    options.shard_size = 1000;
    options.seed = 77;
    options.mode = core::StimulusMode::StratifiedPairs;

    struct Config {
        const char* name = "";
        core::CharBackend backend = core::CharBackend::EventKernel;
        std::size_t calibration = 0;
        unsigned threads = 1;
    };
    const Config configs[] = {
        {"event kernel, 1 thread", core::CharBackend::EventKernel, 0, 1},
        {"emulation, uncalibrated, 1 thread", core::CharBackend::PowerEmulation, 0, 1},
        {"emulation, calibrated (512), 1 thread", core::CharBackend::PowerEmulation,
         512, 1},
        {"emulation, calibrated (512), all cores", core::CharBackend::PowerEmulation,
         512, 0},
    };

    struct Run {
        const Config* config = nullptr;
        double wall_ms = 0.0;
        double pairs_per_sec = 0.0;
        double mean_charge_fc = 0.0;
        double rel_error = 0.0;
        core::CharRunStats stats;
    };
    const core::Characterizer characterizer;
    std::vector<Run> runs;
    std::vector<core::CharacterizationRecord> calibrated_1t;
    bool deterministic = true;

    std::cout << "\ncharacterization backend comparison (csa_multiplier 16x16, "
              << options.max_transitions << " pairs, shard size "
              << options.shard_size << "):\n";
    for (const Config& config : configs) {
        options.backend = config.backend;
        options.calibration_pairs = config.calibration;
        options.threads = config.threads;
        Run run;
        run.config = &config;
        options.stats = &run.stats;
        const auto start = std::chrono::steady_clock::now();
        const auto records = characterizer.collect_records(module, options);
        run.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        run.pairs_per_sec =
            static_cast<double>(records.size()) / (run.wall_ms / 1000.0);
        for (const auto& rec : records) {
            run.mean_charge_fc += rec.charge_fc;
        }
        run.mean_charge_fc /= static_cast<double>(records.size());
        if (config.backend == core::CharBackend::PowerEmulation &&
            config.calibration > 0) {
            if (calibrated_1t.empty()) {
                calibrated_1t = records;
            } else if (records.size() != calibrated_1t.size()) {
                deterministic = false;
            } else {
                for (std::size_t i = 0; i < records.size(); ++i) {
                    if (records[i].hd != calibrated_1t[i].hd ||
                        records[i].stable_zeros != calibrated_1t[i].stable_zeros ||
                        records[i].charge_fc != calibrated_1t[i].charge_fc ||
                        records[i].toggle_mask != calibrated_1t[i].toggle_mask) {
                        deterministic = false;
                        break;
                    }
                }
            }
        }
        runs.push_back(run);
    }
    for (Run& run : runs) {
        run.rel_error = (run.mean_charge_fc - runs.front().mean_charge_fc) /
                        runs.front().mean_charge_fc;
    }
    const double speedup_1t = runs[2].pairs_per_sec / runs[0].pairs_per_sec;

    util::TextTable table;
    table.set_header({"configuration", "threads", "wall [ms]", "pairs/s",
                      "speedup", "mean [fC]", "rel err [%]"});
    for (const Run& run : runs) {
        table.add_row({run.config->name, std::to_string(run.stats.threads),
                       util::TextTable::fmt(run.wall_ms, 1),
                       util::TextTable::fmt(run.pairs_per_sec, 0),
                       util::TextTable::fmt(
                           run.pairs_per_sec / runs.front().pairs_per_sec, 1),
                       util::TextTable::fmt(run.mean_charge_fc, 1),
                       util::TextTable::fmt(100.0 * run.rel_error, 2)});
    }
    table.print(std::cout);
    std::cout << "emulation (calibrated, 1 thread) vs event kernel: "
              << util::TextTable::fmt(speedup_1t, 1)
              << "x pairs/s\nemulation records bit-identical across thread "
                 "counts: "
              << (deterministic ? "yes" : "NO — DETERMINISM BUG") << '\n';
    all_bit_identical = all_bit_identical && deterministic;

    std::ostringstream json;
    json << "  \"char_backend\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 16,\n"
         << "    \"pairs\": " << options.max_transitions << ",\n"
         << "    \"shard_size\": " << options.shard_size << ",\n"
         << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ",\n    \"deterministic\": " << (deterministic ? "true" : "false")
         << ",\n    \"calibrated_1t_speedup\": " << speedup_1t
         << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& run = runs[i];
        json << (i == 0 ? "" : ",") << "\n      {\"config\": \"" << run.config->name
             << "\", \"backend\": \""
             << core::char_backend_name(run.config->backend)
             << "\", \"calibration_pairs\": " << run.config->calibration
             << ", \"threads\": " << run.stats.threads
             << ", \"wall_ms\": " << run.wall_ms
             << ", \"pairs_per_sec\": " << run.pairs_per_sec
             << ", \"speedup\": " << run.pairs_per_sec / runs.front().pairs_per_sec
             << ", \"mean_charge_fc\": " << run.mean_charge_fc
             << ", \"rel_error\": " << run.rel_error
             << ", \"emulation_passes\": " << run.stats.emulation_passes
             << ", \"calibration_scale\": " << run.stats.calibration_scale << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Multi-corner amortization on the 16-bit CSA multiplier: K = 8 operating
/// corners of one load class characterized as 8 independent single-corner
/// runs versus one collect_records_corners sweep, per backend. The event
/// kernel simulates each shard once and replays every corner's charge from
/// the toggle log; the emulation backend runs one glitch calibration for
/// all 8 corners. The claim is ≥ 5× end-to-end event-kernel amortization,
/// and on both backends every corner's sweep block must be bit-identical
/// to its independent run (verified record by record; @p all_bit_identical
/// is cleared when any record differs). Returns a JSON fragment for
/// BENCH_speed.json.
std::string run_multi_corner(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 16);

    std::vector<gate::Corner> corners;
    for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
        for (const double temp : {25.0, 85.0}) {
            corners.push_back({vdd, temp, gate::LoadClass::Nominal});
        }
    }

    core::CharacterizationOptions base;
    base.max_transitions = 10000;
    base.min_transitions = 10000; // fixed workload: no early convergence stop
    base.batch = 10000;
    base.shard_size = 1000;
    base.seed = 77;
    base.mode = core::StimulusMode::StratifiedPairs;
    base.calibration_pairs = 256;
    base.threads = 1; // amortization is about work done, not parallelism

    struct BackendRun {
        core::CharBackend backend = core::CharBackend::EventKernel;
        double independent_ms = 0.0;
        double sweep_ms = 0.0;
        double amortization = 0.0;
        bool bit_identical = true; ///< every corner's block equals its independent run
    };
    const core::Characterizer characterizer;
    std::vector<BackendRun> backends;

    std::cout << "\nmulti-corner amortization (csa_multiplier 16x16, "
              << corners.size() << " corners, " << base.max_transitions
              << " pairs each, 1 thread):\n";
    for (const core::CharBackend backend :
         {core::CharBackend::EventKernel, core::CharBackend::PowerEmulation}) {
        BackendRun run;
        run.backend = backend;

        std::vector<std::vector<core::CharacterizationRecord>> independent;
        {
            const auto start = std::chrono::steady_clock::now();
            for (const gate::Corner& corner : corners) {
                core::CharacterizationOptions options = base;
                options.backend = backend;
                options.corner = corner;
                independent.push_back(characterizer.collect_records(module, options));
            }
            run.independent_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();
        }

        std::vector<std::vector<core::CharacterizationRecord>> sweep;
        {
            core::CharacterizationOptions options = base;
            options.backend = backend;
            options.corners = corners;
            const auto start = std::chrono::steady_clock::now();
            sweep = characterizer.collect_records_corners(module, options);
            run.sweep_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        }
        run.amortization = run.independent_ms / run.sweep_ms;

        for (std::size_t k = 0; k < corners.size() && run.bit_identical; ++k) {
            if (sweep[k].size() != independent[k].size()) {
                run.bit_identical = false;
                break;
            }
            for (std::size_t i = 0; i < sweep[k].size(); ++i) {
                const auto& a = independent[k][i];
                const auto& b = sweep[k][i];
                if (a.hd != b.hd || a.stable_zeros != b.stable_zeros ||
                    a.toggle_mask != b.toggle_mask || a.charge_fc != b.charge_fc) {
                    run.bit_identical = false;
                    break;
                }
            }
        }
        backends.push_back(run);
    }

    util::TextTable table;
    table.set_header({"backend", "8 independent [ms]", "1 sweep [ms]",
                      "amortization", "bit-identical"});
    for (const BackendRun& run : backends) {
        table.add_row({core::char_backend_name(run.backend),
                       util::TextTable::fmt(run.independent_ms, 1),
                       util::TextTable::fmt(run.sweep_ms, 1),
                       util::TextTable::fmt(run.amortization, 1) + "x",
                       run.bit_identical ? "yes" : "NO — DETERMINISM BUG"});
    }
    table.print(std::cout);
    all_bit_identical =
        all_bit_identical && backends[0].bit_identical && backends[1].bit_identical;
    std::cout << "event-kernel 8-corner sweep amortization: "
              << util::TextTable::fmt(backends[0].amortization, 1)
              << "x (target >= 5x)\n";

    std::ostringstream json;
    json << "  \"multi_corner\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 16,\n"
         << "    \"corners\": " << corners.size()
         << ",\n    \"pairs\": " << base.max_transitions
         << ",\n    \"calibration_pairs\": " << base.calibration_pairs
         << ",\n    \"event_bit_identical\": "
         << (backends[0].bit_identical ? "true" : "false")
         << ",\n    \"emulation_bit_identical\": "
         << (backends[1].bit_identical ? "true" : "false") << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
        const BackendRun& run = backends[i];
        json << (i == 0 ? "" : ",") << "\n      {\"backend\": \""
             << core::char_backend_name(run.backend)
             << "\", \"independent_wall_ms\": " << run.independent_ms
             << ", \"sweep_wall_ms\": " << run.sweep_ms
             << ", \"amortization\": " << run.amortization << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Checkpoint-journal overhead on the 16-bit CSA multiplier in pairs
/// mode (the default characterization configuration): the same fixed
/// workload with checkpointing off and with a journal published after
/// every merged shard. Verifies bit-identical records and that the
/// journal is retired after a clean finish; returns a JSON fragment
/// for BENCH_speed.json.
std::string run_checkpoint_bench(bool& all_bit_identical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 16);

    core::CharacterizationOptions options;
    options.max_transitions = 6000;
    options.min_transitions = 6000; // fixed workload: no early convergence stop
    options.batch = 6000;
    options.shard_size = 1000;
    options.seed = 77;
    options.mode = core::StimulusMode::StratifiedPairs;

    const core::Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::temp_directory_path() / "hdpm_bench_ckpt.journal";
    std::filesystem::remove(journal);

    struct Run {
        const char* name = "";
        double wall_ms = 0.0;
        std::size_t publishes = 0;
    };
    constexpr int kReps = 5; // best-of-N to damp scheduler noise
    std::vector<Run> runs;
    std::vector<core::CharacterizationRecord> baseline;
    bool identical = true;
    bool journal_retired = true;

    std::cout << "\ncheckpoint overhead (csa_multiplier 16x16, pairs mode, "
              << options.max_transitions << " records, publish every shard):\n";
    for (const bool checkpointed : {false, true}) {
        Run run;
        run.name = checkpointed ? "journal every shard" : "no checkpoint";
        run.wall_ms = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < kReps; ++rep) {
            options.checkpoint = checkpointed ? journal : std::filesystem::path{};
            core::CharRunStats stats;
            options.stats = &stats;
            const auto start = std::chrono::steady_clock::now();
            const auto records = characterizer.collect_records(module, options);
            const double wall_ms = std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            run.wall_ms = std::min(run.wall_ms, wall_ms);
            if (checkpointed) {
                run.publishes = stats.checkpoints_published;
                journal_retired = journal_retired && !std::filesystem::exists(journal);
            }
            if (baseline.empty()) {
                baseline = records;
            } else if (records.size() != baseline.size()) {
                identical = false;
            } else {
                for (std::size_t i = 0; i < records.size(); ++i) {
                    if (records[i].hd != baseline[i].hd ||
                        records[i].charge_fc != baseline[i].charge_fc ||
                        records[i].toggle_mask != baseline[i].toggle_mask) {
                        identical = false;
                        break;
                    }
                }
            }
        }
        runs.push_back(run);
    }
    const double overhead_pct =
        (runs[1].wall_ms / runs[0].wall_ms - 1.0) * 100.0;

    util::TextTable table;
    table.set_header({"configuration", "wall [ms]", "publishes"});
    for (const Run& run : runs) {
        table.add_row({run.name, util::TextTable::fmt(run.wall_ms, 1),
                       std::to_string(run.publishes)});
    }
    table.print(std::cout);
    std::cout << "checkpoint overhead: " << util::TextTable::fmt(overhead_pct, 2)
              << "% (records bit-identical: " << (identical ? "yes" : "NO")
              << ", journal retired after success: "
              << (journal_retired ? "yes" : "NO") << ")\n";
    all_bit_identical = all_bit_identical && identical;

    std::ostringstream json;
    json << "  \"checkpoint_overhead\": {\n"
         << "    \"module\": \"csa_multiplier\",\n    \"width\": 16,\n"
         << "    \"records\": " << options.max_transitions << ",\n"
         << "    \"shard_size\": " << options.shard_size << ",\n"
         << "    \"checkpoint_every\": " << options.checkpoint_every << ",\n"
         << "    \"identical\": " << (identical ? "true" : "false") << ",\n"
         << "    \"journal_retired\": " << (journal_retired ? "true" : "false")
         << ",\n    \"baseline_wall_ms\": " << runs[0].wall_ms
         << ",\n    \"checkpointed_wall_ms\": " << runs[1].wall_ms
         << ",\n    \"publishes\": " << runs[1].publishes
         << ",\n    \"overhead_pct\": " << overhead_pct << "\n  }";
    return json.str();
}

/// Estimation serving throughput on the 1M-sample 16-bit input stream of
/// an 8x8 CSA multiplier (two 8-bit music operands): the pre-PR scalar
/// serving path (per-query encode_module_stream materialization +
/// estimate_average), the same scalar evaluation on prebuilt patterns,
/// per-query packed trace construction, the packed histogram kernel
/// single-threaded and on all cores (serving the trace built once), and
/// the EstimationEngine's cached-histogram repeat-query path. Verifies
/// the packed and scalar estimates agree and returns a JSON fragment for
/// BENCH_speed.json.
std::string run_estimation_bench()
{
    const int width = 16;
    const std::size_t n = 1'000'000;
    // The paper's serving scenario: a two-operand datapath component fed
    // recorded streams. The pre-PR path re-encoded the concatenated
    // BitVec stream on every query; the packed trace is built once and
    // reused across queries.
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 8);
    const auto operands =
        core::make_operand_streams(module, streams::DataType::Music, n, 2024);

    // Synthetic m=16 model with deterministic coefficients: the serving
    // cost is classification, not characterization, so a fitted model
    // would only slow the bench down without changing the measurement.
    std::vector<double> coefficients(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
        coefficients[static_cast<std::size_t>(i)] = 10.0 + 3.0 * i;
    }
    const core::HdModel model{width, std::move(coefficients)};

    const streams::PackedTrace trace =
        streams::PackedTrace::from_operands(operands, module.operand_widths());
    const auto prebuilt = core::encode_module_stream(module, operands);
    const double cycles = static_cast<double>(n - 1);

    struct Run {
        const char* name = "";
        double wall_ms = 0.0; ///< per evaluation, best of kReps
        double cycles_per_sec = 0.0;
        double estimate = 0.0;
    };
    constexpr int kReps = 5; // best-of-N to damp scheduler noise

    const auto measure = [&](const char* name, int evals, auto&& fn) {
        Run run;
        run.name = name;
        run.wall_ms = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < kReps; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            for (int e = 0; e < evals; ++e) {
                run.estimate = fn();
                benchmark::DoNotOptimize(run.estimate);
            }
            const double wall_ms = std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - start)
                                       .count() /
                                   evals;
            run.wall_ms = std::min(run.wall_ms, wall_ms);
        }
        run.cycles_per_sec = cycles / (run.wall_ms / 1000.0);
        return run;
    };

    std::vector<Run> runs;
    runs.push_back(measure("scalar serving (encode_module_stream + estimate_average)", 1, [&] {
        const auto patterns = core::encode_module_stream(module, operands);
        return model.estimate_average(patterns);
    }));
    runs.push_back(measure("scalar, prebuilt patterns", 2,
                           [&] { return model.estimate_average(prebuilt); }));
    runs.push_back(measure("packed, trace rebuilt per query", 2, [&] {
        const auto fresh =
            streams::PackedTrace::from_operands(operands, module.operand_widths());
        return model.estimate_trace(fresh, streams::KernelOptions{.threads = 1});
    }));
    runs.push_back(measure("packed histogram, 1 thread", 10, [&] {
        return model.estimate_trace(trace,
                                    streams::KernelOptions{.threads = 1});
    }));
    runs.push_back(measure("packed histogram, all cores", 10, [&] {
        return model.estimate_trace(
            trace, streams::KernelOptions{.threads = 0,
                                          .chunk = std::size_t{1} << 15});
    }));
    core::EstimationEngine engine;
    (void)engine.estimate(model, trace); // warm the histogram cache
    runs.push_back(measure("packed + engine cache (repeat queries)", 20,
                           [&] { return engine.estimate(model, trace); }));

    // The packed histograms are bit-identical to the scalar path, so the
    // estimates may differ only by FP summation order.
    bool agree = true;
    for (const Run& run : runs) {
        agree = agree && std::abs(run.estimate - runs[0].estimate) <=
                             1e-9 * std::abs(runs[0].estimate);
    }
    const double speedup_1t = runs[3].cycles_per_sec / runs[0].cycles_per_sec;

    std::cout << "\nestimation serving throughput (m=16 Hd-model, " << n
              << "-sample 16-bit module stream, 8x8 csa_multiplier operands):\n";
    util::TextTable table;
    table.set_header({"configuration", "wall/query [ms]", "Mcycles/s", "speedup"});
    for (const Run& run : runs) {
        table.add_row({run.name, util::TextTable::fmt(run.wall_ms, 2),
                       util::TextTable::fmt(run.cycles_per_sec / 1e6, 1),
                       util::TextTable::fmt(
                           run.cycles_per_sec / runs.front().cycles_per_sec, 1)});
    }
    table.print(std::cout);
    std::cout << "packed/scalar estimates agree: " << (agree ? "yes" : "NO — BUG")
              << "\npacked single-thread vs scalar serving: "
              << util::TextTable::fmt(speedup_1t, 1) << "x\n";

    std::ostringstream json;
    json << "  \"estimation_throughput\": {\n"
         << "    \"samples\": " << n << ",\n    \"width\": " << width << ",\n"
         << "    \"operand_widths\": [8, 8],\n"
         << "    \"model_m\": " << width << ",\n"
         << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ",\n    \"estimates_agree\": " << (agree ? "true" : "false")
         << ",\n    \"packed_1t_vs_scalar_speedup\": " << speedup_1t
         << ",\n    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        json << (i == 0 ? "" : ",") << "\n      {\"config\": \"" << runs[i].name
             << "\", \"wall_ms_per_query\": " << runs[i].wall_ms
             << ", \"cycles_per_sec\": " << runs[i].cycles_per_sec
             << ", \"speedup\": "
             << runs[i].cycles_per_sec / runs.front().cycles_per_sec << "}";
    }
    json << "\n    ]\n  }";
    return json.str();
}

/// Serving-throughput sweep across trace widths and kernel tiers: for
/// module streams of 16 / 64 / 128 / 256 total input bits (1 to 4 words
/// per sample), the scalar baseline kernel, the packed kernel pinned to
/// its scalar tier, and the packed kernel under runtime SIMD dispatch,
/// all single-threaded on the same 1M-sample random stream. Verifies the
/// estimates are bit-identical across the grid and returns a JSON
/// fragment for BENCH_speed.json.
std::string run_width_sweep(bool& all_bit_identical)
{
    struct Case {
        int width = 0;
        std::vector<int> operand_widths;
    };
    const Case cases[] = {
        {16, {16}},
        {64, {32, 32}},
        {128, {64, 64}},
        {256, {64, 64, 64, 64}},
    };

    struct Config {
        const char* name = "";
        streams::KernelOptions options;
    };
    const Config configs[] = {
        {"scalar kernel",
         {.kernel = streams::EstimationKernel::Scalar, .threads = 1}},
        {"packed, simd=scalar",
         {.kernel = streams::EstimationKernel::Packed,
          .threads = 1,
          .simd = util::cpu::SimdLevel::Scalar}},
        {"packed, simd=auto",
         {.kernel = streams::EstimationKernel::Packed, .threads = 1}},
    };

    const std::size_t n = 1'000'000;
    constexpr int kReps = 3; // best-of-N to damp scheduler noise
    const double cycles = static_cast<double>(n - 1);
    bool agree = true;

    std::cout << "\nserving throughput vs trace width (1M-sample random "
                 "streams, single thread, dispatch tier "
              << util::cpu::level_name(util::cpu::active()) << "):\n";
    util::TextTable table;
    table.set_header({"width", "words", "configuration", "wall [ms]",
                      "Mcycles/s", "vs scalar kernel"});

    std::ostringstream json;
    json << "  \"estimation_width_sweep\": {\n"
         << "    \"samples\": " << n << ",\n"
         << "    \"dispatch_tier\": \""
         << util::cpu::level_name(util::cpu::active()) << "\",\n"
         << "    \"cases\": [";

    for (std::size_t c = 0; c < std::size(cases); ++c) {
        const Case& cs = cases[c];
        std::vector<std::vector<std::int64_t>> operands;
        for (std::size_t op = 0; op < cs.operand_widths.size(); ++op) {
            operands.push_back(streams::generate_stream(
                streams::DataType::Random, cs.operand_widths[op], n,
                1000 + 13 * op));
        }
        const streams::PackedTrace trace =
            streams::PackedTrace::from_operands(operands, cs.operand_widths);

        std::vector<double> coefficients(static_cast<std::size_t>(cs.width));
        for (int i = 0; i < cs.width; ++i) {
            coefficients[static_cast<std::size_t>(i)] = 10.0 + 3.0 * i;
        }
        const core::HdModel model{cs.width, std::move(coefficients)};

        json << (c == 0 ? "" : ",") << "\n      {\"width\": " << cs.width
             << ", \"words_per_sample\": " << trace.words_per_sample()
             << ", \"runs\": [";
        double scalar_cps = 0.0;
        double estimate0 = 0.0;
        for (std::size_t k = 0; k < std::size(configs); ++k) {
            double wall_ms = std::numeric_limits<double>::infinity();
            double estimate = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                estimate = model.estimate_trace(trace, configs[k].options);
                benchmark::DoNotOptimize(estimate);
                wall_ms = std::min(
                    wall_ms, std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
            }
            const double cps = cycles / (wall_ms / 1000.0);
            if (k == 0) {
                scalar_cps = cps;
                estimate0 = estimate;
            }
            agree = agree && estimate == estimate0;
            table.add_row({std::to_string(cs.width),
                           std::to_string(trace.words_per_sample()),
                           configs[k].name, util::TextTable::fmt(wall_ms, 2),
                           util::TextTable::fmt(cps / 1e6, 1),
                           util::TextTable::fmt(cps / scalar_cps, 1)});
            json << (k == 0 ? "" : ",") << "\n        {\"config\": \""
                 << configs[k].name << "\", \"wall_ms\": " << wall_ms
                 << ", \"cycles_per_sec\": " << cps
                 << ", \"speedup_vs_scalar_kernel\": " << cps / scalar_cps
                 << "}";
        }
        json << "\n      ]}";
    }
    table.print(std::cout);
    std::cout << "estimates bit-identical across the width/kernel grid: "
              << (agree ? "yes" : "NO — KERNEL BUG") << '\n';
    all_bit_identical = all_bit_identical && agree;

    json << "\n    ],\n    \"estimates_identical\": "
         << (agree ? "true" : "false") << "\n  }";
    return json.str();
}

/// The hdpowerd serving load harness: start an in-process serve::Server
/// on a Unix socket, drive it to a million estimate queries over
/// concurrent pipelined connections, and report qps plus p50/p99/p999
/// per-request latency. A one-shot baseline (trace rebuild + library
/// load + fresh engine per query — the cold CLI path) anchors the
/// cached-serving speedup, and a burst against a freshly registered
/// trace shows the single-flight histogram coalescing: every connection
/// asks for the same cold histogram at once, exactly one build runs.
/// Returns a JSON fragment for BENCH_speed.json.
std::string run_serving_bench(bool& all_bit_identical)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "hdpm_bench_serving";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);

    serve::ServerOptions options;
    options.unix_path = (dir / "bench.sock").string();
    options.models_dir = (dir / "models").string();
    options.workers =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    options.char_options.max_transitions = 4000;
    options.char_options.min_transitions = 2000;
    serve::Server server{options};
    server.start();

    const std::size_t total_queries = 1'000'000;
    const std::size_t connections = 4;
    constexpr std::size_t kWindow = 512; // bounded pipelining (see docs/serving.md)
    const std::size_t trace_samples = 4096;

    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const auto operands =
        core::make_operand_streams(module, streams::DataType::Music, trace_samples, 2026);
    const streams::PackedTrace trace =
        streams::PackedTrace::from_operands(operands, module.operand_widths());

    serve::EstimateRequest request;
    request.module_type = static_cast<std::uint8_t>(dp::ModuleType::RippleAdder);
    request.widths = {8};
    request.kind = serve::ModelKind::Basic;

    // Warm up: register the shared trace and run one query so the model is
    // characterized and stored before anything is timed.
    serve::ServeClient warm = serve::ServeClient::connect_unix(options.unix_path);
    request.trace_id = warm.register_trace(trace);
    const serve::EstimateReply warm_reply = warm.estimate(request);

    // Bit-identity anchor: the daemon must reproduce the direct
    // EstimationEngine estimate exactly (integer histograms are invariant
    // across kernels, so this is ==, not a tolerance).
    const core::ModelLibrary library{options.models_dir};
    const core::HdModel model =
        library.get_or_characterize(module.type(), request.widths, options.char_options);
    core::EstimationEngine direct_engine;
    const double direct_estimate = direct_engine.estimate(model, trace);
    const bool bit_identical = warm_reply.estimate_fc == direct_estimate;

    // One-shot baseline: what each query costs without the daemon — rebuild
    // the packed trace, load the model from the on-disk library, classify
    // with a fresh engine (no histogram cache). This is the cold
    // hdpower_cli path the serving criterion compares against.
    const int one_shot_queries = 50;
    const auto one_shot_start = std::chrono::steady_clock::now();
    for (int q = 0; q < one_shot_queries; ++q) {
        const streams::PackedTrace fresh =
            streams::PackedTrace::from_operands(operands, module.operand_widths());
        const core::HdModel loaded = library.get_or_characterize(
            module.type(), request.widths, options.char_options);
        core::EstimationEngine engine;
        const double estimate = engine.estimate(loaded, fresh);
        benchmark::DoNotOptimize(estimate);
    }
    const double one_shot_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - one_shot_start)
            .count();
    const double one_shot_qps = one_shot_queries / one_shot_seconds;

    // Load phase: `connections` client threads, each pipelining its share
    // of the million queries in bounded windows. Per-request latency is
    // measured from the window's flush to that reply's read — i.e. what a
    // caller actually waits under pipelined load, queueing included.
    const serve::ServerStatsReply before = server.stats_snapshot();
    std::vector<std::vector<double>> latencies_us(connections);
    std::vector<std::string> failures(connections);
    std::vector<std::thread> clients;
    const auto load_start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            try {
                std::size_t share = total_queries / connections;
                if (c == 0) {
                    share += total_queries % connections;
                }
                latencies_us[c].reserve(share);
                serve::ServeClient client =
                    serve::ServeClient::connect_unix(options.unix_path);
                std::size_t remaining = share;
                while (remaining > 0) {
                    const std::size_t burst = std::min(kWindow, remaining);
                    for (std::size_t r = 0; r < burst; ++r) {
                        client.enqueue_estimate(request);
                    }
                    client.flush();
                    const auto flushed = std::chrono::steady_clock::now();
                    for (std::size_t r = 0; r < burst; ++r) {
                        (void)client.read_estimate_reply();
                        latencies_us[c].push_back(
                            std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - flushed)
                                .count());
                    }
                    remaining -= burst;
                }
            } catch (const std::exception& error) {
                failures[c] = error.what();
            }
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    const double load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - load_start)
            .count();
    std::string failure;
    for (const std::string& f : failures) {
        if (!f.empty()) {
            failure = f;
        }
    }
    const serve::ServerStatsReply after = server.stats_snapshot();

    std::vector<double> all_latencies;
    all_latencies.reserve(total_queries);
    for (const auto& per_conn : latencies_us) {
        all_latencies.insert(all_latencies.end(), per_conn.begin(), per_conn.end());
    }
    std::sort(all_latencies.begin(), all_latencies.end());
    const auto percentile = [&](double p) {
        if (all_latencies.empty()) {
            return 0.0;
        }
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(all_latencies.size() - 1));
        return all_latencies[idx];
    };
    const double p50_us = percentile(0.50);
    const double p99_us = percentile(0.99);
    const double p999_us = percentile(0.999);
    const double served_qps = static_cast<double>(all_latencies.size()) / load_seconds;
    const std::uint64_t load_estimates = after.estimates - before.estimates;
    const std::uint64_t load_built = after.histograms_built - before.histograms_built;
    const bool built_lt_models = load_built < load_estimates;
    const double cached_speedup = served_qps / one_shot_qps;

    // Coalescing burst: every connection fires one window at a freshly
    // registered trace at the same time. Single-flight means the cold
    // histogram is built exactly once; the racers coalesce onto it.
    const auto fresh_operands =
        core::make_operand_streams(module, streams::DataType::Music, trace_samples, 99);
    const streams::PackedTrace fresh_trace =
        streams::PackedTrace::from_operands(fresh_operands, module.operand_widths());
    serve::EstimateRequest fresh_request = request;
    fresh_request.trace_id = warm.register_trace(fresh_trace);
    const serve::ServerStatsReply co_before = server.stats_snapshot();
    const std::size_t co_burst = 64;
    std::vector<std::thread> racers;
    for (std::size_t c = 0; c < connections; ++c) {
        racers.emplace_back([&] {
            try {
                serve::ServeClient client =
                    serve::ServeClient::connect_unix(options.unix_path);
                for (std::size_t r = 0; r < co_burst; ++r) {
                    client.enqueue_estimate(fresh_request);
                }
                client.flush();
                for (std::size_t r = 0; r < co_burst; ++r) {
                    (void)client.read_estimate_reply();
                }
            } catch (const std::exception&) {
            }
        });
    }
    for (std::thread& thread : racers) {
        thread.join();
    }
    const serve::ServerStatsReply co_after = server.stats_snapshot();
    const std::uint64_t co_estimates = co_after.estimates - co_before.estimates;
    const std::uint64_t co_built = co_after.histograms_built - co_before.histograms_built;
    const std::uint64_t co_coalesced =
        co_after.histogram_coalesced - co_before.histogram_coalesced;

    const auto drain_start = std::chrono::steady_clock::now();
    server.drain();
    const double drain_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - drain_start)
            .count();

    std::cout << "\nhdpowerd serving load (" << all_latencies.size() << " queries, "
              << connections << " connections x " << kWindow << "-query windows, "
              << options.workers << " workers, 8+8-bit ripple_adder, "
              << trace_samples << "-sample trace):\n";
    util::TextTable table;
    table.set_header({"path", "qps", "speedup"});
    table.add_row({"one-shot (trace rebuild + library load + fresh engine)",
                   util::TextTable::fmt(one_shot_qps, 0), "1.0"});
    table.add_row({"hdpowerd cached serving",
                   util::TextTable::fmt(served_qps, 0),
                   util::TextTable::fmt(cached_speedup, 1)});
    table.print(std::cout);
    std::cout << "latency p50 " << util::TextTable::fmt(p50_us, 0) << " us, p99 "
              << util::TextTable::fmt(p99_us, 0) << " us, p99.9 "
              << util::TextTable::fmt(p999_us, 0) << " us\n"
              << "histograms built " << load_built << " vs " << load_estimates
              << " models served (" << (built_lt_models ? "coalesced" : "NO REUSE — BUG")
              << "), daemon vs direct engine bit-identical: "
              << (bit_identical ? "yes" : "NO — BUG") << '\n'
              << "cold-trace burst: " << co_estimates << " estimates, " << co_built
              << " histogram build(s), " << co_coalesced << " coalesced waiter(s)\n"
              << "drain: " << util::TextTable::fmt(drain_seconds * 1e3, 1) << " ms\n";
    if (!failure.empty()) {
        std::cout << "client failure: " << failure << '\n';
    }

    fs::remove_all(dir, ec);
    all_bit_identical = all_bit_identical && bit_identical;

    std::ostringstream json;
    json << "  \"serving\": {\n"
         << "    \"queries\": " << all_latencies.size() << ",\n"
         << "    \"connections\": " << connections << ",\n"
         << "    \"workers\": " << options.workers << ",\n"
         << "    \"window\": " << kWindow << ",\n"
         << "    \"trace_samples\": " << trace_samples << ",\n"
         << "    \"wall_seconds\": " << load_seconds << ",\n"
         << "    \"qps\": " << served_qps << ",\n"
         << "    \"p50_us\": " << p50_us << ",\n"
         << "    \"p99_us\": " << p99_us << ",\n"
         << "    \"p999_us\": " << p999_us << ",\n"
         << "    \"estimates\": " << load_estimates << ",\n"
         << "    \"histograms_built\": " << load_built << ",\n"
         << "    \"histogram_cache_hits\": "
         << after.histogram_cache_hits - before.histogram_cache_hits << ",\n"
         << "    \"histograms_built_lt_models\": " << (built_lt_models ? "true" : "false")
         << ",\n"
         << "    \"one_shot_qps\": " << one_shot_qps << ",\n"
         << "    \"cached_vs_one_shot_speedup\": " << cached_speedup << ",\n"
         << "    \"bit_identical_to_direct_engine\": " << (bit_identical ? "true" : "false")
         << ",\n"
         << "    \"client_failures\": " << (failure.empty() ? "0" : "1") << ",\n"
         << "    \"coalesce_burst\": {\"estimates\": " << co_estimates
         << ", \"histograms_built\": " << co_built << ", \"coalesced\": " << co_coalesced
         << "},\n"
         << "    \"drain_seconds\": " << drain_seconds << "\n  }";
    return json.str();
}

/// Strip @p flag from argv (google-benchmark rejects unknown flags).
bool take_flag(int& argc, char** argv, const char* flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            for (int j = i; j + 1 < argc; ++j) {
                argv[j] = argv[j + 1];
            }
            --argc;
            return true;
        }
    }
    return false;
}

} // namespace

int main(int argc, char** argv)
{
    const bool kernel = !take_flag(argc, argv, "--no-kernel");
    const bool scaling = !take_flag(argc, argv, "--no-scaling");
    const bool pairs = !take_flag(argc, argv, "--no-pairs");
    const bool char_backend = !take_flag(argc, argv, "--no-char-backend");
    const bool multi_corner = !take_flag(argc, argv, "--no-multi-corner");
    const bool checkpoint = !take_flag(argc, argv, "--no-checkpoint");
    const bool estimation = !take_flag(argc, argv, "--no-estimation");
    const bool serving = !take_flag(argc, argv, "--no-serving");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Every section clears this when one of its bit-identity checks fails.
    bool all_bit_identical = true;
    std::vector<std::string> sections;
    if (kernel) {
        sections.push_back(run_kernel_bench(all_bit_identical));
    }
    if (scaling) {
        sections.push_back(run_thread_scaling(all_bit_identical));
    }
    if (pairs) {
        sections.push_back(run_pairs_bench(all_bit_identical));
    }
    if (char_backend) {
        sections.push_back(run_char_backend(all_bit_identical));
    }
    if (multi_corner) {
        sections.push_back(run_multi_corner(all_bit_identical));
    }
    if (checkpoint) {
        sections.push_back(run_checkpoint_bench(all_bit_identical));
    }
    if (estimation) {
        sections.push_back(run_estimation_bench());
        sections.push_back(run_width_sweep(all_bit_identical));
    }
    if (serving) {
        sections.push_back(run_serving_bench(all_bit_identical));
    }
    if (!sections.empty()) {
        std::ofstream json{"BENCH_speed.json"};
        json << "{\n  \"bench\": \"speed\",\n";
        for (std::size_t i = 0; i < sections.size(); ++i) {
            json << sections[i] << (i + 1 < sections.size() ? ",\n" : "\n");
        }
        json << "}\n";
        std::cout << "[json] wrote BENCH_speed.json\n";
    }
    // A configuration that is not bit-identical to its reference is a
    // determinism bug, not a slow result: fail the run (and the CI leg).
    if (!all_bit_identical) {
        std::cerr << "bench_speed: a bit-identity check printed NO\n";
        return 1;
    }
    return 0;
}
