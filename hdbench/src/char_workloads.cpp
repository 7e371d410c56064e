// The two characterization workloads.
//
// char_event_journal: enhanced-model characterization of two datapath
// modules on the exact event kernel through ModelLibrary, journaling every
// merged shard — the `hdpower_cli characterize --checkpoint` path. The
// event kernel and the journal do the work; no calibration runs.
//
// char_emul_corners: one eight-corner power-emulation sweep of the same
// modules, then a corner-surface fit. Per-corner glitch calibration and the
// word-parallel settle do the work; no journal is written.
//
// Untraced runs repeat the fixed work (a "pass": both modules from an empty
// model directory) for the measuring time and report medians. Traced runs
// alternate an untraced pass with a traced one. For the event workload the
// traced pass composes the pipeline from its public parts, the way the
// fleet does — ShardRunner::run per shard on a pool, ShardMerger::merge,
// save_checkpoint, fit_enhanced_model, ModelLibrary::store_enhanced — and
// must reproduce the untraced records and model files byte for byte.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/characterize.hpp"
#include "core/checkpoint.hpp"
#include "core/corner_model.hpp"
#include "core/estimation_engine.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "sim/power.hpp"
#include "stats.hpp"
#include "streams/packed_trace.hpp"
#include "util/parallel.hpp"

namespace hdbench {
namespace {

namespace fs = std::filesystem;
using namespace hdpm;

struct ModuleSpec {
    dp::ModuleType type;
    std::vector<int> widths;
};

/// The characterized modules: a glitch-heavy array multiplier whose cost is
/// simulation, and a ripple adder that simulates few toggles, so its cost
/// is mostly journal publishing.
const std::array<ModuleSpec, 2> kModules{{
    {dp::ModuleType::CsaMultiplier, {16, 16}},
    {dp::ModuleType::RippleAdder, {32}},
}};

/// Vdd {3.3, 3.0, 2.7, 2.5} V × T {25, 85} °C, one load class.
std::vector<gate::Corner> sweep_corners()
{
    std::vector<gate::Corner> corners;
    for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
        for (const double temp : {25.0, 85.0}) {
            gate::Corner corner;
            corner.vdd_v = vdd;
            corner.temp_c = temp;
            corners.push_back(corner);
        }
    }
    return corners;
}

constexpr int kSetupRepeats = 3;
/// More than 2·kMinBeyond passes, so that the pass latency tail is read at
/// a percentile with kMinBeyond passes beyond it, never at the maximum, and
/// never below the median, even when the passes outlast the measuring time.
constexpr int kMinPasses = 2 * static_cast<int>(kMinBeyond) + 1;
constexpr int kMaxPasses = 200;
constexpr int kZeroClusters = 0;
/// The sweep's corners whose models model_err_pct checks: the two extremes
/// (3.3 V / 25 °C and 2.5 V / 85 °C). Every corner's reference is a full
/// event simulation, so all eight would cost more than the sweep itself.
constexpr std::array<std::size_t, 2> kErrorCorners{0, 7};

/// Seed purpose of the stimulus plan (see derive_seed).
constexpr std::uint64_t kPlanSeed = 1;

/// One evaluation stream and its reference: the event kernel's mean cycle
/// charge on it at each evaluation library.
struct HeldOut {
    std::vector<util::BitVec> patterns;
    streams::PackedTrace trace;
    std::vector<double> reference_fc;
};

/// Every convergence setting stays at its default except the floor, which
/// is raised to the budget: with the default floor the run stops wherever
/// the seed's stimulus happens to converge, so the timed work would change
/// with the seed.
void run_full_budget(core::CharacterizationOptions& options)
{
    options.min_transitions = options.max_transitions;
}

/// What precedes the first timed characterization: module generation,
/// netlist compile, and the evaluation set with its event-kernel reference
/// simulation (at the native corner, or at the sweep's checked corners).
struct CharSetup {
    std::vector<dp::DatapathModule> modules;
    std::vector<std::vector<HeldOut>> held_out; ///< [module][data type × stream]
};

CharSetup make_setup(bool corners)
{
    std::vector<gate::TechLibrary> libraries;
    if (corners) {
        const std::vector<gate::Corner> all = sweep_corners();
        for (const std::size_t k : kErrorCorners) {
            libraries.push_back(gate::TechLibrary::generic350().at(all[k]));
        }
    } else {
        libraries.push_back(gate::TechLibrary::generic350());
    }
    CharSetup setup;
    for (const ModuleSpec& spec : kModules) {
        setup.modules.push_back(dp::make_module(spec.type, spec.widths));
    }
    for (const dp::DatapathModule& module : setup.modules) {
        core::CharacterizationOptions options;
        options.mode = core::StimulusMode::StratifiedPairs;
        const core::ShardRunner compile{module, options}; // compiles the netlist
        std::vector<HeldOut>& held = setup.held_out.emplace_back();
        for (const streams::DataType type : streams::all_data_types()) {
            for (std::size_t k = 0; k < kEvaluationStreams; ++k) {
                HeldOut h;
                h.patterns = core::make_module_stream(
                    module, type, kEvaluationLength,
                    derive_seed(kEvaluationSeed, static_cast<std::uint64_t>(type) * 16 + k));
                h.trace = streams::PackedTrace::from_patterns(h.patterns);
                for (const gate::TechLibrary& library : libraries) {
                    sim::PowerSimulator reference{module.netlist(), library};
                    h.reference_fc.push_back(reference.run(h.patterns).mean_charge_fc());
                }
                held.push_back(std::move(h));
            }
        }
    }
    return setup;
}

/// Run the setup kSetupRepeats times; report the median, keep the last.
CharSetup timed_setup(bool corners, double& setup_s)
{
    std::vector<double> times;
    CharSetup setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto start = Clock::now();
        setup = make_setup(corners);
        times.push_back(seconds_since(start));
    }
    setup_s = median(times);
    return setup;
}

/// Mean |estimate − reference| / reference, in percent, over every module,
/// evaluation library and evaluation stream; models[i][j] is module i's
/// model for library j.
template <typename Model>
double model_error_pct(const std::vector<std::vector<const Model*>>& models,
                       const CharSetup& setup)
{
    core::EstimationEngine engine;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        for (std::size_t j = 0; j < models[i].size(); ++j) {
            for (const HeldOut& h : setup.held_out[i]) {
                const double ref = h.reference_fc[j];
                if (ref > 0.0) {
                    sum += std::abs(engine.estimate(*models[i][j], h.trace) - ref) / ref;
                    ++n;
                }
            }
        }
    }
    return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

bool same_records(const std::vector<core::CharacterizationRecord>& a,
                  const std::vector<core::CharacterizationRecord>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const core::CharacterizationRecord& x,
                         const core::CharacterizationRecord& y) {
                          return x.hd == y.hd && x.stable_zeros == y.stable_zeros &&
                                 std::bit_cast<std::uint64_t>(x.charge_fc) ==
                                     std::bit_cast<std::uint64_t>(y.charge_fc) &&
                                 x.toggle_mask == y.toggle_mask;
                      });
}

template <typename Model>
std::string model_bytes(const Model& model)
{
    std::ostringstream os;
    model.save(os);
    return os.str();
}

/// Threads of the event workload. A journal publish waits on the disk,
/// whose speed on a shared host changes by a factor of two for minutes at
/// a time; on more threads the journal becomes half of a pass, and wall_s
/// follows the disk instead of the code. On one thread the event kernel
/// carries most of the pass.
constexpr unsigned kEventThreads = 1;

/// The library-path options of the event workload: defaults (convergence,
/// budget, batch) plus the plan seed, kEventThreads and a journal published
/// after every merged shard.
core::CharacterizationOptions event_options(std::uint64_t seed, const fs::path& journal)
{
    core::CharacterizationOptions options;
    options.seed = derive_seed(seed, kPlanSeed);
    options.threads = kEventThreads;
    options.checkpoint = journal;
    options.checkpoint_every = 1;
    options.strict_faults = false;
    run_full_budget(options);
    return options;
}

fs::path journal_path(const fs::path& dir, const ModuleSpec& spec)
{
    std::string name = dp::module_type_id(spec.type);
    for (const int w : spec.widths) {
        name += '_' + std::to_string(w);
    }
    return dir / (name + ".journal");
}

bool journal_retired(const fs::path& journal)
{
    return !fs::exists(journal) && !fs::exists(journal.string() + ".tmp");
}

// ---------------------------------------------------------------------------
// char_event_journal
// ---------------------------------------------------------------------------

struct EventPass {
    double wall_s = 0.0;
    std::vector<core::EnhancedHdModel> models;
    std::vector<std::pair<std::string, std::string>> files;
    core::CharRunStats totals; ///< counters summed over the modules
    std::size_t shard_failures = 0;
    bool journals_retired = true;
};

/// One untraced pass: both modules through ModelLibrary into a fresh
/// directory.
EventPass event_library_pass(const RunConfig& config, const fs::path& dir)
{
    fs::remove_all(dir);
    EventPass pass;
    const auto start = Clock::now();
    const core::ModelLibrary library{dir};
    std::vector<core::CharRunStats> stats(kModules.size());
    for (std::size_t i = 0; i < kModules.size(); ++i) {
        core::CharacterizationOptions options =
            event_options(config.seed, journal_path(dir, kModules[i]));
        options.stats = &stats[i];
        pass.models.push_back(library.get_or_characterize_enhanced(
            kModules[i].type, kModules[i].widths, kZeroClusters, options));
    }
    pass.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < kModules.size(); ++i) {
        const core::CharRunStats& s = stats[i];
        pass.totals.sim_events += s.sim_events;
        pass.totals.sim_transitions += s.sim_transitions;
        pass.totals.collect_wall_ms += s.collect_wall_ms;
        pass.totals.warmup_batches += s.warmup_batches;
        pass.totals.records += s.records;
        pass.totals.shards += s.shards;
        pass.totals.checkpoints_published += s.checkpoints_published;
        pass.shard_failures += s.shard_failures.size();
        pass.journals_retired =
            pass.journals_retired && journal_retired(journal_path(dir, kModules[i]));
    }
    pass.files = dir_files(dir);
    return pass;
}

/// Counters of one traced, composed pass.
struct ComposedCounts {
    std::size_t shards_run = 0;
    std::size_t shards_merged = 0;
    std::size_t records = 0;
    std::size_t publishes = 0;
    std::uint64_t journal_bytes = 0;
    double pool_wait_ms = 0.0;
    std::size_t shard_failures = 0;
};

/// One module through the composed pipeline; returns its merged records.
std::vector<core::CharacterizationRecord> composed_module(
    const RunConfig& config, const ModuleSpec& spec, const core::ModelLibrary& library,
    const fs::path& journal, const util::ThreadPool& pool, Tracer& tracer,
    std::uint32_t parent, std::uint64_t op, ComposedCounts& counts)
{
    // The library path fingerprints the options as given (mode unset); the
    // characterizer then fills in StratifiedPairs, which the shard plan and
    // the journal stamp see.
    const core::CharacterizationOptions library_options =
        event_options(config.seed, journal);
    core::CharacterizationOptions plan = library_options;
    plan.mode = core::StimulusMode::StratifiedPairs;

    std::optional<dp::DatapathModule> module;
    {
        const ScopedSpan span{tracer, "dpgen.make_module", parent, op};
        module.emplace(dp::make_module(spec.type, spec.widths));
    }
    std::optional<core::ShardRunner> runner;
    {
        const ScopedSpan span{tracer, "sim.compile", parent, op};
        runner.emplace(*module, plan);
    }
    const int m = runner->input_bits();
    core::ShardMerger merger{m, plan};
    core::CharCheckpoint checkpoint;
    checkpoint.fingerprint = runner->fingerprint();
    checkpoint.module_key = runner->module_key();
    checkpoint.input_bits = m;

    const std::size_t shards = runner->num_shards();
    for (std::size_t wave_start = 0; wave_start < shards && !merger.converged();
         wave_start += pool.size()) {
        const std::size_t wave = std::min<std::size_t>(pool.size(), shards - wave_start);
        const ScopedSpan wave_span{tracer, "char.wave", parent, op};
        std::vector<double> finished(wave, 0.0);
        std::vector<char> failed(wave, 0);
        auto blocks = pool.parallel_map(wave, [&](std::size_t i) {
            const ScopedSpan span{tracer, "char.shard_run", wave_span.id(), op};
            std::vector<core::CharacterizationRecord> block;
            try {
                block = runner->run(wave_start + i);
            } catch (const std::exception&) {
                failed[i] = 1;
            }
            finished[i] = now_us();
            return block;
        });
        const double wave_end = now_us();
        counts.shards_run += wave;
        for (std::size_t i = 0; i < wave; ++i) {
            counts.pool_wait_ms += (wave_end - finished[i]) / 1000.0;
            counts.shard_failures += failed[i] != 0 ? 1 : 0;
        }
        for (std::size_t i = 0; i < wave && !merger.converged(); ++i) {
            {
                const ScopedSpan span{tracer, "char.merge", wave_span.id(), op};
                merger.merge(blocks[i]);
            }
            checkpoint.shards.push_back(core::CheckpointShard{wave_start + i, std::move(blocks[i])});
            if (!merger.converged()) {
                const ScopedSpan span{tracer, "journal.publish", wave_span.id(), op};
                core::save_checkpoint(journal, checkpoint);
                ++counts.publishes;
                counts.journal_bytes += fs::file_size(journal);
            }
        }
    }
    counts.shards_merged += merger.shards_merged();
    std::vector<core::CharacterizationRecord> records = merger.take_records();
    counts.records += records.size();
    {
        const ScopedSpan span{tracer, "journal.retire", parent, op};
        fs::remove(journal);
    }
    std::optional<core::EnhancedHdModel> model;
    {
        const ScopedSpan span{tracer, "fit.enhanced", parent, op};
        model.emplace(core::fit_enhanced_model(m, kZeroClusters, records));
    }
    {
        const ScopedSpan span{tracer, "library.store", parent, op};
        library.store_enhanced(spec.type, spec.widths, kZeroClusters, library_options, *model);
    }
    return records;
}

void event_untraced(const RunConfig& config, Outcome& out)
{
    double setup_s = 0.0;
    const CharSetup setup = timed_setup(false, setup_s);

    // One untimed pass first, so caches and the allocator are warm.
    (void)event_library_pass(config, "event_pass");
    std::vector<EventPass> passes;
    const auto start = Clock::now();
    while (static_cast<int>(passes.size()) < kMinPasses ||
           (seconds_since(start) < config.seconds &&
            static_cast<int>(passes.size()) < kMaxPasses)) {
        passes.push_back(event_library_pass(config, "event_pass"));
        EventPass& pass = passes.back();
        out.count(pass.totals.shards + pass.shard_failures, pass.shard_failures);
        out.check(pass.shard_failures == 0, "a shard failed");
        out.check(pass.journals_retired, "a journal survived a clean finish");
        out.check(pass.totals.checkpoints_published > 0, "no journal was published");
        out.check(pass.files == passes.front().files,
                  "model files differ between repetitions");
        if (passes.size() > 1) {
            pass.files.clear();
            pass.models.clear();
        }
    }
    fs::remove_all("event_pass");

    std::vector<double> walls;
    for (const EventPass& pass : passes) {
        walls.push_back(pass.wall_s);
    }
    const TailSummary lat = summarize_tail(walls);

    std::vector<std::vector<const core::EnhancedHdModel*>> models;
    for (const core::EnhancedHdModel& model : passes.front().models) {
        models.push_back({&model});
    }

    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", median(walls), "s");
    out.metric("qps_at_slo", static_cast<double>(kModules.size()) / median(walls), "req/s");
    out.metric("lat_p50_us", lat.p50 * 1e6, "us");
    out.metric("lat_p99_us", lat.tail * 1e6, "us");
    // Every pass measures the same records (the floor is the budget).
    out.metric("mcycles_per_s",
               static_cast<double>(passes.front().totals.records) / median(walls) / 1e6,
               "Mcycles/s");
    out.metric("model_err_pct", model_error_pct(models, setup), "%");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("fail_frac", fail_fraction(out.failed(), out.attempted()), "ratio");
    std::ostringstream note;
    note << "passes=" << passes.size() << " records/pass=" << passes.front().totals.records
         << " shards/pass=" << passes.front().totals.shards << " pass latency tail at p"
         << lat.tail_pct
         << " of " << lat.samples << " samples"
         << (lat.tail_supported ? "" : " (fewer than 20: maximum)") << "\npass walls (s):";
    for (const double w : walls) {
        note << ' ' << w;
    }
    out.note(note.str());
}

void event_traced(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    double setup_s = 0.0;
    const CharSetup setup = timed_setup(false, setup_s);

    // Reference records: the untraced collector under the library path's
    // effective plan.
    std::vector<std::vector<core::CharacterizationRecord>> reference;
    fs::remove_all("event_ref");
    fs::create_directories("event_ref");
    for (std::size_t i = 0; i < kModules.size(); ++i) {
        core::CharacterizationOptions plan =
            event_options(config.seed, journal_path("event_ref", kModules[i]));
        plan.mode = core::StimulusMode::StratifiedPairs;
        const core::Characterizer characterizer;
        reference.push_back(characterizer.collect_records(setup.modules[i], plan));
    }
    fs::remove_all("event_ref");

    const util::ThreadPool pool{kEventThreads};
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    ComposedCounts counts;
    core::CharRunStats totals;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (traced_walls.size() < 2 ||
           (seconds_since(start) < config.seconds && traced_walls.size() < 10)) {
        const EventPass untraced = event_library_pass(config, "event_untraced");
        untraced_walls.push_back(untraced.wall_s);
        totals = untraced.totals;
        out.count(untraced.totals.shards + untraced.shard_failures, untraced.shard_failures);
        out.check(untraced.shard_failures == 0, "a shard failed (untraced pass)");

        fs::remove_all("event_traced");
        const core::ModelLibrary library{"event_traced"};
        ++op;
        const auto traced_start = Clock::now();
        std::vector<std::vector<core::CharacterizationRecord>> records;
        {
            const ScopedSpan pass_span{tracer, "char.pass", 0, op};
            for (std::size_t i = 0; i < kModules.size(); ++i) {
                const ScopedSpan module_span{tracer, "char.module", pass_span.id(), op};
                records.push_back(composed_module(config, kModules[i], library,
                                                  journal_path("event_traced", kModules[i]),
                                                  pool, tracer, module_span.id(), op, counts));
            }
        }
        traced_walls.push_back(seconds_since(traced_start));
        for (std::size_t i = 0; i < kModules.size(); ++i) {
            out.check(same_records(records[i], reference[i]),
                      "traced records differ from the untraced collector");
            out.check(journal_retired(journal_path("event_traced", kModules[i])),
                      "traced journal survived");
        }
        out.check(dir_files("event_traced") == untraced.files,
                  "traced model files differ from the untraced library pass");
    }
    out.count(counts.shards_run, counts.shard_failures);
    out.check(counts.shard_failures == 0, "a shard failed (traced pass)");
    fs::remove_all("event_untraced");
    fs::remove_all("event_traced");

    const std::vector<Span> spans = tracer.spans();
    const double passes = static_cast<double>(traced_walls.size());
    const auto per_pass = [&](double v) { return v / passes; };
    const std::vector<double> publish_us = durations_us(spans, "journal.publish");
    const TailSummary shard = summarize_tail(durations_us(spans, "char.shard_run"));

    out.metric("journal.publish_ms", per_pass(total_ms(spans, "journal.publish")), "ms");
    out.metric("journal.publish_p50_ms", median(publish_us) / 1000.0, "ms");
    out.metric("journal.publishes", per_pass(static_cast<double>(counts.publishes)), "count");
    out.metric("journal.bytes_written", per_pass(static_cast<double>(counts.journal_bytes)),
               "bytes");
    out.metric("sim.compile_ms", per_pass(total_ms(spans, "sim.compile")), "ms");
    out.metric("sim.events", static_cast<double>(totals.sim_events), "count");
    out.metric("sim.events_per_s",
               static_cast<double>(totals.sim_events) / (totals.collect_wall_ms / 1000.0), "1/s");
    out.metric("sim.transitions", static_cast<double>(totals.sim_transitions), "count");
    out.metric("sim.warmup_batches", static_cast<double>(totals.warmup_batches), "count");
    out.metric("char.shard_run_ms", per_pass(total_ms(spans, "char.shard_run")), "ms");
    out.metric("char.shard_run_p50_ms", shard.p50 / 1000.0, "ms");
    out.metric("char.shard_run_tail_ms", shard.tail / 1000.0, "ms");
    out.metric("char.pool_wait_ms", per_pass(counts.pool_wait_ms), "ms");
    out.metric("char.merge_ms", per_pass(total_ms(spans, "char.merge")), "ms");
    out.metric("char.shards_run", per_pass(static_cast<double>(counts.shards_run)), "count");
    out.metric("char.shards_merged", per_pass(static_cast<double>(counts.shards_merged)),
               "count");
    out.metric("char.useful_shard_ratio",
               static_cast<double>(counts.shards_merged) /
                   static_cast<double>(std::max<std::size_t>(counts.shards_run, 1)),
               "ratio");
    out.metric("char.records", per_pass(static_cast<double>(counts.records)), "count");
    out.metric("fit.ms", per_pass(total_ms(spans, "fit.enhanced")), "ms");
    out.metric("library.store_ms", per_pass(total_ms(spans, "library.store")), "ms");
    out.metric("dpgen.make_module_ms", per_pass(total_ms(spans, "dpgen.make_module")), "ms");
    out.metric("trace.overhead_pct",
               100.0 * (median(traced_walls) - median(untraced_walls)) / median(untraced_walls),
               "%");
    std::ostringstream note;
    note << "traced passes=" << traced_walls.size() << " shard_run tail at p"
         << shard.tail_pct << " of " << shard.samples << " shards; setup_s=" << setup_s;
    out.note(note.str());
}

// ---------------------------------------------------------------------------
// char_emul_corners
// ---------------------------------------------------------------------------

core::CharacterizationOptions sweep_options(const RunConfig& config)
{
    core::CharacterizationOptions options;
    options.seed = derive_seed(config.seed, kPlanSeed);
    options.threads = config.threads;
    options.backend = core::CharBackend::PowerEmulation;
    options.corners = sweep_corners();
    options.strict_faults = false;
    run_full_budget(options);
    return options;
}

struct SweepPass {
    double wall_s = 0.0;
    std::vector<std::vector<core::HdModel>> models; ///< [module][corner]
    std::vector<std::string> bytes;                 ///< serialized models and surfaces
    core::CharRunStats totals;
    std::size_t shard_failures = 0;
};

/// The surface interpolated at every fitted corner, serialized, so a
/// repetition's surface can be compared byte for byte.
std::string surface_bytes(const core::CornerSurfaceModel& surface)
{
    std::string bytes;
    for (const gate::Corner& corner : sweep_corners()) {
        bytes += model_bytes(surface.model_at(corner.vdd_v, corner.temp_c));
    }
    return bytes;
}

SweepPass sweep_pass(const RunConfig& config, const std::vector<dp::DatapathModule>& modules)
{
    SweepPass pass;
    const std::vector<gate::Corner> corners = sweep_corners();
    const core::Characterizer characterizer;
    std::vector<core::CharRunStats> stats(modules.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < modules.size(); ++i) {
        core::CharacterizationOptions options = sweep_options(config);
        options.stats = &stats[i];
        pass.models.push_back(characterizer.characterize_corners(modules[i], options));
        const core::CornerSurfaceModel surface =
            core::CornerSurfaceModel::fit(corners, pass.models.back());
        pass.bytes.push_back(surface_bytes(surface));
    }
    pass.wall_s = seconds_since(start);
    for (std::size_t i = 0; i < modules.size(); ++i) {
        for (const core::HdModel& model : pass.models[i]) {
            pass.bytes.push_back(model_bytes(model));
        }
        const core::CharRunStats& s = stats[i];
        pass.totals.records += s.records;
        pass.totals.shards += s.shards;
        pass.totals.emulation_passes += s.emulation_passes;
        pass.totals.calibration_pairs += s.calibration_pairs;
        pass.totals.corner_calibration_pairs += s.corner_calibration_pairs;
        pass.totals.checkpoints_published += s.checkpoints_published;
        pass.shard_failures += s.shard_failures.size();
    }
    return pass;
}

void corners_untraced(const RunConfig& config, Outcome& out)
{
    double setup_s = 0.0;
    const CharSetup setup = timed_setup(true, setup_s);

    // One untimed pass first, so caches and the allocator are warm.
    (void)sweep_pass(config, setup.modules);
    std::vector<SweepPass> passes;
    const auto start = Clock::now();
    while (static_cast<int>(passes.size()) < kMinPasses ||
           (seconds_since(start) < config.seconds &&
            static_cast<int>(passes.size()) < kMaxPasses)) {
        passes.push_back(sweep_pass(config, setup.modules));
        SweepPass& pass = passes.back();
        out.count(pass.totals.shards + pass.shard_failures, pass.shard_failures);
        out.check(pass.shard_failures == 0, "a shard failed");
        out.check(pass.totals.checkpoints_published == 0, "the sweep wrote a journal");
        out.check(pass.bytes == passes.front().bytes,
                  "fitted models differ between repetitions");
        if (passes.size() > 1) {
            pass.models.clear();
            pass.bytes.clear();
        }
    }

    std::vector<double> walls;
    for (const SweepPass& pass : passes) {
        walls.push_back(pass.wall_s);
    }
    const TailSummary lat = summarize_tail(walls);

    std::vector<std::vector<const core::HdModel*>> models(kModules.size());
    for (std::size_t i = 0; i < kModules.size(); ++i) {
        for (const std::size_t k : kErrorCorners) {
            models[i].push_back(&passes.front().models[i][k]);
        }
    }

    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", median(walls), "s");
    out.metric("qps_at_slo", static_cast<double>(kModules.size()) / median(walls), "req/s");
    out.metric("lat_p50_us", lat.p50 * 1e6, "us");
    out.metric("lat_p99_us", lat.tail * 1e6, "us");
    // Every pass measures the same records (the floor is the budget).
    out.metric("mcycles_per_s",
               static_cast<double>(passes.front().totals.records) / median(walls) / 1e6,
               "Mcycles/s");
    out.metric("model_err_pct", model_error_pct(models, setup), "%");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("fail_frac", fail_fraction(out.failed(), out.attempted()), "ratio");
    std::ostringstream note;
    note << "passes=" << passes.size() << " records/pass=" << passes.front().totals.records
         << " shards/pass=" << passes.front().totals.shards << " pass latency tail at p"
         << lat.tail_pct
         << " of " << lat.samples << " samples"
         << (lat.tail_supported ? "" : " (fewer than 20: maximum)") << "\npass walls (s):";
    for (const double w : walls) {
        note << ' ' << w;
    }
    out.note(note.str());
}

void corners_traced(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    double setup_s = 0.0;
    const CharSetup setup = timed_setup(true, setup_s);
    const std::vector<gate::Corner> corners = sweep_corners();
    const core::Characterizer characterizer;

    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    core::CharRunStats totals;
    std::size_t shards_run = 0;
    std::size_t records_total = 0;
    const auto start = Clock::now();
    std::uint64_t op = 0;
    while (traced_walls.size() < 2 ||
           (seconds_since(start) < config.seconds && traced_walls.size() < 20)) {
        const SweepPass untraced = sweep_pass(config, setup.modules);
        untraced_walls.push_back(untraced.wall_s);
        totals = untraced.totals;
        shards_run = untraced.totals.shards + untraced.shard_failures;
        out.count(shards_run, untraced.shard_failures);
        out.check(untraced.shard_failures == 0, "a shard failed (untraced pass)");

        ++op;
        std::vector<std::string> model_text;
        std::vector<std::string> surface_text;
        const auto traced_start = Clock::now();
        {
            const ScopedSpan pass_span{tracer, "char.pass", 0, op};
            for (std::size_t i = 0; i < kModules.size(); ++i) {
                const ScopedSpan module_span{tracer, "char.module", pass_span.id(), op};
                std::optional<dp::DatapathModule> module;
                {
                    const ScopedSpan span{tracer, "dpgen.make_module", module_span.id(), op};
                    module.emplace(dp::make_module(kModules[i].type, kModules[i].widths));
                }
                std::vector<std::vector<core::CharacterizationRecord>> records;
                {
                    const ScopedSpan span{tracer, "char.sweep", module_span.id(), op};
                    records = characterizer.collect_records_corners(*module,
                                                                    sweep_options(config));
                }
                std::vector<core::HdModel> models;
                {
                    const ScopedSpan span{tracer, "fit.basic", module_span.id(), op};
                    for (const auto& corner_records : records) {
                        records_total += corner_records.size();
                        models.push_back(
                            core::fit_basic_model(module->total_input_bits(), corner_records));
                    }
                }
                {
                    const ScopedSpan span{tracer, "fit.corner_surface", module_span.id(), op};
                    surface_text.push_back(
                        surface_bytes(core::CornerSurfaceModel::fit(corners, models)));
                }
                for (const core::HdModel& model : models) {
                    model_text.push_back(model_bytes(model));
                }
            }
        }
        traced_walls.push_back(seconds_since(traced_start));
        surface_text.insert(surface_text.end(), model_text.begin(), model_text.end());
        out.check(surface_text == untraced.bytes,
                  "traced models differ from the untraced sweep");

        // The per-corner calibration probe: a single-corner ShardRunner at
        // each corner performs the glitch calibration the sweep runs there.
        for (std::size_t i = 0; i < kModules.size(); ++i) {
            for (const gate::Corner& corner : corners) {
                core::CharacterizationOptions single = sweep_options(config);
                single.corners.clear();
                single.corner = corner;
                const ScopedSpan span{tracer, "char.calibrate", 0, op};
                const core::ShardRunner runner{setup.modules[i], single};
            }
            core::CharacterizationOptions nominal;
            nominal.seed = derive_seed(config.seed, kPlanSeed);
            const ScopedSpan span{tracer, "sim.compile", 0, op};
            const core::ShardRunner compile{setup.modules[i], nominal};
        }
    }

    const std::vector<Span> spans = tracer.spans();
    const double passes = static_cast<double>(traced_walls.size());
    const auto per_pass = [&](double v) { return v / passes; };
    out.metric("sim.compile_ms", per_pass(total_ms(spans, "sim.compile")), "ms");
    out.metric("sim.emulation_passes", static_cast<double>(totals.emulation_passes), "count");
    out.metric("char.calibrate_ms", per_pass(total_ms(spans, "char.calibrate")), "ms");
    out.metric("char.calibration_pairs", static_cast<double>(totals.calibration_pairs), "count");
    out.metric("char.corner_calibration_pairs",
               static_cast<double>(totals.corner_calibration_pairs), "count");
    out.metric("char.sweep_ms", per_pass(total_ms(spans, "char.sweep")), "ms");
    out.metric("char.records", per_pass(static_cast<double>(records_total)), "count");
    // The sweep stops no run early (its floor is the budget), so every shard
    // run is merged unless it failed.
    out.metric("char.shards_run", static_cast<double>(shards_run), "count");
    out.metric("char.shards_merged", static_cast<double>(totals.shards), "count");
    out.metric("char.useful_shard_ratio",
               static_cast<double>(totals.shards) /
                   static_cast<double>(std::max<std::size_t>(shards_run, 1)),
               "ratio");
    out.metric("fit.ms", per_pass(total_ms(spans, "fit.basic")), "ms");
    out.metric("fit.corner_surface_ms", per_pass(total_ms(spans, "fit.corner_surface")), "ms");
    out.metric("dpgen.make_module_ms", per_pass(total_ms(spans, "dpgen.make_module")), "ms");
    out.metric("trace.overhead_pct",
               100.0 * (median(traced_walls) - median(untraced_walls)) / median(untraced_walls),
               "%");
    std::ostringstream note;
    note << "traced passes=" << traced_walls.size() << "; setup_s=" << setup_s;
    out.note(note.str());
}

} // namespace

void run_char_event_journal(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    if (config.trace) {
        event_traced(config, tracer, out);
    } else {
        event_untraced(config, out);
    }
}

void run_char_emul_corners(const RunConfig& config, Tracer& tracer, Outcome& out)
{
    if (config.trace) {
        corners_traced(config, tracer, out);
    } else {
        corners_untraced(config, out);
    }
}

} // namespace hdbench
