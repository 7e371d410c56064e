// Multi-corner characterization sweeps: one stimulus pass scoring every
// requested operating corner. The contract under test: on both backends,
// each corner's record block is BIT-IDENTICAL to the independent
// single-corner run, for any thread count and across checkpoint resume.
//
//  - power-emulation: the sweep reuses the settled toggle streams, which
//    are corner-invariant, and accumulates each corner's own calibrated
//    weights; each load class runs one glitch calibration whose event
//    charges every corner of the class replays under its own charges;
//  - event-kernel: the corners of one load class simulate the same timing,
//    so each shard is simulated once per load class and every corner's
//    charge is replayed from the cycle's toggle log — the same additions
//    in the same order as its independent simulation.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/corner_model.hpp"
#include "core/enhanced_model.hpp"
#include "gatelib/techlib.hpp"

namespace hdpm::core {
namespace {

using dp::DatapathModule;
using dp::ModuleType;

const std::vector<gate::Corner> kCorners = {
    {3.3, 25.0, gate::LoadClass::Nominal},
    {2.5, 85.0, gate::LoadClass::Nominal},
    {3.0, 50.0, gate::LoadClass::Heavy},
};
/// Distinct load classes in kCorners: one timing group each.
constexpr std::size_t kLoadClasses = 2;

/// The shared stimulus plan: 8 shards of 150, convergence disabled.
CharacterizationOptions sweep_options(CharBackend backend, unsigned threads)
{
    CharacterizationOptions options;
    options.max_transitions = 1200;
    options.min_transitions = 1200;
    options.batch = 1200;
    options.shard_size = 150;
    options.seed = 23;
    options.mode = StimulusMode::StratifiedPairs;
    options.backend = backend;
    options.calibration_pairs = 256;
    options.threads = threads;
    return options;
}

/// Independent single-corner run under the same plan.
std::vector<CharacterizationRecord> collect_single(
    const DatapathModule& module, CharBackend backend, const gate::Corner& corner,
    std::size_t calibration_pairs = 256,
    StimulusMode mode = StimulusMode::StratifiedPairs)
{
    const Characterizer characterizer;
    CharacterizationOptions options = sweep_options(backend, 1);
    options.calibration_pairs = calibration_pairs;
    options.corner = corner;
    options.mode = mode;
    return characterizer.collect_records(module, options);
}

void expect_identical_records(const std::vector<CharacterizationRecord>& a,
                              const std::vector<CharacterizationRecord>& b,
                              const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].hd, b[i].hd) << label << " record " << i;
        ASSERT_EQ(a[i].stable_zeros, b[i].stable_zeros) << label << " record " << i;
        ASSERT_EQ(a[i].toggle_mask, b[i].toggle_mask) << label << " record " << i;
        ASSERT_EQ(a[i].charge_fc, b[i].charge_fc) << label << " record " << i;
    }
}

struct AbortRun {};

TEST(CornerSweep, EmulationSweepIsBitIdenticalToIndependentRunsAcrossThreads)
{
    // The sweep calibrates every load class on one (load class x
    // calibration shard) task grid. Two calibration layouts: 256 pairs span
    // two shards of 150 per class (a 4-cell grid), 150 pairs fit one shard
    // per class (the default layout, a 2-cell grid). 3 and 4 threads leave
    // the grid unevenly split, so cells of different classes run side by
    // side.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const std::size_t calibration_pairs : {std::size_t{256}, std::size_t{150}}) {
        std::vector<std::vector<CharacterizationRecord>> independent;
        for (const gate::Corner& corner : kCorners) {
            independent.push_back(collect_single(module, CharBackend::PowerEmulation,
                                                 corner, calibration_pairs));
        }
        for (const unsigned threads : {1U, 3U, 4U}) {
            CharacterizationOptions options =
                sweep_options(CharBackend::PowerEmulation, threads);
            options.calibration_pairs = calibration_pairs;
            options.corners = kCorners;
            CharRunStats stats;
            options.stats = &stats;
            const auto sweep = characterizer.collect_records_corners(module, options);
            ASSERT_EQ(sweep.size(), kCorners.size());
            EXPECT_EQ(stats.corners, kCorners.size());
            // One event-kernel calibration per load class, not per corner.
            EXPECT_EQ(stats.calibration_pairs, calibration_pairs * kLoadClasses);
            EXPECT_GT(stats.calibrate_ms, 0.0);
            for (std::size_t k = 0; k < kCorners.size(); ++k) {
                expect_identical_records(independent[k], sweep[k],
                                         "emulation corner " + std::to_string(k) + " @" +
                                             std::to_string(threads) + "t, " +
                                             std::to_string(calibration_pairs) +
                                             " calibration pairs");
            }
        }
    }
}

TEST(CornerSweep, EventSweepIsBitIdenticalToIndependentRuns)
{
    // Every corner — not only corner 0 — is exact: each record equals the
    // independent single-corner event run's bit for bit, including the
    // heavy-load corner, which the sweep simulates in its own timing group.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const StimulusMode mode : {StimulusMode::StratifiedPairs,
                                    StimulusMode::StratifiedChain}) {
        const std::string label =
            mode == StimulusMode::StratifiedPairs ? "pairs" : "chain";
        std::vector<std::vector<CharacterizationRecord>> independent;
        for (const gate::Corner& corner : kCorners) {
            independent.push_back(
                collect_single(module, CharBackend::EventKernel, corner, 256, mode));
        }
        for (const unsigned threads : {1U, 4U}) {
            CharacterizationOptions options =
                sweep_options(CharBackend::EventKernel, threads);
            options.corners = kCorners;
            options.mode = mode;
            CharRunStats stats;
            options.stats = &stats;
            const auto sweep = characterizer.collect_records_corners(module, options);
            ASSERT_EQ(sweep.size(), kCorners.size());
            EXPECT_EQ(stats.corner_calibration_pairs, 0U);
            EXPECT_EQ(stats.calibration_pairs, 0U);
            for (std::size_t k = 0; k < kCorners.size(); ++k) {
                expect_identical_records(independent[k], sweep[k],
                                         "event corner " + std::to_string(k) + " @" +
                                             std::to_string(threads) + "t, " + label);
            }
        }
    }
}

TEST(CornerSweep, EventSweepIsBitIdenticalAcrossThreadCounts)
{
    // The replay path must be a pure function of the plan: any thread count
    // produces the same bytes for every corner.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    CharacterizationOptions baseline_options =
        sweep_options(CharBackend::EventKernel, 1);
    baseline_options.corners = kCorners;
    const auto baseline =
        characterizer.collect_records_corners(module, baseline_options);
    for (const unsigned threads : {2U, 3U, 4U}) {
        CharacterizationOptions options =
            sweep_options(CharBackend::EventKernel, threads);
        options.corners = kCorners;
        const auto sweep = characterizer.collect_records_corners(module, options);
        ASSERT_EQ(sweep.size(), baseline.size());
        for (std::size_t k = 0; k < baseline.size(); ++k) {
            expect_identical_records(baseline[k], sweep[k],
                                     "event corner " + std::to_string(k) + " @" +
                                         std::to_string(threads) + "t");
        }
    }
}

TEST(CornerSweep, InterruptedSweepResumesBitIdenticallyPerCorner)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const CharBackend backend :
         {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
        const std::string label =
            backend == CharBackend::EventKernel ? "event" : "emulation";
        CharacterizationOptions options = sweep_options(backend, 1);
        options.corners = kCorners;
        const auto baseline = characterizer.collect_records_corners(module, options);

        const std::filesystem::path journal =
            std::filesystem::path{::testing::TempDir()} /
            ("corner_resume_" + label + ".journal");
        // Kill the run after 3 merged shards: each corner's ".c<k>" journal
        // holds the shards published before the abort.
        CharacterizationOptions interrupted = sweep_options(backend, 4);
        interrupted.corners = kCorners;
        interrupted.checkpoint = journal;
        interrupted.progress = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        EXPECT_THROW(
            (void)characterizer.collect_records_corners(module, interrupted),
            AbortRun);
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            EXPECT_TRUE(std::filesystem::exists(
                journal.string() + ".c" + std::to_string(k)))
                << label << " corner " << k;
        }

        CharacterizationOptions resume = sweep_options(backend, 1);
        resume.corners = kCorners;
        resume.checkpoint = journal;
        CharRunStats stats;
        resume.stats = &stats;
        const auto resumed = characterizer.collect_records_corners(module, resume);
        EXPECT_GT(stats.shards_resumed, 0U) << label;
        ASSERT_EQ(resumed.size(), baseline.size()) << label;
        for (std::size_t k = 0; k < baseline.size(); ++k) {
            expect_identical_records(baseline[k], resumed[k],
                                     label + " resume corner " +
                                         std::to_string(k));
        }
        // A completed sweep retires every per-corner journal.
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            EXPECT_FALSE(std::filesystem::exists(
                journal.string() + ".c" + std::to_string(k)))
                << label << " corner " << k;
        }
    }
}

/// Every CharRunStats counter of a single-corner run equals the one-corner
/// sweep's, except the wall times and `corners` (0 against 1).
void expect_same_run_stats(const CharRunStats& single, const CharRunStats& sweep,
                           const std::string& label)
{
    EXPECT_EQ(single.corners, 0U) << label;
    EXPECT_EQ(sweep.corners, 1U) << label;
    EXPECT_EQ(single.sim_transitions, sweep.sim_transitions) << label;
    EXPECT_EQ(single.sim_events, sweep.sim_events) << label;
    EXPECT_EQ(single.max_queue_depth, sweep.max_queue_depth) << label;
    EXPECT_EQ(single.records, sweep.records) << label;
    EXPECT_EQ(single.shards, sweep.shards) << label;
    EXPECT_EQ(single.threads, sweep.threads) << label;
    EXPECT_EQ(single.warmup_vectors, sweep.warmup_vectors) << label;
    EXPECT_EQ(single.warmup_batches, sweep.warmup_batches) << label;
    EXPECT_EQ(single.backend, sweep.backend) << label;
    EXPECT_EQ(single.emulated_pairs, sweep.emulated_pairs) << label;
    EXPECT_EQ(single.emulation_passes, sweep.emulation_passes) << label;
    EXPECT_EQ(single.calibration_pairs, sweep.calibration_pairs) << label;
    EXPECT_EQ(single.calibration_scale, sweep.calibration_scale) << label;
    EXPECT_EQ(single.corner_calibration_pairs, sweep.corner_calibration_pairs) << label;
    EXPECT_EQ(single.shard_failures.size(), sweep.shard_failures.size()) << label;
    EXPECT_EQ(single.shards_resumed, sweep.shards_resumed) << label;
    EXPECT_EQ(single.checkpoints_published, sweep.checkpoints_published) << label;
    EXPECT_EQ(single.checkpoint_discarded, sweep.checkpoint_discarded) << label;
    EXPECT_EQ(single.checkpoint_salvaged, sweep.checkpoint_salvaged) << label;
}

TEST(CornerSweep, SingleCornerRunIsTheOneCornerSweep)
{
    // collect_records at options.corner = c and collect_records_corners
    // over {c} are one executor with one entry: same records, same stats.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const std::filesystem::path dir{::testing::TempDir()};
    for (const CharBackend backend :
         {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            const std::string label = std::string{char_backend_name(backend)} +
                                      " corner " + std::to_string(k);
            CharacterizationOptions single = sweep_options(backend, 4);
            single.corner = kCorners[k];
            single.checkpoint = dir / "k1_single.journal";
            CharRunStats single_stats;
            single.stats = &single_stats;
            const auto records = characterizer.collect_records(module, single);

            CharacterizationOptions sweep = sweep_options(backend, 4);
            sweep.corners = {kCorners[k]};
            sweep.checkpoint = dir / "k1_sweep.journal";
            CharRunStats sweep_stats;
            sweep.stats = &sweep_stats;
            const auto blocks = characterizer.collect_records_corners(module, sweep);

            ASSERT_EQ(blocks.size(), 1U) << label;
            expect_identical_records(records, blocks[0], label);
            expect_same_run_stats(single_stats, sweep_stats, label);
        }
    }
}

TEST(CornerSweep, SingleCornerAndOneCornerSweepResumeEachOthersJournal)
{
    // Corner k of a sweep journals at <checkpoint>.c<k> under the
    // single-corner fingerprint, so a journal renamed between the two
    // names resumes the other entry point bit-identically.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const gate::Corner corner = kCorners[1];
    for (const CharBackend backend :
         {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
        const std::string label = char_backend_name(backend);
        CharacterizationOptions single = sweep_options(backend, 1);
        single.corner = corner;
        CharacterizationOptions sweep = sweep_options(backend, 1);
        sweep.corners = {corner};
        const auto baseline = characterizer.collect_records(module, single);

        const std::filesystem::path journal =
            std::filesystem::path{::testing::TempDir()} / ("k1_resume_" + label + ".journal");
        const std::filesystem::path corner_journal = journal.string() + ".c0";
        single.checkpoint = journal;
        sweep.checkpoint = journal;
        const auto abort_after_three = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        CharRunStats stats;

        // Single-corner journal -> one-corner sweep.
        CharacterizationOptions interrupted = single;
        interrupted.threads = 4;
        interrupted.progress = abort_after_three;
        EXPECT_THROW((void)characterizer.collect_records(module, interrupted), AbortRun);
        std::filesystem::rename(journal, corner_journal);
        sweep.stats = &stats;
        const auto swept = characterizer.collect_records_corners(module, sweep);
        EXPECT_EQ(stats.shards_resumed, 2U) << label;
        EXPECT_FALSE(stats.checkpoint_discarded) << label;
        ASSERT_EQ(swept.size(), 1U) << label;
        expect_identical_records(baseline, swept[0], label + " single -> sweep");
        EXPECT_FALSE(std::filesystem::exists(corner_journal)) << label;

        // One-corner sweep journal -> single-corner run.
        interrupted = sweep;
        interrupted.threads = 4;
        interrupted.stats = nullptr;
        interrupted.progress = abort_after_three;
        EXPECT_THROW((void)characterizer.collect_records_corners(module, interrupted),
                     AbortRun);
        std::filesystem::rename(corner_journal, journal);
        stats = {};
        single.stats = &stats;
        const auto resumed = characterizer.collect_records(module, single);
        EXPECT_EQ(stats.shards_resumed, 2U) << label;
        EXPECT_FALSE(stats.checkpoint_discarded) << label;
        expect_identical_records(baseline, resumed, label + " sweep -> single");
        EXPECT_FALSE(std::filesystem::exists(journal)) << label;
    }
}

TEST(CornerSweep, FittedModelsTrackThePhysicsAcrossCorners)
{
    // Energy scales ~(V/V0)²: the 2.5 V / 85 °C corner's coefficients must
    // come out well below the 3.3 V ones, and a heavy wire load above
    // nominal at equal supply. The surface model must reproduce its own
    // training corners and interpolate between them.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = sweep_options(CharBackend::PowerEmulation, 1);
    options.corners = kCorners;
    const std::vector<HdModel> models =
        characterizer.characterize_corners(module, options);
    ASSERT_EQ(models.size(), kCorners.size());

    const int m = module.total_input_bits();
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_LT(models[1].coefficient(hd), models[0].coefficient(hd))
            << "2.5 V not below 3.3 V at Hd " << hd;
    }

    // Surface fit over the two nominal-load corners (uniform load class).
    const std::vector<gate::Corner> nominal{kCorners[0], kCorners[1]};
    const std::vector<HdModel> nominal_models{models[0], models[1]};
    const CornerSurfaceModel surface =
        CornerSurfaceModel::fit(nominal, nominal_models);
    EXPECT_EQ(surface.corners_fitted(), 2U);
    const HdModel at_training = surface.model_at(2.5, 85.0);
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_NEAR(at_training.coefficient(hd), models[1].coefficient(hd),
                    0.05 * models[1].coefficient(hd) + 1e-9)
            << "surface off its own training corner at Hd " << hd;
    }
    const HdModel mid = surface.model_at(2.9, 55.0);
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_GT(mid.coefficient(hd), 0.9 * models[1].coefficient(hd)) << hd;
        EXPECT_LT(mid.coefficient(hd), 1.1 * models[0].coefficient(hd)) << hd;
    }

    // Mixed load classes are not an interpolatable axis.
    EXPECT_THROW((void)CornerSurfaceModel::fit(kCorners, models),
                 util::PreconditionError);
}

} // namespace
} // namespace hdpm::core
