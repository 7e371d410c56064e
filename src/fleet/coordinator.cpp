#include "fleet/coordinator.hpp"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hdpm::fleet {

using util::FaultContext;
using util::FaultError;
using util::FaultKind;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(const Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

} // namespace

FleetCoordinator::FleetCoordinator(FleetOptions options,
                                   const gate::TechLibrary& library,
                                   sim::EventSimOptions sim_options)
    : options_(std::move(options)), library_(&library), sim_options_(sim_options)
{
}

FleetStats FleetCoordinator::run()
{
    const auto t0 = Clock::now();
    HDPM_REQUIRE(!options_.fleet_dir.empty(), "fleet coordinator needs a fleet_dir");
    HDPM_REQUIRE(!options_.models_dir.empty(), "fleet coordinator needs a models_dir");
    HDPM_REQUIRE(options_.lease_shards > 0, "lease_shards must be >= 1");
    HDPM_REQUIRE(options_.lease_ttl_ms > 0, "lease_ttl_ms must be positive");

    std::error_code ec;
    std::filesystem::create_directories(options_.fleet_dir, ec);
    if (ec) {
        HDPM_FAIL("cannot create fleet directory '", options_.fleet_dir.string(),
                  "': ", ec.message());
    }

    const core::CharacterizationOptions effective =
        resolve_plan_options(options_.char_options, options_.enhanced);
    const dp::DatapathModule module =
        dp::make_module(options_.module_type, options_.widths);

    FleetPlan plan;
    plan.fingerprint = core::characterization_fingerprint(effective, sim_options_, *library_);
    plan.module_key = core::module_journal_key(module);
    plan.input_bits = module.total_input_bits();
    plan.shard_size =
        effective.shard_size != 0 ? effective.shard_size : effective.batch;
    HDPM_REQUIRE(plan.shard_size > 0, "plan shard size must be positive");
    plan.num_shards =
        (effective.max_transitions + plan.shard_size - 1) / plan.shard_size;
    HDPM_REQUIRE(plan.num_shards > 0, "plan has no shards (max_transitions == 0?)");
    plan.lease_shards = options_.lease_shards;
    plan.enhanced = options_.enhanced;
    plan.zero_clusters = options_.zero_clusters;
    write_plan(options_.fleet_dir, plan);

    FleetStats stats;
    stats.num_shards = plan.num_shards;
    stats.num_ranges = num_ranges(plan);

    // --- Supervise: validate done journals as they land, police leases. ---
    std::map<std::size_t, core::CharCheckpoint> done;
    auto last_activity = Clock::now();
    while (done.size() < stats.num_ranges) {
        bool activity = false;
        for (std::size_t start = 0; start < plan.num_shards;
             start += plan.lease_shards) {
            if (done.count(start) != 0) {
                continue;
            }
            const std::filesystem::path done_path =
                options_.fleet_dir / done_name(start);
            std::error_code exists_ec;
            if (std::filesystem::exists(done_path, exists_ec)) {
                // A done journal is published whole (tmp + rename + link),
                // so any parse damage is corruption, not a torn race.
                try {
                    auto loaded = core::load_checkpoint(done_path, start);
                    if (!loaded) {
                        continue; // vanished between exists() and open
                    }
                    if (loaded->fingerprint != plan.fingerprint ||
                        loaded->module_key != plan.module_key ||
                        loaded->input_bits != plan.input_bits ||
                        loaded->shards.size() != range_count(plan, start)) {
                        // Foreign or short journal squatting on our name:
                        // evidence aside, range re-opened.
                        quarantine_file(done_path);
                        ++stats.done_corrupt;
                        continue;
                    }
                    done.emplace(start, std::move(*loaded));
                    ++stats.ranges_done;
                    activity = true;
                } catch (const FaultError& error) {
                    if (error.kind() != FaultKind::CheckpointCorrupt) {
                        throw;
                    }
                    quarantine_file(done_path);
                    ++stats.done_corrupt;
                }
                continue;
            }

            // No result yet: police the range's lease.
            const std::filesystem::path lease_path =
                options_.fleet_dir / lease_name(start);
            const std::optional<double> age = file_age_ms(lease_path);
            if (!age) {
                continue; // open range — waiting for a worker to claim it
            }
            double effective_age = *age;
            if (effective_age < 0) {
                // Future-dated heartbeat: a worker whose clock jumped.
                // Small skew is clamped to "fresh"; skew beyond the TTL is
                // not a fresh worker but a broken clock, so the lease is
                // expired rather than trusted forever.
                ++stats.skewed_heartbeats;
                effective_age = (-effective_age > options_.lease_ttl_ms)
                                    ? options_.lease_ttl_ms + 1.0
                                    : 0.0;
            }
            if (effective_age <= options_.lease_ttl_ms) {
                activity = true; // a live worker is heartbeating this range
                continue;
            }
            // Stale: the holder is dead (SIGKILL) or wedged. Read the
            // carcass for diagnostics, then free the name so another
            // worker can re-claim the range.
            LeaseInfo info;
            switch (read_lease(lease_path, info)) {
            case LeaseRead::Corrupt:
                if (quarantine_file(lease_path)) {
                    ++stats.leases_corrupt;
                    ++stats.workers_lost;
                    activity = true;
                }
                break;
            case LeaseRead::Ok: {
                std::error_code remove_ec;
                if (std::filesystem::remove(lease_path, remove_ec)) {
                    ++stats.leases_expired;
                    ++stats.workers_lost;
                    activity = true;
                }
                break;
            }
            case LeaseRead::Missing:
                break; // holder released or a sibling sweep won the race
            }
        }

        if (activity) {
            last_activity = Clock::now();
        } else if (elapsed_ms(last_activity) > options_.idle_timeout_ms) {
            FaultContext context;
            context.component = options_.fleet_dir.string();
            context.bitwidth = plan.input_bits;
            context.detail = "fleet made no progress for " +
                             std::to_string(options_.idle_timeout_ms) +
                             " ms with " +
                             std::to_string(stats.num_ranges - done.size()) +
                             " of " + std::to_string(stats.num_ranges) +
                             " ranges outstanding — all workers lost?";
            throw FaultError{FaultKind::WorkerLost, std::move(context)};
        }
        if (done.size() < stats.num_ranges) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(options_.poll_ms));
        }
    }

    // --- Merge in plan order: the exact single-process convergence loop. ---
    core::ShardMerger merger{plan.input_bits, effective};
    for (std::size_t start = 0;
         start < plan.num_shards && !merger.converged();
         start += plan.lease_shards) {
        for (const core::CheckpointShard& shard : done.at(start).shards) {
            if (!merger.merge(shard.records)) {
                break;
            }
        }
    }
    stats.converged_early = merger.converged();
    stats.shards_merged = merger.shards_merged();
    const std::vector<core::CharacterizationRecord> records = merger.take_records();
    stats.records = records.size();

    // --- Fit and publish under the library's own atomic discipline. Note
    // the fit and the store fingerprint use the *caller's* options (mode
    // possibly unset), exactly as ModelLibrary::get_or_characterize would,
    // so the stored file is byte-identical to a single-process run. ---
    const core::ModelLibrary library{options_.models_dir, *library_, sim_options_};
    if (options_.enhanced) {
        library.store_enhanced(
            options_.module_type, options_.widths, options_.zero_clusters,
            options_.char_options,
            core::fit_enhanced_model(plan.input_bits, options_.zero_clusters, records));
    } else {
        library.store_basic(options_.module_type, options_.widths,
                            options_.char_options,
                            core::fit_basic_model(plan.input_bits, records));
    }

    stats.wall_ms = elapsed_ms(t0);
    return stats;
}

} // namespace hdpm::fleet
