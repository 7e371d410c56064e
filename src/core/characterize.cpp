#include "core/characterize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "sim/batched.hpp"
#include "sim/sim_context.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/linalg.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdpm::core {

using util::BitVec;
using util::Rng;

namespace {

/// A uniformly random mask of exactly @p bits set bits out of @p m
/// (partial Fisher–Yates over bit positions).
BitVec random_mask(int m, int bits, Rng& rng, std::vector<int>& scratch)
{
    scratch.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        scratch[static_cast<std::size_t>(i)] = i;
    }
    BitVec mask{m};
    for (int i = 0; i < bits; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(m - 1)));
        std::swap(scratch[static_cast<std::size_t>(i)], scratch[j]);
        mask.set(scratch[static_cast<std::size_t>(i)], true);
    }
    return mask;
}

BitVec random_vector(int m, Rng& rng)
{
    return BitVec{m, rng.next_u64()};
}

/// Zero-cluster geometry shared by fitting and the EnhancedHdModel itself.
int clusters_for(int m, int hd, int zero_clusters)
{
    const int levels = m - hd + 1;
    return zero_clusters == 0 ? levels : std::min(zero_clusters, levels);
}

int cluster_index(int m, int hd, int zeros, int zero_clusters)
{
    const int levels = m - hd + 1;
    const int clusters = clusters_for(m, hd, zero_clusters);
    if (clusters == levels) {
        return zeros;
    }
    return std::min(clusters - 1, zeros * clusters / levels);
}

/// Convergence monitor over per-class running means.
class ConvergenceMonitor {
public:
    explicit ConvergenceMonitor(std::size_t num_classes)
        : sum_(num_classes, 0.0), count_(num_classes, 0), snapshot_(num_classes, 0.0)
    {
    }

    void add(std::size_t cls, double q)
    {
        sum_[cls] += q;
        ++count_[cls];
    }

    /// Max relative drift of populated class means since the last call;
    /// takes a new snapshot.
    double drift_and_snapshot()
    {
        double max_drift = 0.0;
        for (std::size_t i = 0; i < sum_.size(); ++i) {
            if (count_[i] == 0) {
                continue;
            }
            const double mean = sum_[i] / static_cast<double>(count_[i]);
            if (snapshot_[i] > 0.0) {
                max_drift = std::max(max_drift,
                                     std::abs(mean - snapshot_[i]) / snapshot_[i]);
            } else {
                max_drift = 1.0; // newly populated class: not converged yet
            }
            snapshot_[i] = mean;
        }
        return max_drift;
    }

private:
    std::vector<double> sum_;
    std::vector<std::size_t> count_;
    std::vector<double> snapshot_;
};

} // namespace

const char* char_backend_name(CharBackend backend) noexcept
{
    return backend == CharBackend::PowerEmulation ? "power-emulation" : "event-kernel";
}

Characterizer::Characterizer(const gate::TechLibrary& library,
                             sim::EventSimOptions sim_options)
    : library_(&library), sim_options_(sim_options)
{
}

namespace {

/// One shard's deterministic stimulus stream, factored out of the shard
/// runners so the event kernel, the power-emulation backend, and the
/// glitch-calibration pass all draw *identical* (u, v) sequences for a
/// given (seed, shard): same Rng seeding, same consumption order, same
/// stratification cycles.
class StimulusStream {
public:
    StimulusStream(int m, StimulusMode mode, std::uint64_t seed, std::uint64_t shard)
        : m_(m), mode_(mode), rng_(seed ^ util::splitmix64(shard))
    {
        hd_cycle_.resize(static_cast<std::size_t>(m));
        for (int i = 0; i < m; ++i) {
            hd_cycle_[static_cast<std::size_t>(i)] = i + 1;
        }
        rng_.shuffle(hd_cycle_);
        if (mode == StimulusMode::StratifiedPairs) {
            for (int hd = 1; hd <= m; ++hd) {
                for (int z = 0; z <= m - hd; ++z) {
                    class_cycle_.emplace_back(hd, z);
                }
            }
            rng_.shuffle(class_cycle_);
        }
        current_ = random_vector(m, rng_);
        stable_.reserve(static_cast<std::size_t>(m));
    }

    /// Chain modes: the current chain head (the start vector before the
    /// first chain_next() call).
    [[nodiscard]] const BitVec& current() const noexcept { return current_; }

    /// Pairs mode: generate the next stratified (u, v) pair — u with the
    /// prescribed stable-zero layout, v = u ^ mask — and return its
    /// (hd, stable-zeros) class.
    std::pair<int, int> next_pair(BitVec& u, BitVec& v)
    {
        const std::pair<int, int> cls = class_cycle_[class_cursor_];
        class_cursor_ = (class_cursor_ + 1) % class_cycle_.size();
        const auto [hd, zeros] = cls;
        const BitVec mask = random_mask(m_, hd, rng_, scratch_);
        u = BitVec{m_};
        // Positions outside the mask: exactly `zeros` of them are 0.
        stable_.clear();
        for (int i = 0; i < m_; ++i) {
            if (!mask.get(i)) {
                stable_.push_back(i);
            }
        }
        rng_.shuffle(stable_);
        for (std::size_t s = 0; s < stable_.size(); ++s) {
            u.set(stable_[s], s >= static_cast<std::size_t>(zeros));
        }
        for (int i = 0; i < m_; ++i) {
            if (mask.get(i)) {
                u.set(i, rng_.bernoulli(0.5));
            }
        }
        v = u ^ mask;
        return cls;
    }

    /// Chain modes: advance the chain by one vector and return it (the
    /// previous head is current() before the call). The head advances even
    /// when the step has Hd = 0 — callers skip such steps, exactly as the
    /// original chain loop did.
    BitVec chain_next()
    {
        BitVec next{m_};
        if (mode_ == StimulusMode::RandomChain) {
            next = random_vector(m_, rng_);
        } else {
            const int hd = hd_cycle_[hd_cursor_];
            hd_cursor_ = (hd_cursor_ + 1) % hd_cycle_.size();
            if (hd_cursor_ == 0) {
                rng_.shuffle(hd_cycle_);
            }
            next = current_ ^ random_mask(m_, hd, rng_, scratch_);
        }
        current_ = next;
        return next;
    }

private:
    int m_;
    StimulusMode mode_;
    Rng rng_;
    std::vector<int> scratch_; // random_mask position pool
    std::vector<int> stable_;  // stable-position pool, reused per pair
    std::vector<int> hd_cycle_;
    std::size_t hd_cursor_ = 0;
    std::vector<std::pair<int, int>> class_cycle_; // (hd, zeros), pairs mode
    std::size_t class_cursor_ = 0;
    BitVec current_;
};

/// One shard of a sweep over one or more corners: K index-aligned record
/// blocks plus the shard's work counters.
struct ShardResult {
    std::vector<std::vector<CharacterizationRecord>> blocks; // per corner
    std::uint64_t sim_transitions = 0; ///< net toggles (event: incl. glitches)
    std::uint64_t warmup_vectors = 0;  ///< pairs-mode warm-up vectors settled
    std::uint64_t warmup_batches = 0;  ///< 64-lane batched settle passes
    std::uint64_t emulation_passes = 0; ///< 64-lane zero-delay settle passes
    sim::KernelStats kernel;           ///< scheduler counters, summed over simulators
};

/// The indices of @p contexts grouped by simulated timing, each group in
/// index order and the groups in order of their first member. Members of a
/// group pass SimContext::same_timing, so under one EventSimOptions (one
/// inertial window) they run the same event trajectory for every stimulus:
/// the operating corners of one load class form one group.
std::vector<std::vector<std::size_t>> timing_groups(
    std::span<const sim::SimContext* const> contexts)
{
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t k = 0; k < contexts.size(); ++k) {
        const auto group = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
            return contexts[g.front()]->same_timing(*contexts[k]);
        });
        if (group == groups.end()) {
            groups.push_back({k});
        } else {
            group->push_back(k);
        }
    }
    return groups;
}

/// The ShardException fault point every shard runner opens with.
void throw_if_shard_fault(std::size_t shard)
{
    if (HDPM_FAULT_FIRE(util::FaultPoint::ShardException)) {
        util::FaultContext fault_context;
        fault_context.shard = static_cast<std::int64_t>(shard);
        fault_context.detail = "injected shard failure";
        throw util::FaultError{util::FaultKind::ShardFailed, std::move(fault_context)};
    }
}

/// Event-kernel shard over the corners in @p contexts: exactly @p count
/// transitions of shard @p shard, simulated once per timing group at the
/// group's first context. That corner's block takes apply()'s charges; the
/// group's other corners replay the cycle's toggle log under their own
/// edge charges (EventSimulator::replay_charge), the same additions in the
/// same order — so every corner's block is bit-identical to an independent
/// single-corner run at that corner.
///
/// Each group's pass is a self-contained stimulus stream: its own Rng
/// (seeded seed^splitmix64(shard) so shard streams are decorrelated), its
/// own stratification cycles, its own start vector, and its own
/// EventSimulator over the shared immutable context. Nothing here depends
/// on which thread runs the shard or on how many shards run concurrently —
/// that is the whole determinism argument.
ShardResult run_shard_event_multi(std::span<const sim::SimContext* const> contexts,
                                       std::span<const std::vector<std::size_t>> groups,
                                       int m, StimulusMode mode,
                                       const CharacterizationOptions& options,
                                       const sim::EventSimOptions& sim_options,
                                       std::size_t shard, std::size_t count,
                                       const std::function<void()>& tick = {})
{
    throw_if_shard_fault(shard);

    ShardResult out;
    out.blocks.resize(contexts.size());
    for (auto& block : out.blocks) {
        block.reserve(count);
    }

    for (const std::vector<std::size_t>& group : groups) {
        const sim::SimContext& context = *contexts[group.front()];
        std::vector<CharacterizationRecord>& lead = out.blocks[group.front()];
        StimulusStream stimulus{m, mode, options.seed, shard};
        sim::EventSimulator simulator{context, sim_options};
        simulator.set_toggle_log(group.size() > 1);

        const auto push_records = [&](int hd, int zeros, std::uint64_t mask,
                                      const sim::CycleResult& cycle) {
            CharacterizationRecord rec;
            rec.hd = hd;
            rec.stable_zeros = zeros;
            rec.charge_fc = cycle.charge_fc;
            rec.toggle_mask = mask;
            lead.push_back(rec);
            for (std::size_t j = 1; j < group.size(); ++j) {
                rec.charge_fc =
                    simulator.replay_charge(contexts[group[j]]->edge_charges_fc());
                out.blocks[group[j]].push_back(rec);
            }
            out.sim_transitions += cycle.transitions;
        };

        if (mode == StimulusMode::StratifiedPairs) {
            // Stimulus is generated in blocks of up to kLanes (u, v) pairs
            // into flat reusable arenas, then all warm-up vectors of a block
            // settle in one word-parallel BatchedEvaluator pass (borrowing
            // the shard's compiled view) and each lane is scattered into the
            // event simulator via load_state before the timed apply. RNG
            // consumption order is identical to per-record generation, and
            // the zero-delay fixpoint of u is unique, so records are
            // bit-identical to the WarmupMode::PerRecord baseline. The loop
            // body performs no heap allocation in steady state
            // (tests/steady_alloc_test.cpp).
            constexpr std::size_t kLanes =
                static_cast<std::size_t>(sim::BatchedEvaluator::kLanes);
            const bool batched = options.warmup == WarmupMode::Batched;
            std::optional<sim::BatchedEvaluator> evaluator;
            std::vector<std::uint8_t> lane_values;
            if (batched) {
                evaluator.emplace(context);
                lane_values.resize(context.netlist().num_nets());
            }
            std::array<BitVec, kLanes> u_block;
            std::array<BitVec, kLanes> v_block;
            std::array<std::pair<int, int>, kLanes> cls_block; // (hd, zeros)

            while (lead.size() < count) {
                if (tick) {
                    tick(); // mid-shard heartbeat hook, once per 64-pair batch
                }
                const std::size_t block = std::min<std::size_t>(kLanes, count - lead.size());
                for (std::size_t j = 0; j < block; ++j) {
                    cls_block[j] = stimulus.next_pair(u_block[j], v_block[j]);
                }
                if (batched) {
                    evaluator->settle({u_block.data(), block});
                    ++out.warmup_batches;
                }
                out.warmup_vectors += block;
                for (std::size_t j = 0; j < block; ++j) {
                    if (batched) {
                        evaluator->export_lane(static_cast<int>(j), lane_values);
                        simulator.load_state(u_block[j], lane_values);
                    } else {
                        simulator.initialize(u_block[j]);
                    }
                    const sim::CycleResult cycle = simulator.apply(v_block[j]);
                    push_records(cls_block[j].first, cls_block[j].second,
                                 (u_block[j] ^ v_block[j]).raw(), cycle);
                }
            }
        } else {
            simulator.initialize(stimulus.current());
            while (lead.size() < count) {
                if (tick && lead.size() % 64 == 0) {
                    tick(); // mid-shard heartbeat hook, every 64 chain transitions
                }
                const BitVec previous = stimulus.current();
                const BitVec next = stimulus.chain_next();
                const int hd = BitVec::hamming_distance(previous, next);
                if (hd == 0) {
                    continue; // Hd = 0 transitions carry no class information
                }
                const sim::CycleResult cycle = simulator.apply(next);
                push_records(hd, BitVec::stable_zeros(previous, next),
                             (previous ^ next).raw(), cycle);
            }
        }
        const sim::KernelStats& kernel = simulator.kernel_stats();
        out.kernel.events_processed += kernel.events_processed;
        out.kernel.max_queue_depth =
            std::max(out.kernel.max_queue_depth, kernel.max_queue_depth);
    }
    return out;
}

/// Calibration shard ids live in their own half of the 64-bit shard space,
/// so `seed ^ splitmix64(id)` can never collide with a measurement shard's
/// stimulus stream.
constexpr std::uint64_t kCalibrationShardBase = std::uint64_t{1} << 63;

/// Per-net base charge per toggle under the event kernel's accounting:
/// cell outputs always draw their edge charge, primary inputs only when
/// the physics counts input charge, and nets nothing drives never toggle.
std::vector<double> base_charge_weights(const sim::SimContext& context,
                                        const sim::EventSimOptions& sim_options)
{
    const std::size_t nets = context.netlist().num_nets();
    std::vector<double> weights(nets, 0.0);
    for (netlist::NetId net = 0; net < nets; ++net) {
        if (context.is_cell_output(net)) {
            weights[net] = context.edge_charge_fc(net);
        }
    }
    if (sim_options.count_input_charge) {
        for (const netlist::NetId pi : context.netlist().primary_inputs()) {
            weights[pi] = context.edge_charge_fc(pi);
        }
    }
    return weights;
}

/// One calibration shard of one timing group: the same stimulus stream
/// driven through *both* engines. The toggle counts are shared by every
/// corner of the group; the event charge is per corner.
struct CalibrationShard {
    std::vector<std::uint64_t> event_toggles; ///< per net, timed applies only
    std::vector<std::uint64_t> zero_toggles;  ///< per net, zero-delay settles
    std::vector<double> event_charge_fc;      ///< per group member, summed
    std::uint64_t pairs = 0;                  ///< transitions simulated
};

/// Run calibration shard @p shard_id once at the group's first context and
/// score every member: the first from apply(), the others by replaying the
/// cycle's toggle log under their own edge charges — bit-identical to
/// simulating each member on its own (see run_shard_event_multi).
CalibrationShard run_calibration_shard(std::span<const sim::SimContext* const> members,
                                       int m, StimulusMode mode,
                                       const CharacterizationOptions& options,
                                       const sim::EventSimOptions& sim_options,
                                       std::uint64_t shard_id, std::size_t count)
{
    const sim::SimContext& context = *members.front();
    CalibrationShard out;
    const std::size_t nets = context.netlist().num_nets();
    out.zero_toggles.assign(nets, 0);
    out.event_charge_fc.assign(members.size(), 0.0);

    StimulusStream stimulus{m, mode, options.seed, shard_id};
    sim::EventSimulator simulator{context, sim_options};
    simulator.set_toggle_log(members.size() > 1);
    sim::BatchedEvaluator evaluator{context};
    constexpr std::size_t kLanes =
        static_cast<std::size_t>(sim::BatchedEvaluator::kLanes);

    const auto score = [&](const sim::CycleResult& cycle) {
        out.event_charge_fc[0] += cycle.charge_fc;
        for (std::size_t j = 1; j < members.size(); ++j) {
            out.event_charge_fc[j] +=
                simulator.replay_charge(members[j]->edge_charges_fc());
        }
    };

    if (mode == StimulusMode::StratifiedPairs) {
        std::array<BitVec, kLanes> u_block;
        std::array<BitVec, kLanes> v_block;
        while (out.pairs < count) {
            const std::size_t block = std::min<std::size_t>(kLanes, count - out.pairs);
            for (std::size_t j = 0; j < block; ++j) {
                (void)stimulus.next_pair(u_block[j], v_block[j]);
            }
            evaluator.settle_pairs({u_block.data(), block}, {v_block.data(), block});
            const auto counts = evaluator.toggle_counts_per_net();
            for (std::size_t net = 0; net < nets; ++net) {
                out.zero_toggles[net] += counts[net];
            }
            for (std::size_t j = 0; j < block; ++j) {
                simulator.initialize(u_block[j]);
                score(simulator.apply(v_block[j]));
            }
            out.pairs += block;
        }
    } else {
        std::vector<BitVec> chain;
        chain.reserve(count + 1);
        chain.push_back(stimulus.current());
        while (chain.size() < count + 1) {
            const BitVec previous = chain.back();
            const BitVec next = stimulus.chain_next();
            if (BitVec::hamming_distance(previous, next) == 0) {
                continue;
            }
            chain.push_back(next);
        }
        simulator.initialize(chain.front());
        for (std::size_t i = 1; i < chain.size(); ++i) {
            score(simulator.apply(chain[i]));
        }
        // Zero-delay per-net toggles over the same chain, in overlapping
        // 64-vector windows (count_toggles' boundary contract).
        std::size_t base = 0;
        while (base + 1 < chain.size()) {
            const std::size_t len = std::min<std::size_t>(kLanes, chain.size() - base);
            evaluator.settle({chain.data() + base, len});
            const std::size_t window_pairs = len - 1;
            const std::uint64_t pair_mask =
                window_pairs >= 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << window_pairs) - 1;
            const auto words = evaluator.lane_words();
            for (std::size_t net = 0; net < nets; ++net) {
                out.zero_toggles[net] += static_cast<std::uint64_t>(
                    std::popcount((words[net] ^ (words[net] >> 1)) & pair_mask));
            }
            base += window_pairs;
        }
        out.pairs = chain.size() - 1;
    }

    // The event kernel's per-net toggle totals: initialize()/load_state()
    // settle silently, so the cumulative counters cover exactly the timed
    // applies above.
    const std::vector<std::uint64_t>& cumulative = simulator.cumulative_transitions();
    out.event_toggles.assign(cumulative.begin(), cumulative.end());
    return out;
}

/// The calibration shards of every timing group of a plan, run as one task
/// grid.
struct CalibrationGrid {
    std::size_t shards_per_group = 0;
    std::vector<CalibrationShard> cells; ///< group-major: [g * shards_per_group + i]

    [[nodiscard]] std::span<const CalibrationShard> group(std::size_t g) const
    {
        return std::span{cells}.subspan(g * shards_per_group, shards_per_group);
    }
};

/// Run the calibration of every timing group in @p groups as one (group ×
/// calibration shard) pool.parallel_map. Every group replays the same shard
/// ids (kCalibrationShardBase + i), so every corner sees the same stimulus;
/// a cell depends on nothing but its own (group, shard), so the grid is
/// bit-identical for any thread count and any task order.
CalibrationGrid run_calibration_grid(std::span<const sim::SimContext* const> contexts,
                                     std::span<const std::vector<std::size_t>> groups,
                                     int m, StimulusMode mode,
                                     const CharacterizationOptions& options,
                                     const sim::EventSimOptions& sim_options,
                                     const util::ThreadPool& pool)
{
    std::vector<std::vector<const sim::SimContext*>> members(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const std::size_t k : groups[g]) {
            members[g].push_back(contexts[k]);
        }
    }
    const std::size_t shard_size =
        options.shard_size != 0 ? options.shard_size : options.batch;
    CalibrationGrid grid;
    grid.shards_per_group = (options.calibration_pairs + shard_size - 1) / shard_size;
    grid.cells = pool.parallel_map(
        groups.size() * grid.shards_per_group, [&](std::size_t cell) {
            const std::size_t g = cell / grid.shards_per_group;
            const std::size_t i = cell % grid.shards_per_group;
            const std::size_t planned =
                std::min(shard_size, options.calibration_pairs - i * shard_size);
            return run_calibration_shard(members[g], m, mode, options, sim_options,
                                         kCalibrationShardBase + i, planned);
        });
    return grid;
}

/// The emulation backend's calibrated weight vector for one corner.
struct CalibrationResult {
    std::vector<double> weights; ///< per-net per-toggle charge, corrected
    double scale = 1.0;          ///< fitted residual glitch scale
};

/// Fit the glitch correction of one corner — member @p member of the
/// timing group whose calibration shards @p shards holds: per-cell-output
/// toggle-ratio factors (event toggles / zero-delay toggles — glitches
/// multiply a net's toggle count but never its per-toggle charge) folded
/// into the base weights, then one residual scale fitted with
/// util::least_squares over per-shard (corrected emulated total, event
/// total) rows to absorb charge on nets the zero-delay settles never
/// toggled. Shards merge in shard order.
CalibrationResult fit_glitch_correction(const sim::SimContext& context,
                                        const sim::EventSimOptions& sim_options,
                                        std::span<const CalibrationShard> shards,
                                        std::size_t member)
{
    CalibrationResult out;
    out.weights = base_charge_weights(context, sim_options);

    const std::size_t nets = context.netlist().num_nets();
    std::vector<std::uint64_t> event_toggles(nets, 0);
    std::vector<std::uint64_t> zero_toggles(nets, 0);
    for (const CalibrationShard& shard : shards) {
        for (std::size_t net = 0; net < nets; ++net) {
            event_toggles[net] += shard.event_toggles[net];
            zero_toggles[net] += shard.zero_toggles[net];
        }
    }

    // Per-cell factors on the nets the calibration set exercised. Primary
    // inputs never glitch (their ratio is exactly 1 by construction), and
    // a cell output the zero-delay settles never toggled contributes no
    // emulated charge for a factor to scale — the residual fit below
    // absorbs its glitch-only charge.
    for (netlist::NetId net = 0; net < nets; ++net) {
        if (context.is_cell_output(net) && zero_toggles[net] > 0) {
            out.weights[net] *= static_cast<double>(event_toggles[net]) /
                                static_cast<double>(zero_toggles[net]);
        }
    }

    // Residual scale: least squares through the origin, one row per
    // calibration shard.
    util::Matrix a{shards.size(), 1};
    std::vector<double> b(shards.size(), 0.0);
    double corrected_total = 0.0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        double corrected = 0.0;
        for (std::size_t net = 0; net < nets; ++net) {
            corrected +=
                out.weights[net] * static_cast<double>(shards[s].zero_toggles[net]);
        }
        a.at(s, 0) = corrected;
        b[s] = shards[s].event_charge_fc[member];
        corrected_total += corrected;
    }
    if (corrected_total > 0.0) {
        const std::vector<double> fit = util::least_squares(a, b);
        if (std::isfinite(fit[0]) && fit[0] > 0.0) {
            out.scale = fit[0];
        }
    }
    for (double& w : out.weights) {
        w *= out.scale;
    }
    return out;
}

/// Every corner's glitch calibration, plus the event-kernel transitions it
/// simulated (once per timing group, however many corners share it).
struct EmulationCalibration {
    std::vector<CalibrationResult> corners; ///< index-aligned with the contexts
    std::uint64_t event_pairs = 0;
};

/// Calibrate every corner in @p contexts (timing groups @p groups) on one
/// run_calibration_grid and fit each corner from its timing group's
/// shards. Each corner's fit reads the same toggle counts and the same
/// event charges an independent single-corner run (the K = 1 call)
/// computes, so its weight vector is bit-identical to that run's for any
/// thread count.
EmulationCalibration calibrate_emulation(std::span<const sim::SimContext* const> contexts,
                                         std::span<const std::vector<std::size_t>> groups,
                                         int m, StimulusMode mode,
                                         const CharacterizationOptions& options,
                                         const sim::EventSimOptions& sim_options,
                                         const util::ThreadPool& pool)
{
    EmulationCalibration out;
    out.corners.resize(contexts.size());
    if (options.calibration_pairs == 0) {
        for (std::size_t k = 0; k < contexts.size(); ++k) {
            out.corners[k].weights = base_charge_weights(*contexts[k], sim_options);
        }
        return out;
    }

    const CalibrationGrid grid =
        run_calibration_grid(contexts, groups, m, mode, options, sim_options, pool);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t j = 0; j < groups[g].size(); ++j) {
            const std::size_t k = groups[g][j];
            out.corners[k] =
                fit_glitch_correction(*contexts[k], sim_options, grid.group(g), j);
        }
    }
    for (const CalibrationShard& cell : grid.cells) {
        out.event_pairs += cell.pairs;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Power-emulation shards (docs/corners.md). The amortization argument:
// zero-delay toggle activity is exactly invariant across operating corners,
// so one stimulus sweep can score K corners by dotting shared toggle
// vectors against K per-corner charge tables. (The event kernel's
// counterpart is run_shard_event_multi: its toggle sequence is invariant
// within a timing group.)
// ---------------------------------------------------------------------------

/// Power-emulation shard over the corners calibrated in @p corners: the
/// *exact* stimulus stream run_shard_event_multi draws for the same
/// (seed, shard), settled once word-parallel and scored K times. A corner's
/// pair charges are toggle-weighted sums of its calibrated weights (per-net
/// per-toggle charge with the glitch correction folded in): 64 pairs per
/// settle_pairs call in pairs mode, 63 transitions per settle pass in chain
/// modes. Every corner accumulates exactly as the K = 1 call would, so each
/// block is bit-identical to a single-corner run at that corner. No event
/// simulator is constructed at all — this is the backend's whole speed
/// argument.
///
/// @p tick fires once per 64-pair block in pairs mode, and every 64 chain
/// transitions plus once after chain generation in chain modes.
ShardResult run_shard_emulation_multi(const sim::SimContext& context, int m,
                                      StimulusMode mode,
                                      const CharacterizationOptions& options,
                                      std::span<const CalibrationResult> corners,
                                      std::size_t shard, std::size_t count,
                                      const std::function<void()>& tick = {})
{
    throw_if_shard_fault(shard);

    ShardResult out;
    out.blocks.resize(corners.size());
    for (auto& block : out.blocks) {
        block.reserve(count);
    }
    StimulusStream stimulus{m, mode, options.seed, shard};
    sim::BatchedEvaluator evaluator{context};

    if (mode == StimulusMode::StratifiedPairs) {
        constexpr std::size_t kLanes =
            static_cast<std::size_t>(sim::BatchedEvaluator::kLanes);
        std::array<BitVec, kLanes> u_block;
        std::array<BitVec, kLanes> v_block;
        std::array<std::pair<int, int>, kLanes> cls_block; // (hd, zeros)
        std::vector<std::array<double, kLanes>> charges(corners.size());

        while (out.blocks[0].size() < count) {
            if (tick) {
                tick(); // mid-shard heartbeat hook, once per 64-pair batch
            }
            const std::size_t block =
                std::min<std::size_t>(kLanes, count - out.blocks[0].size());
            for (std::size_t j = 0; j < block; ++j) {
                cls_block[j] = stimulus.next_pair(u_block[j], v_block[j]);
            }
            evaluator.settle_pairs({u_block.data(), block}, {v_block.data(), block});
            out.emulation_passes += 2; // one settle per pair side
            for (std::size_t k = 0; k < corners.size(); ++k) {
                evaluator.weighted_pair_charges(corners[k].weights,
                                                {charges[k].data(), block});
            }
            for (const std::uint8_t toggles : evaluator.toggle_counts_per_net()) {
                out.sim_transitions += toggles;
            }
            for (std::size_t j = 0; j < block; ++j) {
                CharacterizationRecord rec;
                rec.hd = cls_block[j].first;
                rec.stable_zeros = cls_block[j].second;
                rec.toggle_mask = (u_block[j] ^ v_block[j]).raw();
                for (std::size_t k = 0; k < corners.size(); ++k) {
                    rec.charge_fc = charges[k][j];
                    out.blocks[k].push_back(rec);
                }
            }
        }
        return out;
    }

    // Chain modes: materialize the shard's chain with Hd = 0 steps dropped
    // — identical endpoints settle identically, so removing the duplicate
    // vector leaves every kept adjacent pair (and its zero-delay charge)
    // unchanged — then score it with the windowed weighted counter.
    std::vector<BitVec> chain;
    chain.reserve(count + 1);
    std::vector<std::pair<int, int>> cls; // (hd, zeros) per kept transition
    cls.reserve(count);
    chain.push_back(stimulus.current());
    while (cls.size() < count) {
        if (tick && cls.size() % 64 == 0) {
            tick(); // mid-shard heartbeat hook, every 64 chain transitions
        }
        const BitVec previous = chain.back();
        const BitVec next = stimulus.chain_next();
        const int hd = BitVec::hamming_distance(previous, next);
        if (hd == 0) {
            continue;
        }
        cls.emplace_back(hd, BitVec::stable_zeros(previous, next));
        chain.push_back(next);
    }
    if (tick) {
        tick();
    }

    std::vector<std::span<const double>> weight_sets;
    weight_sets.reserve(corners.size());
    for (const CalibrationResult& corner : corners) {
        weight_sets.emplace_back(corner.weights);
    }
    std::vector<std::vector<double>> charges(corners.size());
    std::vector<std::uint64_t> toggles;
    evaluator.count_weighted_toggles_multi(chain, weight_sets, charges, &toggles);
    const std::size_t window_pairs =
        static_cast<std::size_t>(sim::BatchedEvaluator::kLanes) - 1;
    out.emulation_passes += (chain.size() - 2) / window_pairs + 1;
    for (std::size_t i = 0; i < cls.size(); ++i) {
        CharacterizationRecord rec;
        rec.hd = cls[i].first;
        rec.stable_zeros = cls[i].second;
        rec.toggle_mask = (chain[i] ^ chain[i + 1]).raw();
        for (std::size_t k = 0; k < corners.size(); ++k) {
            rec.charge_fc = charges[k][i];
            out.blocks[k].push_back(rec);
        }
        out.sim_transitions += toggles[i];
    }
    return out;
}

/// A characterization plan compiled for K corners — K = 1 for a
/// single-corner run, whose corner may be the library's own. It holds
/// everything a shard needs: one immutable SimContext per corner (shared
/// read-only by every shard's private simulator), the corners' timing
/// groups, the fixed shard geometry and, on the emulation backend, every
/// corner's calibrated weights. collect_records, collect_records_corners
/// and ShardRunner all run their shards through run(), so a shard's record
/// blocks are the same computation whoever schedules it.
struct ShardPlan {
    /// Compile the plan for @p corners (unset = @p library as given). The
    /// emulation calibration runs here, on @p pool: it is a pure function
    /// of the stimulus plan (its shard ids reuse the sharded seed scheme,
    /// offset into their own half of the id space), so every process and
    /// every resumed run recomputes the identical weights.
    ShardPlan(const dp::DatapathModule& module, const gate::TechLibrary& library,
              std::span<const std::optional<gate::Corner>> corners,
              const CharacterizationOptions& plan_options,
              const sim::EventSimOptions& plan_sim_options, const util::ThreadPool& pool)
        : options(plan_options), sim_options(plan_sim_options),
          m(module.total_input_bits()),
          mode(options.mode.value_or(StimulusMode::StratifiedChain)),
          shard_size(options.shard_size != 0 ? options.shard_size : options.batch)
    {
        HDPM_REQUIRE(m >= 1 && m <= BitVec::kMaxWidth, "module input width out of range");
        HDPM_REQUIRE(options.batch >= 1, "batch must be positive");
        // Fixed shard geometry: the stimulus plan depends on (seed,
        // shard_size, max_transitions) only — never on the thread count.
        num_shards = (options.max_transitions + shard_size - 1) / shard_size;

        // SimContext consumes the library during construction, so a derived
        // corner library may die right after.
        for (const std::optional<gate::Corner>& corner : corners) {
            if (corner.has_value()) {
                contexts.push_back(
                    std::make_unique<sim::SimContext>(module.netlist(), library.at(*corner)));
            } else {
                contexts.push_back(std::make_unique<sim::SimContext>(module.netlist(), library));
            }
            context_ptrs.push_back(contexts.back().get());
        }
        // Corners that simulate the same timing (one load class) share one
        // event-kernel pass: the event backend simulates each group once
        // per shard, and the emulation backend calibrates each group once.
        // Either way every corner is scored from its own edge charges,
        // exactly as its independent run would be.
        groups = timing_groups(context_ptrs);

        const auto calibrate_start = std::chrono::steady_clock::now();
        if (options.backend == CharBackend::PowerEmulation) {
            calibration = calibrate_emulation(context_ptrs, groups, m, mode, options,
                                              sim_options, pool);
        }
        calibrate_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - calibrate_start)
                           .count();
    }

    /// Simulate shard @p shard on the plan's backend: one record block per
    /// corner. @p tick is the runners' mid-shard heartbeat hook.
    [[nodiscard]] ShardResult run(std::size_t shard,
                                  const std::function<void()>& tick = {}) const
    {
        const std::size_t planned =
            std::min(shard_size, options.max_transitions - shard * shard_size);
        if (options.backend == CharBackend::PowerEmulation) {
            return run_shard_emulation_multi(*contexts.front(), m, mode, options,
                                             calibration.corners, shard, planned, tick);
        }
        return run_shard_event_multi(context_ptrs, groups, m, mode, options, sim_options,
                                     shard, planned, tick);
    }

    CharacterizationOptions options;
    sim::EventSimOptions sim_options;
    int m;
    StimulusMode mode;
    std::size_t shard_size;
    std::size_t num_shards = 0;
    std::vector<std::unique_ptr<sim::SimContext>> contexts;
    std::vector<const sim::SimContext*> context_ptrs;
    std::vector<std::vector<std::size_t>> groups;
    EmulationCalibration calibration; ///< empty on the event backend
    double calibrate_ms = 0.0;
};

/// A ShardPlan::run call's outcome: the shard result, or the exception it
/// threw (captured so a failing shard never takes its wave's siblings down
/// with it — the merge loop decides whether to rethrow or degrade).
struct ShardOutcome {
    std::optional<ShardResult> result;
    std::exception_ptr error;
};

/// Set a malformed journal aside as <path>.corrupt (never resume from bad
/// state, never destroy the evidence); fall back to removal if the rename
/// itself fails.
void quarantine_checkpoint(const std::filesystem::path& path)
{
    std::error_code ec;
    std::filesystem::rename(path, path.string() + ".corrupt", ec);
    if (ec) {
        std::filesystem::remove(path, ec);
    }
}

/// A ShardRunner plan's one corner. Sweeps are collected in-process only.
std::vector<std::optional<gate::Corner>> runner_corner(const CharacterizationOptions& options)
{
    HDPM_REQUIRE(options.corners.empty(),
                 "ShardRunner plans are single-corner; sweeps use "
                 "collect_records_corners");
    return {options.corner};
}

} // namespace

// The checkpoint/fleet journal's module identity: type id plus operand
// widths (one whitespace-free token, e.g. "csa_multiplier_16x16"), so a
// journal can never resume against a different instance that shares m.
std::string module_journal_key(const dp::DatapathModule& module)
{
    std::string key = module.netlist().name();
    for (std::size_t i = 0; i < module.operand_widths().size(); ++i) {
        key += i == 0 ? '_' : 'x';
        key += std::to_string(module.operand_widths()[i]);
    }
    return key;
}

// ---------------------------------------------------------------------------
// ShardRunner / ShardMerger — the distribution-facing faces of the sharded
// plan. ShardRunner runs shards through the same ShardPlan the in-process
// thread pool schedules, and ShardMerger is the merge-and-convergence loop
// collect_records itself runs on, so "merge worker-journaled blocks in
// shard order" and "run everything in one process" are the same
// computation by construction.
// ---------------------------------------------------------------------------

struct ShardRunner::Impl {
    Impl(const dp::DatapathModule& module, const CharacterizationOptions& options,
         const gate::TechLibrary& library, const sim::EventSimOptions& sim_options)
        : plan(module, library, runner_corner(options), options, sim_options,
               util::ThreadPool{options.threads}),
          fingerprint(characterization_fingerprint(options, sim_options, library)),
          module_key(module_journal_key(module))
    {
    }

    ShardPlan plan;
    std::uint64_t fingerprint;
    std::string module_key;
};

ShardRunner::ShardRunner(const dp::DatapathModule& module,
                         CharacterizationOptions options,
                         const gate::TechLibrary& library,
                         sim::EventSimOptions sim_options)
    : impl_(std::make_unique<Impl>(module, options, library, sim_options))
{
}

ShardRunner::~ShardRunner() = default;

std::size_t ShardRunner::num_shards() const noexcept
{
    return impl_->plan.num_shards;
}

std::size_t ShardRunner::shard_size() const noexcept
{
    return impl_->plan.shard_size;
}

int ShardRunner::input_bits() const noexcept
{
    return impl_->plan.m;
}

std::uint64_t ShardRunner::fingerprint() const noexcept
{
    return impl_->fingerprint;
}

const std::string& ShardRunner::module_key() const noexcept
{
    return impl_->module_key;
}

std::vector<CharacterizationRecord> ShardRunner::run(std::size_t shard,
                                                     const TickFn& tick) const
{
    HDPM_REQUIRE(shard < impl_->plan.num_shards, "shard index outside the plan");
    return std::move(impl_->plan.run(shard, tick).blocks.front());
}

struct ShardMerger::Impl {
    Impl(int input_bits, const CharacterizationOptions& options)
        : monitor(static_cast<std::size_t>(input_bits)), batch(options.batch),
          min_transitions(options.min_transitions), tolerance(options.tolerance)
    {
        HDPM_REQUIRE(input_bits >= 1, "bad input width");
        HDPM_REQUIRE(batch >= 1, "batch must be positive");
        records.reserve(std::min(options.max_transitions, std::size_t{1} << 20));
    }

    ConvergenceMonitor monitor;
    std::size_t batch;
    std::size_t min_transitions;
    double tolerance;
    std::vector<CharacterizationRecord> records;
    std::size_t since_check = 0;
    std::size_t shards_merged = 0;
    bool stop = false;
};

ShardMerger::ShardMerger(int input_bits, const CharacterizationOptions& options)
    : impl_(std::make_unique<Impl>(input_bits, options))
{
}

ShardMerger::~ShardMerger() = default;

bool ShardMerger::merge(std::span<const CharacterizationRecord> block)
{
    Impl& impl = *impl_;
    if (impl.stop) {
        return false; // converged: later blocks are discarded, never merged
    }
    for (const CharacterizationRecord& rec : block) {
        impl.monitor.add(static_cast<std::size_t>(rec.hd - 1), rec.charge_fc);
        impl.records.push_back(rec);
        if (++impl.since_check >= impl.batch) {
            impl.since_check = 0;
            const double drift = impl.monitor.drift_and_snapshot();
            if (impl.records.size() >= impl.min_transitions &&
                drift < impl.tolerance) {
                impl.stop = true; // stopping mid-block is part of the contract
                break;
            }
        }
    }
    ++impl.shards_merged;
    return !impl.stop;
}

bool ShardMerger::converged() const noexcept
{
    return impl_->stop;
}

std::size_t ShardMerger::shards_merged() const noexcept
{
    return impl_->shards_merged;
}

const std::vector<CharacterizationRecord>& ShardMerger::records() const noexcept
{
    return impl_->records;
}

std::vector<CharacterizationRecord> ShardMerger::take_records()
{
    return std::move(impl_->records);
}

namespace {

/// One record stream of a collect run: the corner it is scored at (unset =
/// the library's own), its checkpoint journal path and the plan
/// fingerprint that journal is stamped with.
struct CornerJournal {
    std::optional<gate::Corner> corner;
    std::filesystem::path path;
    std::uint64_t fingerprint = 0;
};

/// The one collect executor: compile the plan for the corners of
/// @p entries, resume their journals, run the remaining shards in pool
/// waves and merge every corner's block into its own ShardMerger in shard
/// order. collect_records is its K = 1 call, collect_records_corners the
/// K-corner one. Overwrites options.stats with this run's counters;
/// CharRunStats::corners is left 0 for the sweep entry point to set.
std::vector<std::vector<CharacterizationRecord>> collect_plan(
    const dp::DatapathModule& module, const gate::TechLibrary& library,
    const sim::EventSimOptions& sim_options, const CharacterizationOptions& options,
    std::span<const CornerJournal> entries)
{
    HDPM_REQUIRE(options.checkpoint_every >= 1, "checkpoint_every must be positive");
    const auto start = std::chrono::steady_clock::now();
    const std::size_t corners = entries.size();
    std::vector<std::optional<gate::Corner>> plan_corners;
    plan_corners.reserve(corners);
    for (const CornerJournal& entry : entries) {
        plan_corners.push_back(entry.corner);
    }
    const util::ThreadPool pool{options.threads};
    const ShardPlan plan{module, library, plan_corners, options, sim_options, pool};
    const int m = plan.m;
    const std::size_t num_shards = plan.num_shards;
    const bool emulation = options.backend == CharBackend::PowerEmulation;

    // One merger per corner, each running the identical merge-and-convergence
    // loop its independent single-corner run would — so each corner's
    // stopping point (and record stream) matches that run exactly. Basic Hd
    // classes suffice for chain modes; pairs mode monitors (hd, zeros)
    // jointly via basic bins as well (a conservative criterion). A sweep
    // stops simulating only once every corner has converged; blocks merged
    // into an already-converged merger are discarded, exactly as a run
    // discards shards simulated ahead of its stop.
    std::vector<std::unique_ptr<ShardMerger>> mergers;
    mergers.reserve(corners);
    for (std::size_t k = 0; k < corners; ++k) {
        mergers.push_back(std::make_unique<ShardMerger>(m, options));
    }
    const auto all_converged = [&] {
        return std::all_of(mergers.begin(), mergers.end(),
                           [](const auto& merger) { return merger->converged(); });
    };

    // This run's counters, published to options.stats once it completes.
    CharRunStats run;
    run.threads = pool.size();
    run.backend = options.backend;
    run.calibration_pairs = plan.calibration.event_pairs;
    run.calibration_scale = emulation ? plan.calibration.corners.front().scale : 1.0;
    run.calibrate_ms = plan.calibrate_ms;

    // Checkpoint/resume setup. Each journal is stamped with the options
    // fingerprint the model library uses plus the module identity; only a
    // journal from the identical stimulus plan is resumed — anything else
    // is a leftover of some other run and is discarded (corrupt journals
    // are additionally quarantined for inspection). A sweep publishes its K
    // journals in lockstep at the same shard boundaries. A crash between
    // the K file publishes leaves journals of different lengths; resume
    // takes the minimum valid prefix over all corners and re-simulates the
    // rest, so lockstep is self-healing rather than load-bearing.
    const bool checkpointing = !options.checkpoint.empty();
    std::vector<CharCheckpoint> journals(corners);
    std::vector<std::vector<CheckpointShard>> resumed(corners);
    std::size_t resume_len = 0;
    if (checkpointing) {
        resume_len = num_shards; // min over corners below
        for (std::size_t k = 0; k < corners; ++k) {
            const std::filesystem::path& path = entries[k].path;
            journals[k].fingerprint = entries[k].fingerprint;
            journals[k].module_key = module_journal_key(module);
            journals[k].input_bits = m;
            {
                // A .tmp sibling is the debris of a run killed mid-publish.
                std::error_code ec;
                std::filesystem::remove(path.string() + ".tmp", ec);
            }
            const auto matches_plan = [&](const CharCheckpoint& loaded) {
                return loaded.fingerprint == journals[k].fingerprint &&
                       loaded.module_key == journals[k].module_key &&
                       loaded.input_bits == m && loaded.shards.size() <= num_shards;
            };
            try {
                if (auto loaded = load_checkpoint(path)) {
                    if (matches_plan(*loaded)) {
                        resumed[k] = std::move(loaded->shards);
                    } else {
                        run.checkpoint_discarded = true;
                    }
                }
            } catch (const util::FaultError& error) {
                if (error.kind() != util::FaultKind::CheckpointCorrupt) {
                    throw;
                }
                // Tolerant second read: a torn tail (the short write of a
                // killed run) still holds every shard block that published
                // whole. Keep that prefix — it re-merges bit-identically —
                // and set the damaged file aside as evidence; the tail is
                // re-simulated.
                CheckpointSalvage salvage = salvage_checkpoint(path);
                quarantine_checkpoint(path);
                run.checkpoint_discarded = true;
                if (salvage.checkpoint.has_value() &&
                    matches_plan(*salvage.checkpoint) &&
                    !salvage.checkpoint->shards.empty()) {
                    resumed[k] = std::move(salvage.checkpoint->shards);
                    run.checkpoint_salvaged = true;
                }
            }
            resume_len = std::min(resume_len, resumed[k].size());
        }
        for (std::size_t k = 0; k < corners; ++k) {
            resumed[k].resize(resume_len);
        }
    }

    std::exception_ptr first_failure;

    const auto report_progress = [&] {
        if (options.progress) {
            options.progress(CharProgress{run.shards, num_shards,
                                          mergers[0]->records().size(),
                                          options.max_transitions});
        }
    };

    // A propagating shard failure is tagged with its location before any
    // further handling, so strict aborts and captured degradations both
    // point at the exact (module, bitwidth, shard) to replay.
    const auto handle_shard_failure = [&](std::size_t shard,
                                          std::exception_ptr error) {
        if (first_failure == nullptr) {
            first_failure = error;
        }
        try {
            std::rethrow_exception(error);
        } catch (util::FaultError& fault) {
            fault.context().shard = static_cast<std::int64_t>(shard);
            fault.context().bitwidth = m;
            if (fault.context().component.empty()) {
                fault.context().component = module_journal_key(module);
            }
            if (options.strict_faults) {
                throw;
            }
            run.shard_failures.push_back(
                ShardFailure{shard, fault.kind(), fault.what()});
        } catch (const std::exception& e) {
            if (options.strict_faults) {
                throw;
            }
            run.shard_failures.push_back(
                ShardFailure{shard, util::FaultKind::ShardFailed, e.what()});
        }
    };

    // Replay the common journaled prefix through the merge loops (no
    // simulation). Replayed shards pass through the identical ShardMerger
    // path as freshly simulated ones, which is what makes a resumed run
    // reproduce the uninterrupted record stream — the stopping point
    // included — bit for bit.
    for (std::size_t r = 0; r < resume_len && !all_converged(); ++r) {
        for (std::size_t k = 0; k < corners; ++k) {
            mergers[k]->merge(resumed[k][r].records);
            journals[k].shards.push_back(std::move(resumed[k][r]));
        }
        ++run.shards;
        report_progress();
    }
    run.shards_resumed = run.shards;
    std::size_t unpublished = 0;

    // Run the remaining shards in waves of pool.size() and merge each wave
    // in shard order. Convergence is evaluated over the merged stream at
    // batch boundaries, so the stopping point — like every record before it
    // — is a pure function of the stimulus plan.
    for (std::size_t wave_start = resume_len;
         wave_start < num_shards && !all_converged(); wave_start += pool.size()) {
        const std::size_t wave =
            std::min<std::size_t>(pool.size(), num_shards - wave_start);
        auto results = pool.parallel_map(wave, [&](std::size_t i) {
            ShardOutcome outcome;
            try {
                outcome.result = plan.run(wave_start + i);
            } catch (...) {
                outcome.error = std::current_exception();
            }
            return outcome;
        });

        for (std::size_t i = 0; i < results.size() && !all_converged(); ++i) {
            const std::size_t shard = wave_start + i;
            ShardOutcome& outcome = results[i];
            if (outcome.error != nullptr) {
                handle_shard_failure(shard, outcome.error);
                // A failed shard journals as empty blocks, so the journals
                // stay contiguous prefixes (resuming past it reproduces this
                // degraded run's record stream).
                outcome.result.emplace().blocks.resize(corners);
            } else {
                const ShardResult& result = *outcome.result;
                for (std::size_t k = 0; k < corners; ++k) {
                    mergers[k]->merge(result.blocks[k]);
                }
                run.sim_transitions += result.sim_transitions;
                run.sim_events += result.kernel.events_processed;
                run.warmup_vectors += result.warmup_vectors;
                run.warmup_batches += result.warmup_batches;
                run.emulation_passes += result.emulation_passes;
                if (emulation) {
                    run.emulated_pairs += result.blocks[0].size() * corners;
                }
                run.max_queue_depth =
                    std::max(run.max_queue_depth, result.kernel.max_queue_depth);
                ++run.shards;
            }
            if (checkpointing) {
                for (std::size_t k = 0; k < corners; ++k) {
                    journals[k].shards.push_back(
                        CheckpointShard{shard, std::move(outcome.result->blocks[k])});
                }
                ++unpublished;
            }
            report_progress();
            if (checkpointing && !all_converged() &&
                unpublished >= options.checkpoint_every) {
                for (std::size_t k = 0; k < corners; ++k) {
                    save_checkpoint(entries[k].path, journals[k]);
                }
                unpublished = 0;
                ++run.checkpoints_published;
            }
        }
    }

    std::vector<std::vector<CharacterizationRecord>> records;
    records.reserve(corners);
    bool any_records = false;
    for (std::size_t k = 0; k < corners; ++k) {
        records.push_back(mergers[k]->take_records());
        any_records = any_records || !records.back().empty();
    }
    if (!any_records && first_failure != nullptr) {
        // Degraded continuation produced nothing at all — that is not a
        // result, it is the first failure wearing a disguise.
        std::rethrow_exception(first_failure);
    }
    if (checkpointing) {
        // The run is complete; the journals have served their purpose.
        for (const CornerJournal& entry : entries) {
            std::error_code ec;
            std::filesystem::remove(entry.path, ec);
        }
    }

    if (options.stats != nullptr) {
        run.collect_wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        run.events_per_sec =
            run.collect_wall_ms > 0.0
                ? static_cast<double>(run.sim_events) / (run.collect_wall_ms / 1000.0)
                : 0.0;
        run.records = records[0].size();
        *options.stats = std::move(run);
    }
    return records;
}

} // namespace

std::vector<CharacterizationRecord> Characterizer::collect_records(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    HDPM_REQUIRE(options.corners.empty(),
                 "multi-corner sweeps go through collect_records_corners");
    const CornerJournal only{options.corner, options.checkpoint,
                             characterization_fingerprint(options, sim_options_, *library_)};
    return std::move(
        collect_plan(module, *library_, sim_options_, options, {&only, 1}).front());
}

HdModel fit_basic_model(int input_bits, std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1, "bad input width");
    const auto m = static_cast<std::size_t>(input_bits);
    std::vector<double> sum(m, 0.0);
    std::vector<std::size_t> count(m, 0);
    for (const auto& rec : records) {
        HDPM_REQUIRE(rec.hd >= 1 && rec.hd <= input_bits, "record Hd out of range");
        sum[static_cast<std::size_t>(rec.hd - 1)] += rec.charge_fc;
        ++count[static_cast<std::size_t>(rec.hd - 1)];
    }
    std::vector<double> p(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        if (count[i] > 0) {
            p[i] = sum[i] / static_cast<double>(count[i]);
        }
    }
    // Second pass: ε_i = mean |Q - p_i| / p_i (eq. 5).
    std::vector<double> dev(m, 0.0);
    for (const auto& rec : records) {
        const auto i = static_cast<std::size_t>(rec.hd - 1);
        if (p[i] > 0.0) {
            dev[i] += std::abs(rec.charge_fc - p[i]) / p[i];
        }
    }
    for (std::size_t i = 0; i < m; ++i) {
        if (count[i] > 0) {
            dev[i] /= static_cast<double>(count[i]);
        }
    }
    return HdModel{input_bits, std::move(p), std::move(dev), std::move(count)};
}

EnhancedHdModel fit_enhanced_model(int input_bits, int zero_clusters,
                                   std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1, "bad input width");
    HdModel fallback = fit_basic_model(input_bits, records);

    std::vector<std::vector<double>> sum(static_cast<std::size_t>(input_bits));
    std::vector<std::vector<std::size_t>> count(static_cast<std::size_t>(input_bits));
    for (int hd = 1; hd <= input_bits; ++hd) {
        const auto clusters =
            static_cast<std::size_t>(clusters_for(input_bits, hd, zero_clusters));
        sum[static_cast<std::size_t>(hd - 1)].assign(clusters, 0.0);
        count[static_cast<std::size_t>(hd - 1)].assign(clusters, 0);
    }
    for (const auto& rec : records) {
        const auto row = static_cast<std::size_t>(rec.hd - 1);
        const auto c = static_cast<std::size_t>(
            cluster_index(input_bits, rec.hd, rec.stable_zeros, zero_clusters));
        sum[row][c] += rec.charge_fc;
        ++count[row][c];
    }

    std::vector<std::vector<double>> p(sum.size());
    std::vector<std::vector<double>> dev(sum.size());
    for (std::size_t row = 0; row < sum.size(); ++row) {
        p[row].assign(sum[row].size(), 0.0);
        dev[row].assign(sum[row].size(), 0.0);
        for (std::size_t c = 0; c < sum[row].size(); ++c) {
            if (count[row][c] > 0) {
                p[row][c] = sum[row][c] / static_cast<double>(count[row][c]);
            }
        }
    }
    for (const auto& rec : records) {
        const auto row = static_cast<std::size_t>(rec.hd - 1);
        const auto c = static_cast<std::size_t>(
            cluster_index(input_bits, rec.hd, rec.stable_zeros, zero_clusters));
        if (p[row][c] > 0.0) {
            dev[row][c] += std::abs(rec.charge_fc - p[row][c]) / p[row][c];
        }
    }
    for (std::size_t row = 0; row < dev.size(); ++row) {
        for (std::size_t c = 0; c < dev[row].size(); ++c) {
            if (count[row][c] > 0) {
                dev[row][c] /= static_cast<double>(count[row][c]);
            }
        }
    }

    return EnhancedHdModel{input_bits, zero_clusters,    std::move(p),
                           std::move(dev), std::move(count), std::move(fallback)};
}

namespace {

/// Time a fitting call into options.stats->fit_wall_ms (when present).
template <typename Fn>
auto timed_fit(const CharacterizationOptions& options, Fn&& fit)
{
    const auto start = std::chrono::steady_clock::now();
    auto model = fit();
    if (options.stats != nullptr) {
        options.stats->fit_wall_ms = std::chrono::duration<double, std::milli>(
                                         std::chrono::steady_clock::now() - start)
                                         .count();
    }
    return model;
}

} // namespace

HdModel Characterizer::characterize(const dp::DatapathModule& module,
                                    const CharacterizationOptions& options) const
{
    const auto records = collect_records(module, options);
    return timed_fit(options, [&] {
        return fit_basic_model(module.total_input_bits(), records);
    });
}

EnhancedHdModel Characterizer::characterize_enhanced(
    const dp::DatapathModule& module, int zero_clusters,
    CharacterizationOptions options) const
{
    // Default (not override): only an unset mode falls back to
    // StratifiedPairs, the one mode that populates every (i, z) class.
    if (!options.mode.has_value()) {
        options.mode = StimulusMode::StratifiedPairs;
    }
    const auto records = collect_records(module, options);
    return timed_fit(options, [&] {
        return fit_enhanced_model(module.total_input_bits(), zero_clusters, records);
    });
}

std::vector<std::vector<CharacterizationRecord>> Characterizer::collect_records_corners(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    const std::size_t corners = options.corners.size();
    HDPM_REQUIRE(corners >= 1, "corner sweep needs at least one corner");
    HDPM_REQUIRE(!options.corner.has_value(),
                 "options.corner and options.corners are mutually exclusive");

    // Corner k journals at <checkpoint>.c<k> under its own single-corner
    // fingerprint: its record stream is bit-identical to that run's, so
    // either can resume the other's journal.
    std::vector<CornerJournal> entries;
    entries.reserve(corners);
    for (std::size_t k = 0; k < corners; ++k) {
        CharacterizationOptions corner_options = options;
        corner_options.corner = options.corners[k];
        corner_options.corners.clear();
        entries.push_back(CornerJournal{
            options.corners[k], options.checkpoint.string() + ".c" + std::to_string(k),
            characterization_fingerprint(corner_options, sim_options_, *library_)});
    }
    auto records = collect_plan(module, *library_, sim_options_, options, entries);
    if (options.stats != nullptr) {
        options.stats->corners = corners;
    }
    return records;
}

std::vector<HdModel> Characterizer::characterize_corners(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    const auto blocks = collect_records_corners(module, options);
    return timed_fit(options, [&] {
        std::vector<HdModel> models;
        models.reserve(blocks.size());
        for (const auto& records : blocks) {
            models.push_back(fit_basic_model(module.total_input_bits(), records));
        }
        return models;
    });
}

std::vector<EnhancedHdModel> Characterizer::characterize_corners_enhanced(
    const dp::DatapathModule& module, int zero_clusters,
    CharacterizationOptions options) const
{
    // Same default as characterize_enhanced: only an unset mode falls back
    // to StratifiedPairs.
    if (!options.mode.has_value()) {
        options.mode = StimulusMode::StratifiedPairs;
    }
    const auto blocks = collect_records_corners(module, options);
    return timed_fit(options, [&] {
        std::vector<EnhancedHdModel> models;
        models.reserve(blocks.size());
        for (const auto& records : blocks) {
            models.push_back(fit_enhanced_model(module.total_input_bits(),
                                                zero_clusters, records));
        }
        return models;
    });
}

} // namespace hdpm::core
