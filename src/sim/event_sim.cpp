#include "sim/event_sim.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hdpm::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using util::BitVec;

// ---------------------------------------------------------------------------
// TimingWheel

void EventSimulator::TimingWheel::configure(std::int64_t max_delay)
{
    horizon_ = std::max<std::int64_t>(1, max_delay);
    const auto slots = std::bit_ceil(static_cast<std::size_t>(horizon_) + 1);
    slots_.assign(slots, {});
    occupied_.assign((slots + 63) / 64, 0);
    mask_ = slots - 1;
    now_ = 0;
    current_slot_ = 0;
    pending_ = 0;
}

void EventSimulator::TimingWheel::reset()
{
    if (pending_ != 0) {
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            std::uint64_t word = occupied_[w];
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(word));
                slots_[(w << 6) + bit].clear();
                word &= word - 1;
            }
            occupied_[w] = 0;
        }
        pending_ = 0;
    }
    now_ = 0;
    current_slot_ = 0;
}

std::size_t EventSimulator::TimingWheel::find_next_occupied(std::size_t start) const
{
    const std::size_t words = occupied_.size();
    std::size_t w = start >> 6;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (start & 63));
    // Scan at most every word plus the (unmasked) starting word again so a
    // lone bit below `start` in the starting word is still found after the
    // wrap-around.
    for (std::size_t n = 0; n <= words; ++n) {
        if (word != 0) {
            return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        }
        w = w + 1 == words ? 0 : w + 1;
        word = occupied_[w];
    }
    HDPM_FAIL("timing wheel occupancy bitmap inconsistent with pending count");
}

std::int64_t EventSimulator::TimingWheel::advance()
{
    HDPM_ASSERT(pending_ > 0, "advance on an empty wheel");
    const std::size_t start = (static_cast<std::size_t>(now_) + 1) & mask_;
    const std::size_t slot = find_next_occupied(start);
    const std::size_t delta = ((slot - start) & mask_) + 1;
    now_ += static_cast<std::int64_t>(delta);
    current_slot_ = slot;
    return now_;
}

void EventSimulator::TimingWheel::pop_bucket()
{
    std::vector<WheelEvent>& bucket = slots_[current_slot_];
    pending_ -= bucket.size();
    bucket.clear(); // keeps capacity: the slot arena never shrinks
    occupied_[current_slot_ >> 6] &= ~(std::uint64_t{1} << (current_slot_ & 63));
}

// ---------------------------------------------------------------------------
// EventSimulator

EventSimulator::EventSimulator(const SimContext& context, EventSimOptions options)
    : context_(&context),
      netlist_(&context.netlist()),
      options_(options),
      values_(netlist_->num_nets(), 0),
      sched_(netlist_->num_nets()),
      cell_stamp_(netlist_->num_cells(), 0),
      transition_count_(netlist_->num_nets(), 0),
      charge_per_net_(netlist_->num_nets(), 0.0)
{
    HDPM_REQUIRE(netlist_->num_nets() < (std::size_t{1} << 31),
                 "netlist too large for packed wheel events");
    wheel_.configure(context.max_cell_delay_ps());
    toggled_.reserve(netlist_->num_nets());
}

EventSimulator::EventSimulator(std::shared_ptr<const SimContext> context,
                               EventSimOptions options)
    : EventSimulator(*context, options)
{
    owned_context_ = std::move(context);
}

EventSimulator::EventSimulator(const netlist::Netlist& netlist,
                               const gate::TechLibrary& library, EventSimOptions options)
    : EventSimulator(std::make_shared<const SimContext>(netlist, library), options)
{
}

void EventSimulator::initialize(const BitVec& inputs)
{
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");

    // Zero-delay settle over the shared compiled view (no charge
    // accounting) — the steady state the next apply() diffs against.
    for (std::size_t i = 0; i < pis.size(); ++i) {
        values_[pis[i]] = inputs.get(static_cast<int>(i)) ? 1 : 0;
    }
    const CompiledNetlist& cn = context_->compiled();
    for (const CellId id : cn.topological_order()) {
        values_[cn.output(id)] = cn.eval(id, values_.data());
    }

    reset_cycle_state();
}

void EventSimulator::load_state(const BitVec& inputs,
                                std::span<const std::uint8_t> net_values)
{
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");
    HDPM_REQUIRE(net_values.size() == values_.size(), "netlist '", netlist_->name(),
                 "' has ", values_.size(), " nets, state has ", net_values.size());
    std::copy(net_values.begin(), net_values.end(), values_.begin());
    for (std::size_t i = 0; i < pis.size(); ++i) {
        HDPM_ASSERT(values_[pis[i]] == (inputs.get(static_cast<int>(i)) ? 1 : 0),
                    "load_state input ", i, " disagrees with the adopted net values");
    }

    reset_cycle_state();
}

/// Reset every piece of per-cycle scheduler state so repeated
/// initialize/load_state calls start from one identical state:
/// swap-against-empty instead of a pop loop for the heap, bucket-clearing
/// rewind for the wheel, and zeroed sequence / generation / stamp counters
/// (the per-cell stamps only on the heap path, the one that reads them).
/// Cumulative counters (transition/charge per net, kernel stats) survive.
void EventSimulator::reset_cycle_state()
{
    for (std::size_t net = 0; net < sched_.size(); ++net) {
        sched_[net] = NetSched{values_[net], 0, 0, 0, 0};
    }
    if (options_.scheduler == SchedulerKind::BinaryHeap) {
        std::fill(cell_stamp_.begin(), cell_stamp_.end(), 0);
    }
    stamp_epoch_ = 0;
    seq_counter_ = 0;
    HeapQueue{}.swap(queue_);
    wheel_.reset();

    initialized_ = true;
    toggle_log_.clear();
    if (tracer_ != nullptr) {
        tracer_->dump_all(cycle_start_time_, values_);
    }
}

void EventSimulator::set_toggle_log(bool enabled)
{
    log_toggles_ = enabled;
    toggle_log_.clear();
    if (enabled) {
        // Room for every net toggling a few times (glitches) per cycle; a
        // longer cycle grows the log once and it keeps that capacity.
        toggle_log_.reserve(4 * netlist_->num_nets());
    }
}

[[gnu::always_inline]] inline void EventSimulator::toggle_net(
    NetId net, std::uint8_t value, std::int64_t time, bool count_charge,
    CycleResult& result)
{
    values_[net] = value;
    ++transition_count_[net];
    if (log_toggles_) {
        toggle_log_.push_back(
            ToggleEntry{net | (static_cast<std::uint32_t>(count_charge) << 31)});
    }
    ++result.transitions;
    result.settle_time_ps = std::max(result.settle_time_ps, time);
    if (count_charge) {
        const double q = context_->edge_charge_fc(net);
        result.charge_fc += q;
        charge_per_net_[net] += q;
    }
    if (tracer_ != nullptr) {
        tracer_->change(cycle_start_time_ + time, net, value != 0);
    }
}

CycleResult EventSimulator::apply(const BitVec& inputs)
{
    HDPM_REQUIRE(initialized_, "EventSimulator::apply before initialize");
    toggle_log_.clear();
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");
    // Record the cycle's (u, v) vector pair before any net toggles, so a
    // budget-exceeded fault can report the exact transition to replay.
    cycle_u_bits_ = 0;
    for (std::size_t i = 0; i < pis.size(); ++i) {
        cycle_u_bits_ |= static_cast<std::uint64_t>(values_[pis[i]]) << i;
    }
    cycle_v_bits_ = inputs.raw();
    const std::uint64_t budget = HDPM_FAULT_FIRE(util::FaultPoint::EventBudget)
                                     ? 0
                                     : options_.max_events_per_cycle;
    return options_.scheduler == SchedulerKind::BinaryHeap ? apply_heap(inputs, budget)
                                                           : apply_wheel(inputs, budget);
}

void EventSimulator::fail_event_budget(const std::uint64_t budget) const
{
    util::FaultContext context;
    context.component = netlist_->name();
    context.bitwidth = static_cast<int>(netlist_->primary_inputs().size());
    context.vector_u = cycle_u_bits_;
    context.vector_v = cycle_v_bits_;
    context.has_vectors = true;
    context.detail = "event budget of " + std::to_string(budget) +
                     " exceeded — runaway oscillation? replay the recorded "
                     "(u, v) pair to reproduce";
    throw util::FaultError{util::FaultKind::SimBudgetExceeded, std::move(context)};
}

CycleResult EventSimulator::apply_wheel(const BitVec& inputs, const std::uint64_t budget)
{
    const CompiledNetlist& cn = context_->compiled();
    const auto& pis = netlist_->primary_inputs();
    CycleResult result;
    std::uint64_t processed = 0;
    toggled_.clear();

    // Apply primary-input changes at t = 0. The consumers of every toggled
    // net are then evaluated straight from the fanout CSR, without
    // per-cell deduplication: a cell touched through two of its inputs
    // evaluates twice, but the second evaluation computes the same output
    // and prepare_schedule sees the net already heading there, so the event
    // stream is unchanged while the common case sheds one stamp
    // read-modify-write per consumer (measured duplicate rate is a few
    // percent of visits).
    for (std::size_t i = 0; i < pis.size(); ++i) {
        const NetId net = pis[i];
        const std::uint8_t v = inputs.get(static_cast<int>(i)) ? 1 : 0;
        if (v == values_[net]) {
            continue;
        }
        toggle_net(net, v, 0, options_.count_input_charge, result);
        toggled_.push_back(net);
    }

    auto evaluate_and_schedule = [&](CellId id, std::int64_t now) {
        const SimContext::CellRec& cr = context_->cell_rec(id);
        const std::uint8_t out = SimContext::eval_rec(cr, values_.data());
        const NetId net = cr.out;
        const std::int64_t t = now + cr.delay_ps;
        NetSched& ns = sched_[net];
        if (prepare_schedule(ns, values_[net], out, t)) {
            wheel_.push(t, WheelEvent::make(net, out, ns.generation));
        }
    };

    const auto evaluate_fanout = [&](std::int64_t now) {
        for (const NetId net : toggled_) {
            for (const CellId id : cn.fanout(net)) {
                evaluate_and_schedule(id, now);
            }
        }
    };
    evaluate_fanout(0);

    // Main event loop: drain the wheel one timestamp bucket at a time, so
    // cells evaluate only after every toggle of their time step. Bucket
    // order is push order, which is schedule-sequence order — the heap's
    // tie-break.
    // Queue depth peaks right before an advance (it only grows between
    // pops), so sampling it here reports the same maximum as checking
    // after every push.
    while (!wheel_.empty()) {
        stats_.max_queue_depth = std::max(stats_.max_queue_depth, wheel_.pending());
        const std::int64_t now = wheel_.advance();
        toggled_.clear();
        for (const WheelEvent& ev : wheel_.bucket()) {
            if (++processed > budget) {
                fail_event_budget(budget);
            }
            const NetId net = ev.net();
            NetSched& ns = sched_[net];
            if (ev.generation != ns.generation) {
                continue; // superseded by an inertial cancellation
            }
            --ns.pending_count;
            const std::uint8_t v = ev.value();
            // Per-net event times are monotone and scheduled values
            // alternate, so a valid event always toggles its net.
            HDPM_ASSERT(v != values_[net], "no-op event on net ", net);
            toggle_net(net, v, now, true, result);
            toggled_.push_back(net);
        }
        wheel_.pop_bucket();
        evaluate_fanout(now);
    }
    wheel_.reset(); // rewind to t = 0 for the next cycle (wheel is empty)

    stats_.events_processed += processed;
    if (tracer_ != nullptr) {
        cycle_start_time_ += tracer_->cycle_period_ps();
    }
    return result;
}

CycleResult EventSimulator::apply_heap(const BitVec& inputs, const std::uint64_t budget)
{
    const auto& pis = netlist_->primary_inputs();
    CycleResult result;
    std::uint64_t processed = 0;
    ++stamp_epoch_;
    touched_.clear();

    // Apply primary-input changes at t = 0.
    for (std::size_t i = 0; i < pis.size(); ++i) {
        const NetId net = pis[i];
        const std::uint8_t v = inputs.get(static_cast<int>(i)) ? 1 : 0;
        if (v == values_[net]) {
            continue;
        }
        toggle_net(net, v, 0, options_.count_input_charge, result);
        for (const CellId consumer : context_->fanout(net)) {
            if (cell_stamp_[consumer] != stamp_epoch_) {
                cell_stamp_[consumer] = stamp_epoch_;
                touched_.push_back(consumer);
            }
        }
    }

    std::uint8_t in_vals[gate::kMaxGateInputs];
    auto evaluate_and_schedule = [&](CellId id, std::int64_t now) {
        const Cell& cell = netlist_->cell(id);
        const auto ins = cell.input_span();
        for (std::size_t i = 0; i < ins.size(); ++i) {
            in_vals[i] = values_[ins[i]];
        }
        const std::uint8_t out =
            gate::gate_eval(cell.kind, {in_vals, ins.size()}) ? 1 : 0;
        const std::int64_t t = now + context_->cell_delay_ps(id);
        NetSched& ns = sched_[cell.output];
        if (prepare_schedule(ns, values_[cell.output], out, t)) {
            queue_.push(HeapEvent{t, seq_counter_++, cell.output, out, ns.generation});
            stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
        }
    };

    for (const CellId id : touched_) {
        evaluate_and_schedule(id, 0);
    }

    // Main event loop: drain the queue, grouping events per timestamp so
    // each cell evaluates at most once per time step.
    while (!queue_.empty()) {
        const std::int64_t now = queue_.top().time;
        touched_.clear();
        ++stamp_epoch_;
        while (!queue_.empty() && queue_.top().time == now) {
            const HeapEvent ev = queue_.top();
            queue_.pop();
            if (++processed > budget) {
                fail_event_budget(budget);
            }
            if (ev.generation != sched_[ev.net].generation) {
                continue; // superseded by an inertial cancellation
            }
            --sched_[ev.net].pending_count;
            // Per-net event times are monotone and scheduled values
            // alternate, so a valid event always toggles its net.
            HDPM_ASSERT(ev.value != values_[ev.net], "no-op event on net ", ev.net);
            toggle_net(ev.net, ev.value, now, true, result);
            for (const CellId consumer : context_->fanout(ev.net)) {
                if (cell_stamp_[consumer] != stamp_epoch_) {
                    cell_stamp_[consumer] = stamp_epoch_;
                    touched_.push_back(consumer);
                }
            }
        }
        for (const CellId id : touched_) {
            evaluate_and_schedule(id, now);
        }
    }

    stats_.events_processed += processed;
    if (tracer_ != nullptr) {
        cycle_start_time_ += tracer_->cycle_period_ps();
    }
    return result;
}

BitVec EventSimulator::outputs() const
{
    const auto& pos = netlist_->primary_outputs();
    BitVec out{static_cast<int>(pos.size())};
    for (std::size_t i = 0; i < pos.size(); ++i) {
        out.set(static_cast<int>(i), values_[pos[i]] != 0);
    }
    return out;
}

} // namespace hdpm::sim
