#include "sim/sim_context.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hdpm::sim {

using netlist::CellId;
using netlist::NetId;

SimContext::SimContext(const netlist::Netlist& netlist,
                       const gate::TechLibrary& library)
    : netlist_(&netlist), electrical_(netlist, library), compiled_(netlist)
{
    delay_ps_.reserve(netlist.num_cells());
    for (CellId id = 0; id < netlist.num_cells(); ++id) {
        const std::int64_t d = electrical_.timebase_delay_ps(id);
        // The timing wheel allocates O(max delay) slots; a delay this large
        // means the electrical annotation is corrupt, not that the design
        // is slow (generic350 delays are tens of ps).
        HDPM_REQUIRE(d >= 1 && d <= (std::int64_t{1} << 20),
                     "cell ", id, " delay ", d, " ps out of range");
        delay_ps_.push_back(static_cast<std::int32_t>(d));
        max_cell_delay_ps_ = std::max(max_cell_delay_ps_, d);
    }
    cell_rec_.reserve(netlist.num_cells());
    for (CellId id = 0; id < netlist.num_cells(); ++id) {
        const auto ins = compiled_.inputs(id);
        CellRec rec{};
        for (std::size_t k = 0; k < 3; ++k) {
            rec.in[k] = k < ins.size() ? ins[k] : NetId{0};
        }
        rec.out = compiled_.output(id);
        rec.delay_ps = delay_ps_[id];
        rec.num_inputs = static_cast<std::uint8_t>(ins.size());
        // Replicate the n-input truth table across all 2^3 gather indices so
        // the value bits of the unused (net-0-aliased) inputs are don't-cares.
        const unsigned n = ins.size();
        std::uint8_t t8 = 0;
        for (unsigned idx = 0; idx < 8; ++idx) {
            const unsigned folded = idx & ((1U << n) - 1U);
            t8 |= static_cast<std::uint8_t>((compiled_.truth(id) >> folded) & 1U)
                  << idx;
        }
        rec.truth8 = t8;
        cell_rec_.push_back(rec);
    }
    edge_charge_fc_.reserve(netlist.num_nets());
    for (NetId net = 0; net < netlist.num_nets(); ++net) {
        edge_charge_fc_.push_back(electrical_.edge_charge_fc(net));
    }
}

} // namespace hdpm::sim
