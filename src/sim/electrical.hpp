#pragma once

#include <cstdint>
#include <vector>

#include "gatelib/techlib.hpp"
#include "netlist/netlist.hpp"

namespace hdpm::sim {

/// Electrical annotation of a netlist under a technology library:
/// per-net capacitance, per-net charge drawn per edge, and per-cell
/// propagation delay under its actual load.
///
/// Charge accounting (the "PowerMill substitute" cost model):
///   per logic edge on net n:  q(n) = ½·C(n)·Vdd  +  E_int(driver)/Vdd
/// with C(n) = driver output cap + Σ sink input caps + wire cap
/// (base + per-fanout). Charge is reported in fC; dividing the per-cycle
/// charge by the cycle time and multiplying by Vdd gives power, so — as in
/// the paper — charge and power are used synonymously up to a constant.
///
/// Delays come in two timebases. The simulation timebase is the library's
/// cell data as given (what the event kernel schedules in, see SimContext);
/// real time multiplies it by the library's time_scale() (the corner delay
/// factor TechLibrary::at records). The two agree for base libraries.
class ElectricalView {
public:
    ElectricalView(const netlist::Netlist& netlist, const gate::TechLibrary& library);

    /// Total capacitance on a net [fF].
    [[nodiscard]] double net_cap_ff(netlist::NetId net) const { return net_cap_ff_.at(net); }

    /// Charge drawn from the supply per logic edge on a net [fC].
    [[nodiscard]] double edge_charge_fc(netlist::NetId net) const
    {
        return edge_charge_fc_.at(net);
    }

    /// Propagation delay of a cell under its load, in real time [ps] (≥ 1).
    [[nodiscard]] std::int64_t cell_delay_ps(netlist::CellId cell) const
    {
        return cell_delay_ps_.at(cell);
    }

    /// Propagation delay of a cell in the simulation timebase [ps] (≥ 1).
    [[nodiscard]] std::int64_t timebase_delay_ps(netlist::CellId cell) const
    {
        return timebase_delay_ps_.at(cell);
    }

    /// Supply voltage [V].
    [[nodiscard]] double vdd() const noexcept { return vdd_; }

    /// Sum of all net capacitances [fF] — a coarse area/complexity proxy.
    [[nodiscard]] double total_cap_ff() const noexcept { return total_cap_ff_; }

    /// Worst-case topological path delay in real time [ps] (static timing,
    /// no false-path analysis). Useful for choosing cycle times in reports.
    [[nodiscard]] std::int64_t critical_path_ps() const noexcept { return critical_path_ps_; }

private:
    double vdd_;
    double total_cap_ff_ = 0.0;
    std::int64_t critical_path_ps_ = 0;
    std::vector<double> net_cap_ff_;
    std::vector<double> edge_charge_fc_;
    std::vector<std::int64_t> cell_delay_ps_;
    std::vector<std::int64_t> timebase_delay_ps_;
};

} // namespace hdpm::sim
