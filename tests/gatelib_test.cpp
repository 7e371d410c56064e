#include <gtest/gtest.h>

#include <array>
#include <string>

#include "gatelib/gate.hpp"
#include "gatelib/techlib.hpp"
#include "util/error.hpp"

namespace hdpm::gate {
namespace {

/// Reference boolean functions, independent of the production switch.
bool reference_eval(GateKind kind, bool a, bool b, bool c)
{
    switch (kind) {
    case GateKind::Const0:
        return false;
    case GateKind::Const1:
        return true;
    case GateKind::Buf:
        return a;
    case GateKind::Inv:
        return !a;
    case GateKind::And2:
        return a && b;
    case GateKind::Nand2:
        return !(a && b);
    case GateKind::Or2:
        return a || b;
    case GateKind::Nor2:
        return !(a || b);
    case GateKind::Xor2:
        return a ^ b;
    case GateKind::Xnor2:
        return !(a ^ b);
    case GateKind::And3:
        return a && b && c;
    case GateKind::Nand3:
        return !(a && b && c);
    case GateKind::Or3:
        return a || b || c;
    case GateKind::Nor3:
        return !(a || b || c);
    case GateKind::Xor3:
        return a ^ b ^ c;
    case GateKind::Mux2:
        return c ? b : a;
    case GateKind::Aoi21:
        return !((a && b) || c);
    case GateKind::Oai21:
        return !((a || b) && c);
    case GateKind::Maj3:
        return (a && b) || (a && c) || (b && c);
    }
    return false;
}

class GateTruthTable : public ::testing::TestWithParam<int> {};

TEST_P(GateTruthTable, MatchesReferenceExhaustively)
{
    const auto kind = static_cast<GateKind>(GetParam());
    const int arity = gate_num_inputs(kind);
    const int combos = 1 << arity;
    for (int bits = 0; bits < combos; ++bits) {
        std::array<std::uint8_t, 3> in{};
        for (int i = 0; i < arity; ++i) {
            in[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>((bits >> i) & 1);
        }
        const bool expected =
            reference_eval(kind, in[0] != 0, in[1] != 0, in[2] != 0);
        const bool actual =
            gate_eval(kind, {in.data(), static_cast<std::size_t>(arity)});
        EXPECT_EQ(actual, expected)
            << gate_name(kind) << " inputs=" << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(AllGates, GateTruthTable,
                         ::testing::Range(0, kNumGateKinds),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return std::string{
                                 gate_name(static_cast<GateKind>(info.param))};
                         });

TEST(Gate, NameRoundTrip)
{
    for (int k = 0; k < kNumGateKinds; ++k) {
        const auto kind = static_cast<GateKind>(k);
        EXPECT_EQ(gate_from_name(gate_name(kind)), kind);
    }
}

TEST(Gate, UnknownNameThrows)
{
    EXPECT_THROW((void)gate_from_name("FLUXCAP"), util::PreconditionError);
}

TEST(Gate, ArityChecked)
{
    const std::array<std::uint8_t, 1> one = {1};
    EXPECT_THROW((void)gate_eval(GateKind::And2, one), util::PreconditionError);
}

TEST(Gate, ArityValues)
{
    EXPECT_EQ(gate_num_inputs(GateKind::Const0), 0);
    EXPECT_EQ(gate_num_inputs(GateKind::Inv), 1);
    EXPECT_EQ(gate_num_inputs(GateKind::Xor2), 2);
    EXPECT_EQ(gate_num_inputs(GateKind::Maj3), 3);
}

TEST(TechLibrary, Generic350HasPlausibleValues)
{
    const TechLibrary& lib = TechLibrary::generic350();
    EXPECT_EQ(lib.name(), "generic350");
    EXPECT_DOUBLE_EQ(lib.vdd(), 3.3);
    EXPECT_GT(lib.wire_cap_base_ff(), 0.0);
    for (int k = 0; k < kNumGateKinds; ++k) {
        const auto kind = static_cast<GateKind>(k);
        const GateElectrical& e = lib.spec(kind);
        if (gate_num_inputs(kind) > 0) {
            EXPECT_GT(e.input_cap_ff, 0.0) << gate_name(kind);
            EXPECT_GT(e.intrinsic_delay_ps, 0.0) << gate_name(kind);
            EXPECT_GT(e.internal_energy_fj, 0.0) << gate_name(kind);
        }
        EXPECT_GE(e.output_cap_ff, 0.0) << gate_name(kind);
    }
}

TEST(TechLibrary, XorCostsMoreThanNand)
{
    const TechLibrary& lib = TechLibrary::generic350();
    EXPECT_GT(lib.spec(GateKind::Xor2).internal_energy_fj,
              lib.spec(GateKind::Nand2).internal_energy_fj);
    EXPECT_GT(lib.spec(GateKind::Xor2).intrinsic_delay_ps,
              lib.spec(GateKind::Nand2).intrinsic_delay_ps);
}

TEST(TechLibrary, Generic180IsScaledDown)
{
    const TechLibrary& big = TechLibrary::generic350();
    const TechLibrary& small = TechLibrary::generic180();
    EXPECT_LT(small.vdd(), big.vdd());
    for (int k = 0; k < kNumGateKinds; ++k) {
        const auto kind = static_cast<GateKind>(k);
        EXPECT_LE(small.spec(kind).input_cap_ff, big.spec(kind).input_cap_ff)
            << gate_name(kind);
        EXPECT_LE(small.spec(kind).internal_energy_fj, big.spec(kind).internal_energy_fj)
            << gate_name(kind);
        EXPECT_LE(small.spec(kind).intrinsic_delay_ps, big.spec(kind).intrinsic_delay_ps)
            << gate_name(kind);
    }
}

TEST(TechLibrary, DerivedGeneric180ReproducesTheHistoricalLiteralsExactly)
{
    // generic180 used to be a hand-written table: every generic350 cell
    // field multiplied once by a per-field constant. The derived() refactor
    // must reproduce those numbers bit for bit — one multiplication per
    // field, same constants — or every historical generic180 result (and
    // fingerprinted model file) would silently shift.
    const TechLibrary& base = TechLibrary::generic350();
    const TechLibrary& lib = TechLibrary::generic180();
    EXPECT_EQ(lib.name(), "generic180");
    EXPECT_EQ(lib.vdd(), 1.8);
    EXPECT_EQ(lib.wire_cap_base_ff(), 1.0);
    EXPECT_EQ(lib.wire_cap_per_fanout_ff(), 0.8);
    for (int k = 0; k < kNumGateKinds; ++k) {
        const auto kind = static_cast<GateKind>(k);
        const GateElectrical& b = base.spec(kind);
        const GateElectrical& e = lib.spec(kind);
        // Exact (==, not near) by design: the historical table was built
        // with these same single multiplications.
        EXPECT_EQ(e.input_cap_ff, b.input_cap_ff * 0.45) << gate_name(kind);
        EXPECT_EQ(e.output_cap_ff, b.output_cap_ff * 0.45) << gate_name(kind);
        EXPECT_EQ(e.internal_energy_fj, b.internal_energy_fj * 0.20)
            << gate_name(kind);
        EXPECT_EQ(e.intrinsic_delay_ps, b.intrinsic_delay_ps * 0.40)
            << gate_name(kind);
        EXPECT_EQ(e.delay_per_ff_ps, b.delay_per_ff_ps * 0.90) << gate_name(kind);
    }
}

TEST(Corner, IdentityCornerDerivesABitIdenticalLibrary)
{
    const TechLibrary& base = TechLibrary::generic350();
    // Native supply spelled explicitly and as the 0-sentinel: both are the
    // identity corner — every scale factor must be exactly 1.0 so the
    // derived numbers are the base numbers, bit for bit.
    for (const Corner corner : {Corner{3.3, 25.0, LoadClass::Nominal},
                                Corner{0.0, 25.0, LoadClass::Nominal}}) {
        EXPECT_EQ(base.corner_energy_scale(corner), 1.0);
        EXPECT_EQ(base.corner_delay_scale(corner), 1.0);
        const TechLibrary lib = base.at(corner);
        EXPECT_EQ(lib.vdd(), base.vdd());
        EXPECT_EQ(lib.wire_cap_base_ff(), base.wire_cap_base_ff());
        EXPECT_EQ(lib.wire_cap_per_fanout_ff(), base.wire_cap_per_fanout_ff());
        for (int k = 0; k < kNumGateKinds; ++k) {
            const auto kind = static_cast<GateKind>(k);
            const GateElectrical& b = base.spec(kind);
            const GateElectrical& e = lib.spec(kind);
            EXPECT_EQ(e.input_cap_ff, b.input_cap_ff) << gate_name(kind);
            EXPECT_EQ(e.output_cap_ff, b.output_cap_ff) << gate_name(kind);
            EXPECT_EQ(e.internal_energy_fj, b.internal_energy_fj) << gate_name(kind);
            EXPECT_EQ(e.intrinsic_delay_ps, b.intrinsic_delay_ps) << gate_name(kind);
            EXPECT_EQ(e.delay_per_ff_ps, b.delay_per_ff_ps) << gate_name(kind);
        }
    }
}

TEST(Corner, ScalingLawsAreMonotoneInTheRightDirections)
{
    const TechLibrary& lib = TechLibrary::generic350();
    // Energy: quadratic in supply, rising with temperature.
    EXPECT_LT(lib.corner_energy_scale({2.5, 25.0, LoadClass::Nominal}), 1.0);
    EXPECT_GT(lib.corner_energy_scale({5.0, 25.0, LoadClass::Nominal}), 1.0);
    EXPECT_GT(lib.corner_energy_scale({3.3, 125.0, LoadClass::Nominal}),
              lib.corner_energy_scale({3.3, 25.0, LoadClass::Nominal}));
    // Delay: lower supply is slower (alpha-power), hotter is slower.
    EXPECT_GT(lib.corner_delay_scale({2.5, 25.0, LoadClass::Nominal}), 1.0);
    EXPECT_LT(lib.corner_delay_scale({5.0, 25.0, LoadClass::Nominal}), 1.0);
    EXPECT_GT(lib.corner_delay_scale({3.3, 125.0, LoadClass::Nominal}),
              lib.corner_delay_scale({3.3, 25.0, LoadClass::Nominal}));
    // Load class scales only wire capacitance.
    const TechLibrary heavy = lib.at({3.3, 25.0, LoadClass::Heavy});
    EXPECT_EQ(heavy.wire_cap_base_ff(), lib.wire_cap_base_ff() * 1.6);
    EXPECT_EQ(heavy.wire_cap_per_fanout_ff(), lib.wire_cap_per_fanout_ff() * 1.6);
    EXPECT_EQ(heavy.spec(GateKind::Nand2).input_cap_ff,
              lib.spec(GateKind::Nand2).input_cap_ff);
    // A supply at/below the modeled threshold must refuse, not emit NaN.
    EXPECT_THROW((void)lib.corner_delay_scale({0.5, 25.0, LoadClass::Nominal}),
                 util::PreconditionError);
}

TEST(Corner, DelayFactorBecomesATimeScaleNotACellScale)
{
    // at() records the corner's delay factor as the library's time scale
    // and leaves the simulated cell delays alone, so every corner of one
    // load class simulates the same timing; energies still scale.
    const TechLibrary& base = TechLibrary::generic350();
    EXPECT_EQ(base.time_scale(), 1.0);
    EXPECT_EQ(base.at({3.3, 25.0, LoadClass::Heavy}).time_scale(), 1.0);
    const Corner slow{2.5, 85.0, LoadClass::Nominal};
    const TechLibrary lib = base.at(slow);
    EXPECT_EQ(lib.time_scale(), base.corner_delay_scale(slow));
    EXPECT_GT(lib.time_scale(), 1.0);
    for (int k = 0; k < kNumGateKinds; ++k) {
        const auto kind = static_cast<GateKind>(k);
        EXPECT_EQ(lib.spec(kind).intrinsic_delay_ps, base.spec(kind).intrinsic_delay_ps)
            << gate_name(kind);
        EXPECT_EQ(lib.spec(kind).delay_per_ff_ps, base.spec(kind).delay_per_ff_ps)
            << gate_name(kind);
        EXPECT_EQ(lib.spec(kind).internal_energy_fj,
                  base.spec(kind).internal_energy_fj * base.corner_energy_scale(slow))
            << gate_name(kind);
    }
    // Deriving from a corner library keeps its time scale; a second at()
    // compounds it.
    EXPECT_EQ(lib.derived("copy", lib.vdd(), 1.0, 1.0, CellScaling{}).time_scale(),
              lib.time_scale());
}

TEST(Corner, KeyAndParseRoundTrip)
{
    EXPECT_EQ((Corner{3.3, 25.0, LoadClass::Nominal}).key(), "v3300t250n");
    EXPECT_EQ((Corner{1.62, 125.0, LoadClass::Heavy}).key(), "v1620t1250h");
    EXPECT_EQ((Corner{0.9, -40.0, LoadClass::Light}).key(), "v900t-400l");

    const Corner parsed = parse_corner("1.62:125:heavy");
    EXPECT_EQ(parsed.vdd_v, 1.62);
    EXPECT_EQ(parsed.temp_c, 125.0);
    EXPECT_EQ(parsed.load_class, LoadClass::Heavy);
    EXPECT_EQ(parse_corner("3.3:25").load_class, LoadClass::Nominal);
    EXPECT_EQ(parse_corner("0.9:85:l").load_class, LoadClass::Light);

    EXPECT_THROW((void)parse_corner("3.3"), util::RuntimeError);
    EXPECT_THROW((void)parse_corner("volts:25"), util::RuntimeError);
    EXPECT_THROW((void)parse_corner("3.3:25:medium"), util::RuntimeError);
    EXPECT_THROW((void)parse_corner("99:25"), util::PreconditionError);
}

} // namespace
} // namespace hdpm::gate
