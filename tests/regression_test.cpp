#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ios>

#include "core/model_library.hpp"
#include "core/regression.hpp"
#include "util/error.hpp"

namespace hdpm::core {
namespace {

using dp::ModuleType;

/// Fabricate a prototype whose coefficients follow a known law
/// p_i(w) = a·f(w)·i + b, so the regression must recover it exactly.
PrototypeModel synthetic_linear_prototype(int width, double a, double b)
{
    const int m = 2 * width; // two operands
    std::vector<double> p(static_cast<std::size_t>(m));
    for (int i = 1; i <= m; ++i) {
        p[static_cast<std::size_t>(i - 1)] = a * width * i + b;
    }
    PrototypeModel proto;
    proto.operand_widths = {width};
    proto.model = HdModel{m, std::move(p)};
    return proto;
}

PrototypeModel synthetic_quadratic_prototype(int width, double a2, double a1, double a0)
{
    const int m = 2 * width;
    std::vector<double> p(static_cast<std::size_t>(m));
    for (int i = 1; i <= m; ++i) {
        p[static_cast<std::size_t>(i - 1)] =
            (a2 * width * width + a1 * width + a0) * i;
    }
    PrototypeModel proto;
    proto.operand_widths = {width};
    proto.model = HdModel{m, std::move(p)};
    return proto;
}

TEST(TotalInputBits, PerType)
{
    const std::array<int, 1> w8 = {8};
    EXPECT_EQ(total_input_bits(ModuleType::RippleAdder, w8), 16);
    EXPECT_EQ(total_input_bits(ModuleType::AbsVal, w8), 8);
    const std::array<int, 2> w64 = {6, 4};
    EXPECT_EQ(total_input_bits(ModuleType::CsaMultiplier, w64), 10);
    EXPECT_EQ(total_input_bits(ModuleType::Mac, w64), 20);
}

TEST(Regression, RecoversLinearLawExactly)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 8, 12, 16}) {
        protos.push_back(synthetic_linear_prototype(w, 2.5, 7.0));
    }
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);

    // Predict an instance that was NOT in the prototype set.
    const int w = 10;
    const int m = 2 * w;
    for (int i = 1; i <= m; ++i) {
        const std::array<int, 1> widths = {w};
        EXPECT_NEAR(model.coefficient(i, widths), 2.5 * w * i + 7.0,
                    1e-6 * (2.5 * w * i + 7.0))
            << "i=" << i;
    }
}

TEST(Regression, RecoversQuadraticLawExactly)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 6, 8, 10, 12, 14, 16}) {
        protos.push_back(synthetic_quadratic_prototype(w, 0.5, 1.5, 3.0));
    }
    const ParameterizableModel model =
        ParameterizableModel::fit(ModuleType::CsaMultiplier, protos);

    const int w = 9; // held-out width
    const std::array<int, 1> widths = {w};
    for (int i = 1; i <= 2 * w; ++i) {
        const double expected = (0.5 * w * w + 1.5 * w + 3.0) * i;
        EXPECT_NEAR(model.coefficient(i, widths), expected, 1e-5 * expected) << i;
    }
}

TEST(Regression, ThinnedPrototypeSetStillAccurate)
{
    // The paper's SEC/THI experiment in synthetic form: removing every
    // second/third prototype barely moves predicted coefficients.
    std::vector<PrototypeModel> all;
    for (const int w : {4, 6, 8, 10, 12, 14, 16}) {
        all.push_back(synthetic_quadratic_prototype(w, 0.8, 2.0, 5.0));
    }
    std::vector<PrototypeModel> thi{all[0], all[3], all[6]}; // 4, 10, 16

    const ParameterizableModel full = ParameterizableModel::fit(ModuleType::CsaMultiplier, all);
    const ParameterizableModel thin = ParameterizableModel::fit(ModuleType::CsaMultiplier, thi);

    const std::array<int, 1> widths = {8};
    for (int i = 1; i <= 8; ++i) {
        const double a = full.coefficient(i, widths);
        const double b = thin.coefficient(i, widths);
        EXPECT_NEAR(b, a, 0.01 * a) << i;
    }
}

TEST(Regression, HighIndicesUseFewerSamples)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 8, 12}) {
        protos.push_back(synthetic_linear_prototype(w, 1.0, 0.0));
    }
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    EXPECT_EQ(model.max_fitted_hd(), 24);
    EXPECT_EQ(model.samples_for(1), 3U);  // all prototypes have Hd 1
    EXPECT_EQ(model.samples_for(9), 2U);  // only w = 8, 12 reach Hd 9
    EXPECT_EQ(model.samples_for(17), 1U); // only w = 12
}

TEST(Regression, SinglePrototypeScalesWithComplexity)
{
    std::vector<PrototypeModel> protos{synthetic_linear_prototype(6, 1.0, 2.0)};
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    // With one sample, the fit keeps only the leading complexity term, so
    // the prototype's coefficient is reproduced exactly and other widths
    // scale proportionally with complexity (m for a ripple adder).
    const std::array<int, 1> w6 = {6};
    const std::array<int, 1> w12 = {12};
    const double p6 = 1.0 * 6 * 3 + 2.0;
    EXPECT_NEAR(model.coefficient(3, w6), p6, 1e-6);
    EXPECT_NEAR(model.coefficient(3, w12), 2.0 * p6, 1e-6);
}

TEST(Regression, ModelForBuildsFullModel)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 8, 12, 16}) {
        protos.push_back(synthetic_linear_prototype(w, 3.0, 1.0));
    }
    const ParameterizableModel param = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    const HdModel instance = param.model_for(10);
    EXPECT_EQ(instance.input_bits(), 20);
    for (int i = 1; i <= 20; ++i) {
        EXPECT_NEAR(instance.coefficient(i), 3.0 * 10 * i + 1.0, 1e-5);
    }
}

TEST(Regression, ExtrapolationBeyondFittedHdClamps)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 6}) {
        protos.push_back(synthetic_linear_prototype(w, 1.0, 0.0));
    }
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    EXPECT_EQ(model.max_fitted_hd(), 12);
    // Requesting a 16-bit-total instance needs Hd up to 16 — indices above
    // 12 reuse the last regression vector instead of throwing.
    const HdModel instance = model.model_for(8);
    EXPECT_EQ(instance.input_bits(), 16);
    EXPECT_DOUBLE_EQ(instance.coefficient(16), instance.coefficient(12));
}

TEST(Regression, CoefficientsClampedNonNegative)
{
    // A decreasing synthetic family can regress to negative predictions for
    // small widths; the model clamps at zero.
    std::vector<PrototypeModel> protos;
    for (const int w : {8, 12, 16}) {
        const int m = 2 * w;
        std::vector<double> p(static_cast<std::size_t>(m), 1000.0 - 60.0 * w);
        PrototypeModel proto;
        proto.operand_widths = {w};
        proto.model = HdModel{m, std::move(p)};
        protos.push_back(std::move(proto));
    }
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    const std::array<int, 1> w20 = {20};
    EXPECT_DOUBLE_EQ(model.coefficient(1, w20), 0.0);
}

TEST(Regression, EmptyPrototypeSetThrows)
{
    EXPECT_THROW(
        (void)ParameterizableModel::fit(ModuleType::RippleAdder, {}),
        util::PreconditionError);
}

TEST(Regression, RegressionVectorAccessible)
{
    std::vector<PrototypeModel> protos;
    for (const int w : {4, 8, 12}) {
        protos.push_back(synthetic_linear_prototype(w, 2.0, 5.0));
    }
    const ParameterizableModel model = ParameterizableModel::fit(ModuleType::RippleAdder, protos);
    const auto r1 = model.regression_vector(1);
    ASSERT_EQ(r1.size(), 2U); // {m, 1}
    EXPECT_NEAR(r1[0], 2.0, 1e-6);
    EXPECT_NEAR(r1[1], 5.0, 1e-6);
    EXPECT_THROW((void)model.regression_vector(0), util::PreconditionError);
    EXPECT_THROW((void)model.regression_vector(99), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// Prototype-set journaling: crash-safe resume of the per-width fits.
// ---------------------------------------------------------------------------

CharacterizationOptions proto_plan()
{
    CharacterizationOptions options;
    options.max_transitions = 300;
    options.min_transitions = 300;
    options.batch = 300;
    options.seed = 41;
    return options;
}

void expect_same_prototypes(const std::vector<PrototypeModel>& a,
                            const std::vector<PrototypeModel>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].model.input_bits(), b[i].model.input_bits()) << i;
        for (int hd = 1; hd <= a[i].model.input_bits(); ++hd) {
            ASSERT_EQ(a[i].model.coefficient(hd), b[i].model.coefficient(hd))
                << "prototype " << i << " hd " << hd;
        }
    }
}

TEST(PrototypeJournal, JournaledRunMatchesUnjournaledAndRetiresJournal)
{
    const std::array<int, 2> widths = {2, 3};
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "proto_equal.journal";
    std::filesystem::remove(journal);

    const auto plain = characterize_prototype_set(ModuleType::RippleAdder, widths,
                                                  characterizer, proto_plan(), 1);
    const auto journaled = characterize_prototype_set(
        ModuleType::RippleAdder, widths, characterizer, proto_plan(), 1, journal);
    expect_same_prototypes(plain, journaled);
    // The completed run deletes its journal (and leaves no .tmp debris).
    EXPECT_FALSE(std::filesystem::exists(journal));
    EXPECT_FALSE(std::filesystem::exists(journal.string() + ".tmp"));
}

TEST(PrototypeJournal, CompletedFitsAreResumedNotRecharacterized)
{
    const std::array<int, 2> widths = {2, 3};
    const Characterizer characterizer;
    const CharacterizationOptions options = proto_plan();
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "proto_resume.journal";

    // Hand-write a journal holding a sentinel fit for prototype 0 — coeffs
    // no real characterization would produce. If the run resumes from the
    // journal (as it must), the sentinel shows up verbatim in the result.
    const std::array<int, 1> first = {widths[0]};
    const int m = total_input_bits(ModuleType::RippleAdder, first);
    std::vector<double> sentinel(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        sentinel[static_cast<std::size_t>(i)] = 1000.0 + i;
    }
    const HdModel sentinel_model{m, sentinel};
    {
        std::ofstream out{journal, std::ios::trunc};
        out << "hdpm_protolib 1\n";
        out << "fingerprint " << std::hex
            << characterization_fingerprint(options, characterizer.sim_options(),
                                            characterizer.library())
            << std::dec << '\n';
        out << "module " << dp::module_type_id(ModuleType::RippleAdder) << '\n';
        out << "proto 0 " << widths[0] << '\n';
        sentinel_model.save(out);
        out << "end\n";
    }

    const auto prototypes = characterize_prototype_set(
        ModuleType::RippleAdder, widths, characterizer, options, 1, journal);
    ASSERT_EQ(prototypes.size(), 2U);
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_EQ(prototypes[0].model.coefficient(hd), sentinel_model.coefficient(hd))
            << "hd " << hd;
    }
    // The missing prototype was characterized for real.
    const auto plain = characterize_prototype_set(ModuleType::RippleAdder, widths,
                                                  characterizer, options, 1);
    ASSERT_EQ(prototypes[1].model.input_bits(), plain[1].model.input_bits());
    for (int hd = 1; hd <= plain[1].model.input_bits(); ++hd) {
        EXPECT_EQ(prototypes[1].model.coefficient(hd), plain[1].model.coefficient(hd))
            << "hd " << hd;
    }
    EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(PrototypeJournal, CorruptJournalIsQuarantinedAndIgnored)
{
    const std::array<int, 1> widths = {2};
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "proto_corrupt.journal";
    std::ofstream{journal} << "hdpm_protolib 1\nfingerprint zz\ngarbage\n";

    const auto plain = characterize_prototype_set(ModuleType::RippleAdder, widths,
                                                  characterizer, proto_plan(), 1);
    const auto resumed = characterize_prototype_set(
        ModuleType::RippleAdder, widths, characterizer, proto_plan(), 1, journal);
    expect_same_prototypes(plain, resumed);
    EXPECT_TRUE(std::filesystem::exists(journal.string() + ".corrupt"));
    std::filesystem::remove(journal.string() + ".corrupt");
}

TEST(PrototypeJournal, OtherPlansJournalIsLeftAloneUntilReplaced)
{
    // A journal stamped with a different fingerprint loads nothing — the
    // run characterizes from scratch rather than trusting foreign fits.
    const std::array<int, 1> widths = {2};
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "proto_foreign.journal";
    std::ofstream{journal} << "hdpm_protolib 1\nfingerprint abc123\n"
                           << "module ripple_adder\nend\n";

    const auto plain = characterize_prototype_set(ModuleType::RippleAdder, widths,
                                                  characterizer, proto_plan(), 1);
    const auto resumed = characterize_prototype_set(
        ModuleType::RippleAdder, widths, characterizer, proto_plan(), 1, journal);
    expect_same_prototypes(plain, resumed);
    EXPECT_FALSE(std::filesystem::exists(journal)); // replaced, then retired
}

} // namespace
} // namespace hdpm::core
