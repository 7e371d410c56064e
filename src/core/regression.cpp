#include "core/regression.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <ios>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/model_library.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/linalg.hpp"
#include "util/parallel.hpp"

namespace hdpm::core {

int total_input_bits(dp::ModuleType type, std::span<const int> operand_widths)
{
    int total = 0;
    for (const int width : dp::expand_operand_widths(type, operand_widths)) {
        total += width;
    }
    return total;
}

ParameterizableModel ParameterizableModel::fit(dp::ModuleType type,
                                               std::span<const PrototypeModel> prototypes,
                                               unsigned threads)
{
    HDPM_REQUIRE(!prototypes.empty(), "empty prototype set");
    const dp::ComplexityBasis& basis = dp::complexity_basis(type);
    const std::size_t k = basis.size();

    int max_hd = 0;
    for (const auto& proto : prototypes) {
        max_hd = std::max(max_hd, proto.model.input_bits());
    }

    ParameterizableModel out;
    out.type_ = type;
    out.r_.resize(static_cast<std::size_t>(max_hd));
    out.samples_.resize(static_cast<std::size_t>(max_hd), 0);
    out.ridge_.resize(static_cast<std::size_t>(max_hd), 0);

    // Each coefficient index is an independent least-squares problem
    // writing to its own slot, so the loop parallelizes without any
    // cross-index state (and therefore thread-count independently).
    const util::ThreadPool pool{threads == 0 ? 0 : threads};
    pool.parallel_for(static_cast<std::size_t>(max_hd), [&](std::size_t index) {
        const int hd = static_cast<int>(index) + 1;
        // Gather every prototype that has this coefficient index.
        std::vector<std::vector<double>> rows;
        std::vector<double> rhs;
        for (const auto& proto : prototypes) {
            if (proto.model.input_bits() < hd) {
                continue;
            }
            rows.push_back(basis.eval(proto.operand_widths));
            rhs.push_back(proto.model.coefficient(hd));
        }
        out.samples_[static_cast<std::size_t>(hd - 1)] = rows.size();
        HDPM_ASSERT(!rows.empty(), "no prototype covers Hd ", hd);

        // With fewer samples than basis terms, keep only the leading
        // (highest-order) terms: the dominant term is the structural
        // complexity itself (m for ripple structures, m1·m0 for arrays),
        // so e.g. a single prototype still scales proportionally with
        // complexity rather than being treated as a constant.
        const std::size_t terms = std::min(k, rows.size());
        util::Matrix design{rows.size(), terms};
        for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t c = 0; c < terms; ++c) {
                design.at(r, c) = rows[r][c];
            }
        }
        util::LeastSquaresReport report;
        const std::vector<double> fitted = util::least_squares(design, rhs, &report);
        out.ridge_[static_cast<std::size_t>(hd - 1)] = report.ridge_fallback ? 1 : 0;
        std::vector<double> full(k, 0.0);
        for (std::size_t c = 0; c < terms; ++c) {
            full[c] = fitted[c];
        }
        out.r_[static_cast<std::size_t>(hd - 1)] = std::move(full);
    });
    return out;
}

namespace {

/// Crash-safe prototype-fit journal ("hdpm_protolib 1"): the completed
/// subset of a prototype set's (index, width) fits, stamped with the
/// options fingerprint and the module id. Entries are keyed by index as
/// well as width because each prototype's seed is derived from its index —
/// the same width at a different position is a different stimulus stream.
void save_proto_journal(const std::filesystem::path& path, std::uint64_t fingerprint,
                        const std::string& module_id, std::span<const int> widths,
                        std::span<const std::optional<HdModel>> completed)
{
    std::ostringstream os;
    os << "hdpm_protolib 1\n";
    os << "fingerprint " << std::hex << fingerprint << std::dec << '\n';
    os << "module " << module_id << '\n';
    for (std::size_t index = 0; index < completed.size(); ++index) {
        if (!completed[index].has_value()) {
            continue;
        }
        os << "proto " << index << ' ' << widths[index] << '\n';
        completed[index]->save(os);
    }
    os << "end\n";
    std::string payload = os.str();
    HDPM_FAULT_MUTATE(util::FaultPoint::CheckpointShortWrite, payload);

    const std::filesystem::path tmp = path.string() + ".tmp";
    {
        std::ofstream out{tmp, std::ios::trunc};
        if (!out) {
            HDPM_FAIL("cannot write prototype journal '", tmp.string(), "'");
        }
        out << payload;
        out.flush();
        if (!out) {
            HDPM_FAIL("failed writing prototype journal '", tmp.string(), "'");
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        HDPM_FAIL("cannot publish prototype journal '", path.string(), "': ",
                  ec.message());
    }
}

/// Load the completed fits a journal holds for this exact plan into
/// @p completed. A missing journal or one from a different plan loads
/// nothing; a malformed one is quarantined (".corrupt") and loads nothing —
/// resuming never trusts damaged state.
void load_proto_journal(const std::filesystem::path& path, std::uint64_t fingerprint,
                        const std::string& module_id, std::span<const int> widths,
                        std::vector<std::optional<HdModel>>& completed)
{
    std::ifstream in{path};
    if (!in) {
        return;
    }
    try {
        std::string tag;
        int version = 0;
        in >> tag >> version;
        if (!in || tag != "hdpm_protolib" || version != 1) {
            HDPM_FAIL("bad prototype journal header");
        }
        std::uint64_t stored_fingerprint = 0;
        in >> tag >> std::hex >> stored_fingerprint >> std::dec;
        if (!in || tag != "fingerprint") {
            HDPM_FAIL("bad prototype journal fingerprint line");
        }
        std::string stored_module;
        in >> tag >> stored_module;
        if (!in || tag != "module") {
            HDPM_FAIL("bad prototype journal module line");
        }
        if (stored_fingerprint != fingerprint || stored_module != module_id) {
            return; // some other plan's journal: ignore, it will be replaced
        }
        std::vector<std::optional<HdModel>> loaded(widths.size());
        for (;;) {
            in >> tag;
            if (!in) {
                HDPM_FAIL("truncated prototype journal");
            }
            if (tag == "end") {
                break;
            }
            if (tag != "proto") {
                HDPM_FAIL("unexpected prototype journal token '", tag, "'");
            }
            std::size_t index = 0;
            int width = 0;
            in >> index >> width;
            if (!in || index >= widths.size() || widths[index] != width) {
                HDPM_FAIL("prototype journal entry does not match the width plan");
            }
            loaded[index] = HdModel::load(in);
        }
        completed = std::move(loaded);
    } catch (const util::RuntimeError&) {
        std::error_code ec;
        std::filesystem::rename(path, path.string() + ".corrupt", ec);
        if (ec) {
            std::filesystem::remove(path, ec);
        }
    }
}

} // namespace

std::vector<PrototypeModel> characterize_prototype_set(
    dp::ModuleType type, std::span<const int> widths,
    const Characterizer& characterizer, const CharacterizationOptions& options,
    unsigned threads, const std::filesystem::path& journal)
{
    HDPM_REQUIRE(!widths.empty(), "empty prototype width set");

    const bool journaling = !journal.empty();
    std::uint64_t fingerprint = 0;
    std::string module_id;
    std::vector<std::optional<HdModel>> completed(widths.size());
    if (journaling) {
        fingerprint = characterization_fingerprint(options, characterizer.sim_options(),
                                                   characterizer.library());
        module_id = dp::module_type_id(type);
        {
            std::error_code ec;
            std::filesystem::remove(journal.string() + ".tmp", ec);
        }
        load_proto_journal(journal, fingerprint, module_id, widths, completed);
    }
    std::mutex journal_mutex; // guards `completed` and the journal file

    const util::ThreadPool pool{threads};
    auto prototypes = pool.parallel_map(widths.size(), [&](std::size_t index) {
        PrototypeModel proto;
        proto.operand_widths = {widths[index]};
        if (journaling) {
            const std::lock_guard<std::mutex> lock{journal_mutex};
            if (completed[index].has_value()) {
                proto.model = *completed[index];
                return proto;
            }
        }

        CharacterizationOptions proto_options = options;
        proto_options.seed =
            util::splitmix64(options.seed ^ static_cast<std::uint64_t>(index + 1));
        proto_options.threads = 1;
        proto_options.progress = nullptr; // workers must not call user code
        proto_options.stats = nullptr;    // one stats sink cannot serve N writers

        const dp::DatapathModule module = dp::make_module(type, widths[index]);
        proto.model = characterizer.characterize(module, proto_options);
        if (journaling) {
            // Publish every completed fit as it lands: a killed run only
            // repeats the prototypes that had not finished.
            const std::lock_guard<std::mutex> lock{journal_mutex};
            completed[index] = proto.model;
            save_proto_journal(journal, fingerprint, module_id, widths, completed);
        }
        return proto;
    });

    if (journaling) {
        std::error_code ec;
        std::filesystem::remove(journal, ec);
    }
    return prototypes;
}

std::size_t ParameterizableModel::samples_for(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= max_fitted_hd(), "Hd ", hd, " outside fitted range");
    return samples_[static_cast<std::size_t>(hd - 1)];
}

bool ParameterizableModel::used_ridge_fallback(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= max_fitted_hd(), "Hd ", hd, " outside fitted range");
    return ridge_[static_cast<std::size_t>(hd - 1)] != 0;
}

std::size_t ParameterizableModel::ridge_fallback_count() const noexcept
{
    std::size_t count = 0;
    for (const std::uint8_t used : ridge_) {
        count += used;
    }
    return count;
}

std::span<const double> ParameterizableModel::regression_vector(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= max_fitted_hd(), "Hd ", hd, " outside fitted range");
    return r_[static_cast<std::size_t>(hd - 1)];
}

double ParameterizableModel::coefficient(int hd, std::span<const int> operand_widths) const
{
    HDPM_REQUIRE(!r_.empty(), "model not fitted");
    HDPM_REQUIRE(hd >= 1, "bad Hd");
    const int clamped = std::min(hd, max_fitted_hd());
    const dp::ComplexityBasis& basis = dp::complexity_basis(type_);
    const std::vector<double> terms = basis.eval(operand_widths);
    const double p = util::dot(r_[static_cast<std::size_t>(clamped - 1)], terms);
    return std::max(p, 0.0);
}

HdModel ParameterizableModel::model_for(std::span<const int> operand_widths) const
{
    const int m = total_input_bits(type_, operand_widths);
    std::vector<double> coeffs(static_cast<std::size_t>(m), 0.0);
    for (int hd = 1; hd <= m; ++hd) {
        coeffs[static_cast<std::size_t>(hd - 1)] = coefficient(hd, operand_widths);
    }
    return HdModel{m, std::move(coeffs)};
}

HdModel ParameterizableModel::model_for(int width) const
{
    const std::array<int, 1> w = {width};
    return model_for(std::span<const int>{w});
}

} // namespace hdpm::core
