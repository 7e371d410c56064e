#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/parallel.hpp"

namespace hdbench {

void Outcome::metric(const std::string& name, double value, const std::string& unit)
{
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it != metrics_.end()) {
        it->value = value;
        it->unit = unit;
    } else {
        metrics_.push_back(Metric{name, value, unit});
    }
}

void Outcome::check(bool ok, const std::string& what)
{
    if (!ok) {
        problems_.push_back(what);
    }
}

double peak_rss_mib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string read_file(const std::filesystem::path& path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::pair<std::string, std::string>> dir_files(const std::filesystem::path& dir)
{
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : std::filesystem::directory_iterator{dir}) {
        if (entry.is_regular_file()) {
            files.emplace_back(entry.path().filename().string(), read_file(entry.path()));
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) noexcept
{
    return hdpm::util::splitmix64(seed * 0x9e3779b97f4a7c15ULL + purpose);
}

} // namespace hdbench
