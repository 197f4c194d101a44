#include "util/cli.h"

#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace ftspan {

namespace {

/// Parses all of `text` with `parse` (std::stoll / std::stod style); throws
/// std::invalid_argument naming --name on garbage or trailing characters.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* expected, Parse parse) {
  try {
    std::size_t consumed = 0;
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + name + " expects " + expected +
                              ", got '" + text + "'");
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  FTSPAN_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2)
      throw std::invalid_argument("unexpected argument: " + arg +
                                  " (flags must look like --name[=value])");
    arg.erase(0, 2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // boolean switch
    }
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole(name, it->second, "an integer",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stoll(s, pos);
                     });
}

std::uint64_t Cli::get_uint(const std::string& name,
                            std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::int64_t value =
      parse_whole(name, it->second, "a non-negative integer",
                  [](const std::string& s, std::size_t* pos) {
                    return std::stoll(s, pos);
                  });
  if (value < 0)
    throw std::invalid_argument("--" + name + " must be non-negative, got " +
                                it->second);
  return static_cast<std::uint64_t>(value);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const double value = parse_whole(name, it->second, "a number",
                                   [](const std::string& s, std::size_t* pos) {
                                     return std::stod(s, pos);
                                   });
  // Written as !(in range) so NaN, which fails every comparison, is caught
  // along with the infinities.
  constexpr double kMax = std::numeric_limits<double>::max();
  if (!(value >= -kMax && value <= kMax))
    throw std::invalid_argument("--" + name + " must be finite, got " +
                                it->second);
  return value;
}

}  // namespace ftspan
