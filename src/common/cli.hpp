// Tiny command-line flag parser for benches and examples.
//
// Supported forms: --flag (boolean), --key value, --key=value.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "plrupart/common/assert.hpp"

namespace plrupart {

class Cli {
 public:
  Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True if --name appears (either bare or with a value).
  [[nodiscard]] bool has(std::string_view name) const {
    for (const auto& a : args_) {
      if (a == name) return true;
      if (a.size() > name.size() && a.compare(0, name.size(), name) == 0 &&
          a[name.size()] == '=')
        return true;
    }
    return false;
  }

  /// Raw string value of --name, if present.
  [[nodiscard]] std::optional<std::string> value(std::string_view name) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const auto& a = args_[i];
      if (a == name) {
        if (i + 1 < args_.size()) return args_[i + 1];
        return std::nullopt;
      }
      if (a.size() > name.size() && a.compare(0, name.size(), name) == 0 &&
          a[name.size()] == '=')
        return a.substr(name.size() + 1);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string get_string(std::string_view name, std::string def) const {
    auto v = value(name);
    return v ? *v : std::move(def);
  }

  [[nodiscard]] std::int64_t get_int(std::string_view name, std::int64_t def) const {
    auto v = value(name);
    if (!v) return def;
    std::int64_t out{};
    const auto* begin = v->data();
    const auto* end = begin + v->size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    PLRUPART_ASSERT_MSG(ec == std::errc{} && ptr == end,
                        "bad integer for flag " + std::string(name));
    return out;
  }

  /// Whole-string parse: trailing junk ("5x"), non-numbers and out-of-range
  /// values ("1e400") all throw, naming the flag and the offending text.
  [[nodiscard]] double get_double(std::string_view name, double def) const {
    auto v = value(name);
    if (!v) return def;
    double out{};
    const auto* begin = v->data();
    const auto* end = begin + v->size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    PLRUPART_ASSERT_MSG(ec == std::errc{} && ptr == end,
                        "bad number for flag " + std::string(name) + ": '" + *v + "'");
    return out;
  }

 private:
  std::vector<std::string> args_;
};

/// Whole-string unsigned parse that names the offending context on failure
/// ("bad <what>: '<text>'"). Rejects empty strings, signs, and trailing junk.
[[nodiscard]] inline std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value{};
  const auto* begin = text.data();
  const auto* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  PLRUPART_ASSERT_MSG(!text.empty() && ec == std::errc{} && ptr == end,
                      "bad " + std::string(what) + ": '" + std::string(text) + "'");
  return value;
}

/// Split a comma-separated list, dropping empty items ("a,,b" -> {a, b}).
[[nodiscard]] inline std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace plrupart
