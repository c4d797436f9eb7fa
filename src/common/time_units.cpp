#include "common/time_units.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dtpsim {

fs_t parse_duration(const std::string& text) {
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str())
    throw std::invalid_argument("'" + text + "' is not a duration");
  const std::string suffix(end);
  double fs_per_unit = 0;
  if (suffix == "ns") fs_per_unit = 1e6;
  else if (suffix == "us") fs_per_unit = 1e9;
  else if (suffix == "ms") fs_per_unit = 1e12;
  else if (suffix == "s") fs_per_unit = 1e15;
  else
    throw std::invalid_argument("'" + text +
                                "' needs a duration unit suffix (ns|us|ms|s)");
  if (!(x > 0))
    throw std::invalid_argument("duration '" + text + "' must be positive");
  return static_cast<fs_t>(x * fs_per_unit);
}

std::int64_t parse_i64(const char* prefix, const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  if (errno != 0 || end == v.c_str() || *end != '\0')
    throw std::invalid_argument(std::string(prefix) + ": bad integer for " + key + ": '" +
                                v + "'");
  return static_cast<std::int64_t>(out);
}

double parse_f64(const char* prefix, const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (errno != 0 || end == v.c_str() || *end != '\0')
    throw std::invalid_argument(std::string(prefix) + ": bad number for " + key + ": '" +
                                v + "'");
  return out;
}

std::string fmt_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_duration(fs_t t) {
  const bool neg = t < 0;
  const double a = std::abs(static_cast<double>(t));
  const char* unit = "fs";
  double value = a;
  if (a >= static_cast<double>(kFsPerSec)) {
    unit = "s";
    value = a / static_cast<double>(kFsPerSec);
  } else if (a >= static_cast<double>(kFsPerMs)) {
    unit = "ms";
    value = a / static_cast<double>(kFsPerMs);
  } else if (a >= static_cast<double>(kFsPerUs)) {
    unit = "us";
    value = a / static_cast<double>(kFsPerUs);
  } else if (a >= static_cast<double>(kFsPerNs)) {
    unit = "ns";
    value = a / static_cast<double>(kFsPerNs);
  } else if (a >= static_cast<double>(kFsPerPs)) {
    unit = "ps";
    value = a / static_cast<double>(kFsPerPs);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.4g%s", neg ? "-" : "", value, unit);
  return buf;
}

}  // namespace dtpsim
