// Order statistics and the JSON number format the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace polybench {

// Linear interpolation between closest ranks (Python's
// statistics.quantiles "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

std::vector<double> to_us(const std::vector<std::int64_t>& ns);

// A double with all its digits, as a JSON number (null when not finite).
std::string json_number(double value);

// VmHWM of this process, in MiB (0 when unreadable).
double peak_rss_mb();

}  // namespace polybench
