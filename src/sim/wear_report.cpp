#include "sim/wear_report.h"

#include <algorithm>

namespace nvmsec {

WearReport analyze_wear(const Device& device) {
  const DeviceGeometry& geom = device.geometry();
  const std::uint64_t n = geom.num_lines();
  const std::uint64_t lpr = geom.lines_per_region();

  WearReport report;
  std::vector<double> utilization(n);
  report.region_utilization.assign(geom.num_regions(), 0.0);
  double consumed = 0;
  report.min_line_utilization = 1.0;
  for (std::uint64_t l = 0; l < n; ++l) {
    const PhysLineAddr line{l};
    const auto budget = static_cast<double>(device.write_budget(line));
    const auto used = static_cast<double>(device.writes_to(line));
    consumed += used;
    const double u = budget > 0 ? used / budget : 0.0;
    utilization[l] = u;
    report.region_utilization[l / lpr] += u / static_cast<double>(lpr);
    report.max_line_utilization = std::max(report.max_line_utilization, u);
    report.min_line_utilization = std::min(report.min_line_utilization, u);
    if (device.is_worn_out(line)) ++report.worn_out_lines;
  }
  report.harvest_fraction =
      device.total_budget() > 0 ? consumed / device.total_budget() : 0.0;
  report.utilization_gini = gini_inplace(utilization);
  return report;
}

}  // namespace nvmsec
