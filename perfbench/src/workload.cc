#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void MetricSet::Add(const std::string& name, const std::string& unit,
                    double value) {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return;
  }
  metrics_.push_back({name, unit, value});
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "partition_cold", "partition_small", "partition_warm", "run_infer",
      "serve_mlp"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir) {
  if (name == "partition_cold") return MakePartitionCold();
  if (name == "partition_small") return MakePartitionSmall();
  if (name == "partition_warm") return MakePartitionWarm(scratch_dir);
  if (name == "run_infer") return MakeRunInfer();
  if (name == "serve_mlp") return MakeServeMlp();
  return nullptr;
}

double OutputError(const std::vector<partir::Tensor>& got,
                   const std::vector<partir::Tensor>& want) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (got.size() != want.size()) return kInf;
  double worst = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].dims() != want[i].dims()) return kInf;
    double scale = 1;
    for (float value : want[i].data()) {
      scale = std::max(scale, std::fabs(static_cast<double>(value)));
    }
    for (int64_t j = 0; j < got[i].size(); ++j) {
      double diff = std::fabs(static_cast<double>(got[i].at(j)) -
                              static_cast<double>(want[i].at(j)));
      if (!(diff <= kInf)) return kInf;  // NaN
      worst = std::max(worst, diff / scale);
    }
  }
  return worst;
}

}  // namespace perfbench
