#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace aed {

namespace {

// Bucket 0's lower edge: 2^-30. Values at or below it (and all non-positive
// values) land in bucket 0; values at or above 2^33 land in bucket 63.
constexpr int kBucketExponentOffset = 30;

}  // namespace

double MetricsRegistry::bucketUpperBound(std::size_t i) {
  if (i + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(i) + 1 - kBucketExponentOffset);
}

double MetricsRegistry::bucketLowerBound(std::size_t i) {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - kBucketExponentOffset);
}

std::size_t MetricsRegistry::bucketIndex(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    return value > 0.0 ? kHistogramBuckets - 1 : 0;
  }
  const int idx = std::ilogb(value) + kBucketExponentOffset;
  if (idx < 0) return 0;
  if (idx >= static_cast<int>(kHistogramBuckets)) return kHistogramBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double MetricsRegistry::quantile(const Sample& sample, double q) {
  if (sample.count == 0 || sample.buckets.empty()) return 0.0;
  // The interpolated estimate stays inside the covering bucket, which can
  // reach past the extreme samples (up to 2x); the true quantile cannot.
  const auto clampToRange = [&sample](double estimate) {
    if (sample.min > sample.max) return estimate;  // extremes unknown
    return std::clamp(estimate, sample.min, sample.max);
  };
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil) in cumulative order.
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(sample.count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
    const std::uint64_t inBucket = sample.buckets[i];
    if (inBucket == 0) continue;
    if (static_cast<double>(cumulative + inBucket) < target) {
      cumulative += inBucket;
      continue;
    }
    // Interpolate linearly inside the covering bucket. The top bucket has no
    // finite upper edge; report its lower edge (a lower bound on the truth).
    const double lo = bucketLowerBound(i);
    const double hi = bucketUpperBound(i);
    if (!std::isfinite(hi)) return clampToRange(lo);
    const double fraction =
        (target - static_cast<double>(cumulative)) /
        static_cast<double>(inBucket);
    return clampToRange(lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0));
  }
  return clampToRange(bucketLowerBound(sample.buckets.size() - 1));
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked intentionally: metrics may be recorded from thread-exit paths
  // during process teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Metric MetricsRegistry::intern(const std::string& name,
                                                Kind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = cells_.try_emplace(name);
  if (inserted) it->second.kind = kind;
  return Metric(&it->second);
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = hists_.try_emplace(name);
  return Histogram(&it->second);
}

double MetricsRegistry::value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = cells_.find(name); it != cells_.end()) {
    return it->second.value.load(std::memory_order_relaxed);
  }
  if (const auto it = hists_.find(name); it != hists_.end()) {
    return static_cast<double>(
        it->second.count.load(std::memory_order_relaxed));
  }
  return 0.0;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> samples;
  const std::lock_guard<std::mutex> lock(mutex_);
  samples.reserve(cells_.size() + hists_.size());
  for (const auto& [name, cell] : cells_) {
    Sample sample;
    sample.name = name;
    sample.value = cell.value.load(std::memory_order_relaxed);
    sample.kind = cell.kind;
    samples.push_back(std::move(sample));
  }
  for (const auto& [name, cell] : hists_) {
    Sample sample;
    sample.name = name;
    sample.kind = Kind::kHistogram;
    sample.count = cell.count.load(std::memory_order_relaxed);
    sample.sum = cell.sum.load(std::memory_order_relaxed);
    sample.value = static_cast<double>(sample.count);
    sample.min = cell.min.load(std::memory_order_relaxed);
    sample.max = cell.max.load(std::memory_order_relaxed);
    sample.buckets.resize(kHistogramBuckets);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      sample.buckets[i] = cell.buckets[i].load(std::memory_order_relaxed);
    }
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return samples;
}

void MetricsRegistry::merge(const std::vector<Sample>& samples) {
  for (const Sample& sample : samples) {
    if (sample.kind == Kind::kHistogram) {
      const Histogram hist = histogram(sample.name);
      const std::size_t n =
          std::min<std::size_t>(sample.buckets.size(), kHistogramBuckets);
      for (std::size_t i = 0; i < n; ++i) {
        hist.cell_->buckets[i].fetch_add(sample.buckets[i],
                                         std::memory_order_relaxed);
      }
      hist.cell_->count.fetch_add(sample.count, std::memory_order_relaxed);
      hist.cell_->sum.fetch_add(sample.sum, std::memory_order_relaxed);
      hist.cell_->noteExtremes(sample.min, sample.max);
      continue;
    }
    const Metric metric = intern(sample.name, sample.kind);
    if (metric.cell_->kind == Kind::kCounter) {
      metric.add(sample.value);
    } else {
      metric.set(sample.value);
    }
  }
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cell] : cells_) {
    cell.value.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : hists_) {
    for (auto& bucket : cell.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0.0, std::memory_order_relaxed);
    cell.min.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    cell.max.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::summaryTable() const {
  const std::vector<Sample> samples = snapshot();
  std::size_t width = 0;
  for (const Sample& sample : samples) {
    width = std::max(width, sample.name.size());
  }
  std::string table;
  for (const Sample& sample : samples) {
    char value[160];
    if (sample.kind == Kind::kHistogram) {
      std::snprintf(value, sizeof(value),
                    "%llu samples  p50 %.4g  p90 %.4g  p99 %.4g  (histogram)",
                    static_cast<unsigned long long>(sample.count),
                    quantile(sample, 0.50), quantile(sample, 0.90),
                    quantile(sample, 0.99));
      table += "  ";
      table += sample.name;
      table.append(width - sample.name.size() + 2, ' ');
      table += value;
      table += "\n";
      continue;
    }
    // Counters are usually integral; print them without a fraction so the
    // table reads like counts, and keep 6 significant digits for seconds.
    if (sample.value == static_cast<double>(
                            static_cast<long long>(sample.value))) {
      std::snprintf(value, sizeof(value), "%lld",
                    static_cast<long long>(sample.value));
    } else {
      std::snprintf(value, sizeof(value), "%.6g", sample.value);
    }
    table += "  ";
    table += sample.name;
    table.append(width - sample.name.size() + 2, ' ');
    table += value;
    table += sample.kind == Kind::kGauge ? "  (gauge)\n" : "\n";
  }
  return table;
}

}  // namespace aed
