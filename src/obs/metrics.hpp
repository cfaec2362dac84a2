// Named counter/gauge/histogram registry (the unified observability layer,
// §10, extended by the introspection layer, §12).
//
// The engine's quantitative health signals used to live in disconnected
// structs — AedStats phase breakdowns, SimCacheStats, deployment stage
// counters — each with its own printing code. The registry gives them one
// namespace ("aed.repair_rounds", "sim.route_hits", "deploy.stages_committed")
// and one summary table; the legacy structs stay populated for compatibility
// and are mirrored into the registry at well-defined join points (never from
// worker threads — workers report through their per-subproblem results and
// the single-threaded caller publishes the merge, keeping the accounting
// TSan-clean by construction).
//
// Counters are monotonic sums (merge = add); gauges are last-written values
// (merge = overwrite); histograms are log-scaled fixed-bucket distributions
// (merge = bucket-wise add). Mutation through a Metric/Histogram handle is a
// handful of relaxed atomic ops — safe from any thread, including ThreadPool
// workers (unlike the counter-mirroring convention above, histogram records
// are per-event samples with no cross-field invariant, so concurrent
// recording is TSan-clean by definition). The registry mutex covers only
// name lookup and registration.
//
// Histogram bucket scheme: power-of-two buckets. Bucket i holds values in
// [2^(i-30), 2^(i-29)); bucket 0 additionally absorbs everything at or below
// 2^-30 (~0.93 ns when the unit is seconds), bucket 63 everything at or
// above 2^33 (~8.6e9). 64 buckets cover sub-nanosecond latencies through
// billions-scale solver conflict counts with < 2x relative error, and the
// record path is one std::ilogb plus three relaxed atomic adds (the <100 ns
// budget asserted by bench_obs). Each histogram also tracks the smallest
// and largest recorded value (a compare-exchange only when a new extreme
// arrives). Quantiles (p50/p90/p99) are estimated by linear interpolation
// inside the covering bucket, then clamped to [min, max]: an estimate never
// exceeds the largest sample nor undercuts the smallest (DESIGN.md §12).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace aed {

class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  static constexpr std::size_t kHistogramBuckets = 64;
  /// Exclusive upper bound of bucket `i` (inclusive lower bound of bucket
  /// i+1); +inf for the last bucket.
  static double bucketUpperBound(std::size_t i);
  /// Inclusive lower bound of bucket `i`; 0 for bucket 0.
  static double bucketLowerBound(std::size_t i);
  /// Bucket index for a recorded value (values <= 0 land in bucket 0).
  static std::size_t bucketIndex(double value);

  /// Stable handle to one counter/gauge; cheap to copy, valid for the
  /// registry's lifetime. Mutations are atomic and safe from any thread.
  class Metric {
   public:
    Metric() = default;
    void add(double delta) const {
      if (cell_ != nullptr) cell_->value.fetch_add(delta, order());
    }
    void incr() const { add(1.0); }
    void set(double value) const {
      if (cell_ != nullptr) cell_->value.store(value, order());
    }
    double value() const {
      return cell_ != nullptr ? cell_->value.load(order()) : 0.0;
    }

   private:
    friend class MetricsRegistry;
    struct Cell {
      std::atomic<double> value{0.0};
      Kind kind = Kind::kCounter;
    };
    static constexpr std::memory_order order() {
      return std::memory_order_relaxed;
    }
    explicit Metric(Cell* cell) : cell_(cell) {}
    Cell* cell_ = nullptr;
  };

  /// Stable handle to one histogram. record() is wait-free (relaxed atomic
  /// adds) and safe from any thread; cache the handle on hot paths so the
  /// name lookup happens once.
  class Histogram {
   public:
    Histogram() = default;
    void record(double value) const {
      if (cell_ == nullptr) return;
      cell_->buckets[bucketIndex(value)].fetch_add(
          1, std::memory_order_relaxed);
      cell_->count.fetch_add(1, std::memory_order_relaxed);
      cell_->sum.fetch_add(value, std::memory_order_relaxed);
      cell_->noteExtremes(value, value);
    }
    std::uint64_t count() const {
      return cell_ != nullptr
                 ? cell_->count.load(std::memory_order_relaxed)
                 : 0;
    }

   private:
    friend class MetricsRegistry;
    struct Cell {
      std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
      std::atomic<std::uint64_t> count{0};
      std::atomic<double> sum{0.0};
      std::atomic<double> min{std::numeric_limits<double>::infinity()};
      std::atomic<double> max{-std::numeric_limits<double>::infinity()};

      /// Lowers min to `low` and raises max to `high` where they extend the
      /// recorded range; a plain load when they do not.
      void noteExtremes(double low, double high) {
        double seen = min.load(std::memory_order_relaxed);
        while (low < seen && !min.compare_exchange_weak(
                                 seen, low, std::memory_order_relaxed)) {
        }
        seen = max.load(std::memory_order_relaxed);
        while (high > seen && !max.compare_exchange_weak(
                                  seen, high, std::memory_order_relaxed)) {
        }
      }
    };
    explicit Histogram(Cell* cell) : cell_(cell) {}
    Cell* cell_ = nullptr;
  };

  struct Sample {
    std::string name;
    double value = 0.0;  // counter/gauge value; histogram: the sample count
    Kind kind = Kind::kCounter;
    // Histogram payload (empty `buckets` for counters/gauges).
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> buckets;
    /// Smallest / largest recorded value; +inf / -inf when unknown (no
    /// samples, or a sample built without them).
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  /// Quantile estimate (q in [0,1]) from a histogram sample's buckets via
  /// linear interpolation inside the covering bucket, clamped to the
  /// sample's [min, max] when known; 0 when count == 0.
  static double quantile(const Sample& sample, double q);

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry the engine reports into.
  static MetricsRegistry& global();

  /// Finds or creates a counter (monotonic sum) with this name.
  Metric counter(const std::string& name) {
    return intern(name, Kind::kCounter);
  }
  /// Finds or creates a gauge (last-written value) with this name.
  Metric gauge(const std::string& name) { return intern(name, Kind::kGauge); }
  /// Finds or creates a histogram with this name.
  Histogram histogram(const std::string& name);

  /// Convenience one-shot mutators.
  void add(const std::string& name, double delta) {
    counter(name).add(delta);
  }
  void set(const std::string& name, double value) { gauge(name).set(value); }
  void record(const std::string& name, double value) {
    histogram(name).record(value);
  }
  /// Current value; 0 for a name never recorded. Histograms report their
  /// sample count.
  double value(const std::string& name) const;

  /// All metrics, sorted by name.
  std::vector<Sample> snapshot() const;

  /// Merges a snapshot in: counters add, gauges overwrite, histograms add
  /// bucket-wise. A name keeps the kind it was first registered with.
  void merge(const std::vector<Sample>& samples);

  /// Resets every value to 0 (registrations and handles stay valid).
  void reset();

  /// Human-readable aligned table of snapshot(), one metric per line;
  /// histograms render count plus p50/p90/p99 estimates; empty string when
  /// nothing was recorded.
  std::string summaryTable() const;

 private:
  Metric intern(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  // std::map: node-stable, so Metric/Histogram handles survive later
  // registrations.
  std::map<std::string, Metric::Cell> cells_;
  std::map<std::string, Histogram::Cell> hists_;
};

}  // namespace aed
