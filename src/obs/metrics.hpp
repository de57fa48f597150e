#pragma once
// Metric primitives of the observability layer: counters, gauges, and
// log-bucketed latency histograms.
//
// The Registry owns the storage (atomic cells, stable addresses); the
// Counter/Gauge/Histogram types handed to instrumented code are *views*
// — a single pointer into the registry. A default-constructed view is
// unbound and every operation on it is a no-op, so components can keep
// plain `Stats` structs of these views, instrument unconditionally, and
// pay nothing when nobody wired a registry up.
//
// Increments are lock-free relaxed atomics (the event loops of several
// SocketNetworks sharing one registry touch them concurrently); reads are
// snapshot-on-read.
// Relaxed is sufficient: metrics are monotone tallies, never used for
// inter-thread synchronization.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>

namespace bla::obs {

class Registry;

namespace detail {

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
  /// Warning-class counters feed Registry::health(): any nonzero value
  /// is reported as a health issue (the stall watchdog).
  bool warning = false;
};

struct GaugeCell {
  std::atomic<double> value{0.0};
  /// health() flags the gauge when value >= warn_at (0 = never).
  double warn_at = 0.0;
};

/// Log2-bucketed histogram for latencies in seconds. Bucket 0 holds
/// [0, kBase]; bucket i >= 1 holds (kBase*2^(i-1), kBase*2^i]; the top
/// bucket additionally absorbs overflow. With kBase = 1ns and 96 buckets
/// the range spans 1ns .. ~1.2e19s, far past anything a run produces, so
/// overflow never happens in practice — the clamp is just a guard.
struct HistogramCell {
  static constexpr std::size_t kBuckets = 96;
  static constexpr double kBase = 1e-9;

  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};  // valid only when count > 0
  std::atomic<double> max{0.0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
};

[[nodiscard]] std::size_t bucket_index(double v);
[[nodiscard]] double bucket_lower(std::size_t i);
[[nodiscard]] double bucket_upper(std::size_t i);

}  // namespace detail

class Counter {
public:
  Counter() = default;
  /// const so components can bump counters from const methods and so
  /// `Stats` accessors returning const refs stay usable — mutating an
  /// atomic through the view does not mutate the view.
  void inc(std::uint64_t delta = 1) const {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  Counter& operator++() {
    inc();
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  /// Implicit so existing tests comparing `stats().field` against
  /// integers keep compiling unchanged.
  operator std::uint64_t() const { return value(); }  // NOLINT

private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

inline std::ostream& operator<<(std::ostream& os, const Counter& c) {
  return os << c.value();
}

class Gauge {
public:
  Gauge() = default;
  void set(double v) const;
  void add(double delta) const;
  /// Raises the gauge to v if v is larger (high-water marks).
  void max_of(double v) const;
  [[nodiscard]] double value() const;

private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, detail::HistogramCell::kBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Quantile via bucket walk + linear interpolation inside the bucket,
  /// clamped to the observed [min, max]. Uses the same rank rule as
  /// quantile_from_sorted (rank = q*(count-1)) so registry exports and
  /// bench tables agree on quantile math.
  [[nodiscard]] double quantile(double q) const;
};

class Histogram {
public:
  Histogram() = default;
  void observe(double v) const;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const;

private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Exact quantile of a sorted sample: rank = q*(count-1), linearly
/// interpolated between neighbors. Shared with bench/bench_util.hpp so
/// the bench Stats table and HistogramSnapshot::quantile use one rule.
[[nodiscard]] double quantile_from_sorted(std::span<const double> sorted,
                                          double q);

}  // namespace bla::obs
