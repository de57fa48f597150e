#pragma once
// obs::Registry — the process-wide observability substrate (ISSUE 6).
//
// One registry holds every named counter, gauge, and latency histogram a
// run produces, plus the TraceLog ring and the command Lifecycle
// tracker. Components receive a shared_ptr<Registry> through their
// Config; when none is provided they create a private one through
// registry_or_private (lifecycle tracking off), so per-instance Stats stay exact in unit tests while
// scenario/bench code can hand every node a single registry and read the
// whole system at once. Shared registries disambiguate with name
// prefixes ("node0/rbc/delivered").
//
// health() is the stall watchdog: warning-class counters (registered
// with warning=true) and gauges past their warn_at threshold become
// explicit issues — oversized broadcasts near/over rbc::kMaxPayloadBytes,
// fetch rotation exhaustion, parked-queue shedding — instead of silently
// accumulating in a struct nobody reads.
//
// to_json() exports everything (histograms with p50/p90/p99) for the
// bench binaries' BENCH_*.json files.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bla::obs {

/// Command-lifecycle stages, in causal order. Stage transitions feed the
/// "latency/<from>_to_<to>" histograms — the per-stage latency data the
/// acceptance criteria (seal -> rbc_deliver -> decide -> execute) and
/// ROADMAP items 2/4 report through. kPropose et al. are trace-only
/// events, not stages: stages are points every command passes exactly
/// once on its way to confirmation.
enum class Stage : std::uint8_t {
  kSubmit = 0,
  kSeal,
  kRbcDeliver,
  kDecide,
  kExecute,
  kConfirm,
};

[[nodiscard]] const char* stage_name(Stage s);

struct HealthIssue {
  std::string metric;
  double value = 0.0;
  double threshold = 0.0;  // 0 for warning counters (any nonzero fires)
};

struct HealthReport {
  std::vector<HealthIssue> issues;
  [[nodiscard]] bool ok() const { return issues.empty(); }
};

class Registry;

/// Tracks each command (keyed by its value digest) through the Stage
/// sequence and feeds stage-transition latency histograms. Marks are
/// monotone: a repeated or regressing stage is ignored, so with a
/// registry shared across n replicas the *first* replica to reach a
/// stage defines the command's timeline (the client-visible latency).
class Lifecycle {
public:
  using Key = crypto::Sha256::Digest;

  void mark(const Key& key, Stage stage, std::uint32_t node);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Callers hashing values solely to produce a key can skip the hash
  /// when tracking is off.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t tracked() const;

private:
  friend class Registry;
  explicit Lifecycle(Registry& owner) : owner_(owner) {}

  struct Entry {
    Stage stage = Stage::kSubmit;
    double time = 0.0;
  };

  Registry& owner_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
};

class Registry {
public:
  struct Options {
    std::size_t trace_capacity = 4096;
    /// Defaults to WallClock; SimNetwork swaps in a ManualClock it
    /// drives with simulated time.
    std::shared_ptr<IClock> clock;
  };

  Registry() : Registry(Options{}) {}
  explicit Registry(Options options);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns a view bound to the named metric, creating the cell on
  /// first use. Cells live as long as the registry; repeated lookups of
  /// one name return views of the same cell. `warning` / `warn_at` stick
  /// from the first registration.
  [[nodiscard]] Counter counter(const std::string& name,
                                bool warning = false);
  [[nodiscard]] Gauge gauge(const std::string& name, double warn_at = 0.0);
  [[nodiscard]] Histogram histogram(const std::string& name);

  [[nodiscard]] double now() const { return clock_->now(); }
  [[nodiscard]] const std::shared_ptr<IClock>& clock() const {
    return clock_;
  }
  /// Swap the time source. Do this at wiring time, before any
  /// concurrent use — the pointer itself is not synchronized.
  void set_clock(std::shared_ptr<IClock> clock);

  [[nodiscard]] TraceLog& trace() { return trace_; }
  void trace_event(std::uint32_t node, EventKind kind, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
    trace_.record(now(), node, kind, a, b);
  }

  [[nodiscard]] Lifecycle& lifecycle() { return lifecycle_; }

  /// Stall-watchdog report: every warning counter with a nonzero value
  /// and every gauge at/past its warn_at threshold.
  [[nodiscard]] HealthReport health() const;

  /// Full JSON export: counters, gauges, histograms (count/sum/mean/
  /// min/max/p50/p90/p99), health issues, and trace-ring metadata.
  /// Deterministic key order (name-sorted) for diffable bench output.
  [[nodiscard]] std::string to_json() const;

private:
  friend class Lifecycle;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
  std::shared_ptr<IClock> clock_;
  TraceLog trace_;
  Lifecycle lifecycle_;
};

/// The one private-registry rule for components handed an optional
/// registry: `given` itself, or — when null — a fresh private registry
/// with command-lifecycle tracking disabled (nobody reads a private
/// registry's lifecycle, and tracking hashes every marked value).
[[nodiscard]] std::shared_ptr<Registry> registry_or_private(
    std::shared_ptr<Registry> given);

}  // namespace bla::obs
