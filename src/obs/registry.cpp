#include "obs/registry.hpp"

#include <cstdio>
#include <string>

namespace bla::obs {

namespace {

/// Commands tracked at once; a Byzantine client flood evicts the oldest
/// entries rather than growing without bound.
constexpr std::size_t kMaxLifecycleEntries = std::size_t{1} << 16;

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void append_json_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // %g never emits a decimal point for integral values; that is still
  // valid JSON, so no fixup needed.
  out += buf;
}

void append_json_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kSubmit:
      return "submit";
    case Stage::kSeal:
      return "seal";
    case Stage::kRbcDeliver:
      return "rbc_deliver";
    case Stage::kDecide:
      return "decide";
    case Stage::kExecute:
      return "execute";
    case Stage::kConfirm:
      return "confirm";
  }
  return "unknown";
}

void Lifecycle::mark(const Key& key, Stage stage, std::uint32_t node) {
  (void)node;
  if (!enabled()) return;
  const double t = owner_.now();
  Stage prev_stage;
  double prev_time;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= kMaxLifecycleEntries) {
        entries_.erase(entries_.begin());
      }
      entries_.emplace(key, Entry{stage, t});
      return;  // first sighting: no transition to time yet
    }
    // Monotone: with a shared registry every replica marks kDecide etc.;
    // only the first arrival per stage advances the timeline.
    if (stage <= it->second.stage) return;
    prev_stage = it->second.stage;
    prev_time = it->second.time;
    it->second.stage = stage;
    it->second.time = t;
  }
  const std::string name = std::string("latency/") + stage_name(prev_stage) +
                           "_to_" + stage_name(stage);
  owner_.histogram(name).observe(t - prev_time);
}

std::size_t Lifecycle::tracked() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Registry::Registry(Options options)
    : clock_(options.clock ? std::move(options.clock)
                           : std::make_shared<WallClock>()),
      trace_(options.trace_capacity),
      lifecycle_(*this) {}

Counter Registry::counter(const std::string& name, bool warning) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto cell = std::make_unique<detail::CounterCell>();
    cell->warning = warning;
    it = counters_.emplace(name, std::move(cell)).first;
  }
  return Counter(&it->second->value);
}

Gauge Registry::gauge(const std::string& name, double warn_at) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    auto cell = std::make_unique<detail::GaugeCell>();
    cell->warn_at = warn_at;
    it = gauges_.emplace(name, std::move(cell)).first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<detail::HistogramCell>())
             .first;
  }
  return Histogram(it->second.get());
}

void Registry::set_clock(std::shared_ptr<IClock> clock) {
  if (clock) clock_ = std::move(clock);
}

HealthReport Registry::health() const {
  HealthReport report;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : counters_) {
    if (!cell->warning) continue;
    const std::uint64_t v = cell->value.load(std::memory_order_relaxed);
    if (v > 0) {
      report.issues.push_back(
          HealthIssue{name, static_cast<double>(v), 0.0});
    }
  }
  for (const auto& [name, cell] : gauges_) {
    if (cell->warn_at <= 0.0) continue;
    const double v = cell->value.load(std::memory_order_relaxed);
    if (v >= cell->warn_at) {
      report.issues.push_back(HealthIssue{name, v, cell->warn_at});
    }
  }
  return report;
}

std::string Registry::to_json() const {
  // Snapshot under the lock (cheap pointer/scalar reads), format after.
  struct HistEntry {
    std::string name;
    HistogramSnapshot snap;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistEntry> hists;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, cell] : counters_) {
      counters.emplace_back(name,
                            cell->value.load(std::memory_order_relaxed));
    }
    for (const auto& [name, cell] : gauges_) {
      gauges.emplace_back(name,
                          cell->value.load(std::memory_order_relaxed));
    }
    for (const auto& [name, cell] : histograms_) {
      hists.push_back(HistEntry{name, Histogram(cell.get()).snapshot()});
    }
  }
  const HealthReport report = health();

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": ";
    append_json_u64(out, v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": ";
    append_json_double(out, v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const HistEntry& h : hists) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, h.name);
    out += ": {\"count\": ";
    append_json_u64(out, h.snap.count);
    out += ", \"sum\": ";
    append_json_double(out, h.snap.sum);
    out += ", \"mean\": ";
    append_json_double(out, h.snap.mean());
    out += ", \"min\": ";
    append_json_double(out, h.snap.min);
    out += ", \"max\": ";
    append_json_double(out, h.snap.max);
    out += ", \"p50\": ";
    append_json_double(out, h.snap.quantile(0.50));
    out += ", \"p90\": ";
    append_json_double(out, h.snap.quantile(0.90));
    out += ", \"p99\": ";
    append_json_double(out, h.snap.quantile(0.99));
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"health\": {\"ok\": ";
  out += report.ok() ? "true" : "false";
  out += ", \"issues\": [";
  first = true;
  for (const HealthIssue& issue : report.issues) {
    if (!first) out += ", ";
    first = false;
    out += "{\"metric\": ";
    append_json_string(out, issue.metric);
    out += ", \"value\": ";
    append_json_double(out, issue.value);
    out += ", \"threshold\": ";
    append_json_double(out, issue.threshold);
    out += "}";
  }
  out += "]},\n";

  out += "  \"trace\": {\"recorded\": ";
  append_json_u64(out, trace_.total_recorded());
  out += ", \"capacity\": ";
  append_json_u64(out, trace_.capacity());
  out += "}\n}\n";
  return out;
}

std::shared_ptr<Registry> registry_or_private(
    std::shared_ptr<Registry> given) {
  if (given) return given;
  auto fresh = std::make_shared<Registry>();
  fresh->lifecycle().set_enabled(false);
  return fresh;
}

}  // namespace bla::obs
