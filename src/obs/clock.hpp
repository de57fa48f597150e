#pragma once
// Pluggable time source for the observability layer (ISSUE 6).
//
// Every timestamp the registry hands out — trace events, lifecycle stage
// marks, latency histogram samples — flows through one IClock, so the
// same instrumentation reports *simulated* time under net::SimNetwork
// (the simulator drives a ManualClock to each delivered event's time,
// i.e. the paper's message-delay cost unit) and *wall-clock* seconds
// under net::SocketNetwork (the default WallClock). Protocol code never
// branches on which runtime it is in.

#include <atomic>
#include <chrono>

namespace bla::obs {

class IClock {
public:
  virtual ~IClock() = default;
  [[nodiscard]] virtual double now() const = 0;
};

/// Wall-clock seconds, monotone, relative to clock construction (keeping
/// values small preserves double precision over long runs).
class WallClock final : public IClock {
public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Externally driven clock. The deterministic simulator advances it to
/// the timestamp of each event it delivers; advance_to never moves time
/// backwards, so observers see a monotone clock even if drivers race.
class ManualClock final : public IClock {
public:
  void advance_to(double t) {
    double cur = time_.load(std::memory_order_relaxed);
    while (cur < t && !time_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double now() const override {
    return time_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<double> time_{0.0};
};

}  // namespace bla::obs
