#pragma once
// The benchmark's view of a replicad cluster from outside: child
// processes it spawns and reaps, their /proc counters, and the registry
// JSON each one dumps at SIGTERM.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace blabench {

/// Flattens a JSON document into "a.b.c" -> number (true = 1, false = 0,
/// array elements by index). Strings and nulls are skipped. Returns
/// nullopt on malformed input.
[[nodiscard]] std::optional<std::map<std::string, double>> parse_flat_json(
    const std::string& text);

[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// CPU, wakeups and memory of one process, read from /proc.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t voluntary_switches = 0;  // summed over threads
  double hwm_mb = 0.0;                   // VmHWM
};

[[nodiscard]] std::optional<ProcSample> sample_proc(pid_t pid);

/// `n` consecutive loopback ports, derived from (seed, salt), each free
/// to bind right now.
[[nodiscard]] std::vector<std::uint16_t> pick_ports(std::uint64_t seed,
                                                    std::uint64_t salt,
                                                    std::size_t n);

/// Waits until every port has a listening TCP socket on this host (read
/// from /proc/net/tcp, so nothing connects to it). False on timeout.
[[nodiscard]] bool wait_listening(const std::vector<std::uint16_t>& ports,
                                  double timeout_s);

/// n replicad processes. Whatever is still running when the set is
/// destroyed is killed and reaped, and each child also dies with the
/// thread that spawned it, so no replicad outlives the benchmark.
class ReplicaSet {
public:
  struct Options {
    std::string replicad;   // binary
    std::string config;     // cluster config file
    std::string out_prefix; // dump/log files: <prefix><id>.json / .log
    std::size_t n = 0;
  };

  explicit ReplicaSet(Options options);
  ~ReplicaSet();
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  [[nodiscard]] const std::vector<pid_t>& pids() const { return pids_; }
  /// True while every replicad is still running.
  [[nodiscard]] bool all_alive();
  /// SIGTERM to all, then waits up to `timeout_s` for each. Returns each
  /// replica's exit code (-1 for killed by a signal or timed out).
  std::vector<int> terminate(double timeout_s);
  [[nodiscard]] std::string dump_path(std::size_t id) const;

private:
  void kill_all();

  Options options_;
  std::vector<pid_t> pids_;  // -1 once reaped
};

}  // namespace blabench
