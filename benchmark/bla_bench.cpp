// bla_bench — the driver behind benchmark/run.sh (see README.md there).
//
//     bla_bench --workload W --seed S --seconds T --trace 0|1
//               [--replicad PATH] [--out DIR] [--gate]
//
// Cluster workloads spawn the unmodified replicad binary n times on
// loopback and drive it from one in-process BatchClient on one
// SocketNetwork loop thread. Simulator workloads build the same replicas
// over SimNetwork in this process. Every layer is reached only through
// public interfaces: IProcess/IContext and ISigner decorators
// (spans.hpp), obs::Registry JSON, /proc, and replicad --obs-dump.
//
// A run repeats fixed-size iterations (a fresh cluster or scenario each)
// until --seconds is used up and reports medians over them (a simulator
// run: its fastest iteration, see end_to_end), so one slow iteration does
// not move a metric. Untraced simulator iterations are timed on this
// thread's CPU clock, everything else on the steady clock (see
// run_sim_iteration). The last stdout line is the JSON result; every
// metric is also printed as "workload metric value unit". Exit status is
// nonzero, with no JSON line, when any output check fails.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/client.hpp"
#include "cluster.hpp"
#include "core/adversary.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"
#include "net/socket_network.hpp"
#include "obs/registry.hpp"
#include "rsm/command.hpp"
#include "rsm/replica.hpp"
#include "spans.hpp"
#include "testutil/properties.hpp"

using namespace bla;
using namespace blabench;

namespace {

// -- workloads -------------------------------------------------------------

// Client shape shared by every workload: B commands per batch, K batches
// in flight, 64-byte payloads; replicas checkpoint every 16 elements.
constexpr std::size_t kBatch = 16;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kCheckpointInterval = 16;
// Open-loop pacing grid: the client releases rate * kPaceInterval
// commands per tick, so command k is due at start + floor(k / per_tick)
// ticks.
constexpr double kPaceInterval = 0.05;
// Open-loop latency limit for the "commits its schedule" check, and the
// share of it by which p50 may rise across one schedule.
constexpr double kOpenLatencyLimit = 1.0;
constexpr double kOpenBacklogRise = 0.1;

struct Workload {
  const char* name;
  bool cluster = false;
  std::size_t n = 4;
  std::size_t f = 1;
  core::EngineKind engine = core::EngineKind::kGwts;
  bool ed25519 = false;
  std::size_t commands = 0;  // per iteration (closed loop, simulator)
  double rate = 0.0;         // open loop cmd/s (cluster only)
  double open_seconds = 0.0; // open-loop schedule per iteration
};

// Sizes are chosen so that one run holds many iterations: a shared host
// slows down for seconds at a time, and a run of many short iterations
// has some outside such phases (see README.md for the measurements
// behind them).
const Workload kWorkloads[] = {
    {.name = "gwts_closed", .cluster = true, .commands = 3200},
    {.name = "gwts_open", .cluster = true, .rate = 200.0, .open_seconds = 2.5},
    {.name = "sim_gwts_n7", .n = 7, .f = 2, .commands = 512},
    {.name = "sim_gsbs_ed25519",
     .engine = core::EngineKind::kGsbs,
     .ed25519 = true,
     .commands = 192},
};

// The cluster configuration (n=4, f=1, GWTS, HMAC) in the simulator:
// spans inside a replicad are not visible from outside it, so traced
// cluster runs take their per-module breakdown from this mirror.
const Workload kClusterMirror = {.name = "cluster_mirror", .commands = 3072};

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error(why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return obs::quantile_from_sorted(v, q);
}

// -- inputs ----------------------------------------------------------------

std::uint64_t key_seed_of(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 17;
}

std::vector<lattice::Value> make_commands(net::NodeId client,
                                          std::uint64_t first_seq,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5EEDBA5EULL);
  std::vector<lattice::Value> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    rsm::Command cmd;
    cmd.client = client;
    cmd.seq = first_seq + k;
    cmd.payload.resize(kPayload);
    for (std::uint8_t& b : cmd.payload) b = static_cast<std::uint8_t>(rng());
    out.push_back(rsm::encode_command(cmd));
  }
  return out;
}

// -- client event log ----------------------------------------------------------

using Clock = double (*)();

class BenchClock final : public obs::IClock {
public:
  explicit BenchClock(Clock clock) : clock_(clock) {}
  [[nodiscard]] double now() const override { return clock_(); }

private:
  Clock clock_;
};

/// A client registry whose trace ring holds every event of `commands`
/// commands, timestamped on `clock`.
std::shared_ptr<obs::Registry> client_registry(std::size_t commands,
                                               Clock clock) {
  obs::Registry::Options o;
  o.trace_capacity = 8 * (commands / kBatch + 1) + 1024;
  o.clock = std::make_shared<BenchClock>(clock);
  return std::make_shared<obs::Registry>(o);
}

struct BatchRecord {
  std::uint64_t id = 0;
  std::size_t first = 0;  // index of its first command (the builder is FIFO)
  std::size_t count = 0;
  double seal = 0.0;
  double confirm = -1.0;
  std::size_t seal_event = 0;
  std::size_t confirm_event = 0;
};

struct ClientLog {
  double submit = 0.0;  // on_start
  std::vector<BatchRecord> batches;  // seal order
  std::uint64_t retransmits = 0;
  std::string error;
};

ClientLog read_client_log(obs::Registry& reg) {
  ClientLog log;
  obs::TraceLog& trace = reg.trace();
  if (trace.total_recorded() > trace.capacity()) {
    log.error = "client trace log overflowed";
    return log;
  }
  const std::vector<obs::TraceEvent> events = trace.snapshot();
  std::map<std::uint64_t, std::size_t> by_id;
  std::size_t next_first = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    switch (ev.kind) {
      case obs::EventKind::kSubmit:
        log.submit = ev.time;
        break;
      case obs::EventKind::kBatchSeal: {
        BatchRecord b;
        b.id = ev.a;
        b.first = next_first;
        b.count = ev.b;
        b.seal = ev.time;
        b.seal_event = i;
        next_first += ev.b;
        by_id[ev.a] = log.batches.size();
        log.batches.push_back(b);
        break;
      }
      case obs::EventKind::kClientConfirm: {
        const auto it = by_id.find(ev.a);
        if (it != by_id.end()) {
          log.batches[it->second].confirm = ev.time;
          log.batches[it->second].confirm_event = i;
        }
        break;
      }
      case obs::EventKind::kBatchRetransmit:
        ++log.retransmits;
        break;
      default:
        break;
    }
  }
  for (const BatchRecord& b : log.batches) {
    if (b.confirm < 0.0) log.error = "a sealed batch was never confirmed";
  }
  if (log.batches.empty()) log.error = "client sealed no batch";
  return log;
}

/// Health warnings the current code raises on a healthy cluster, all on
/// the path of a replica that fell behind and catches up: a body fetch
/// asked peers before they held the body (it re-arms), a snapshot reply
/// arrived after its root was adopted (dropped, but counted as a reject),
/// and frames referencing a checkpoint root the replica does not know yet
/// overflowed their parking queue (the snapshot supersedes them). Each is
/// reported as a per-layer count, and the client and checkpoint checks
/// still show that a quorum decided everything. Any other warning fails
/// the run.
const char* const kToleratedWarnings[] = {"/fetch/exhausted",
                                          "/checkpoint/snapshot_rejects",
                                          "/checkpoint/replays_dropped"};

void check_health(const std::string& registry_json, const std::string& who) {
  const std::string key = "\"metric\": \"";
  for (std::size_t at =
           registry_json.find(key, registry_json.find("\"health\""));
       at != std::string::npos; at = registry_json.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    const std::string metric =
        registry_json.substr(begin, registry_json.find('"', begin) - begin);
    const bool tolerated = std::any_of(
        std::begin(kToleratedWarnings), std::end(kToleratedWarnings),
        [&](const std::string& suffix) {
          return metric.size() >= suffix.size() &&
                 metric.compare(metric.size() - suffix.size(), suffix.size(),
                                suffix) == 0;
        });
    if (!tolerated) fail(who + " reported health issue " + metric);
  }
}

double first_confirm(const ClientLog& log) {
  double t = INFINITY;
  for (const BatchRecord& b : log.batches) t = std::min(t, b.confirm);
  return t;
}

double last_confirm(const ClientLog& log) {
  double t = 0.0;
  for (const BatchRecord& b : log.batches) t = std::max(t, b.confirm);
  return t;
}

// -- per-iteration results ---------------------------------------------------------

using Flat = std::map<std::string, double>;

/// Registry JSON of every replica (and, in the simulator, the network's).
struct Registries {
  std::vector<Flat> flat;

  /// Values of the keys "<section>.<...><suffix>" in every registry.
  [[nodiscard]] std::vector<double> values(const std::string& section,
                                           const std::string& suffix) const {
    std::vector<double> out;
    for (const Flat& f : flat) {
      for (const auto& [k, v] : f) {
        if (k.rfind(section + ".", 0) == 0 && k.size() >= suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
          out.push_back(v);
        }
      }
    }
    return out;
  }
  [[nodiscard]] double sum(const std::string& section,
                           const std::string& suffix) const {
    double s = 0.0;
    for (const double v : values(section, suffix)) s += v;
    return s;
  }
  [[nodiscard]] double max(const std::string& section,
                           const std::string& suffix) const {
    double m = 0.0;
    for (const double v : values(section, suffix)) m = std::max(m, v);
    return m;
  }
};

/// Sealed batches minus the ones replica `id` has checkpointed.
double checkpoint_lag(const Flat& flat, std::size_t id,
                      std::uint64_t batches) {
  const auto it =
      flat.find("gauges.node" + std::to_string(id) + "/checkpoint/elements");
  return static_cast<double>(batches) -
         (it != flat.end() ? it->second : 0.0);
}

/// What one traced simulator iteration's spans add up to.
struct SpanStats {
  SpanTotals totals;
  double run_wall_s = 0.0;  // wall time inside SimNetwork::run
  std::uint64_t verify_repeats = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Module::kCount)>
      sent_bytes{};
  std::vector<double> latency_delays;  // per measured batch, simulated
  double delays_per_cmd = 0.0;
  std::uint64_t commands = 0;  // whole iteration
};

/// Times are on the iteration's clock (see run_sim_iteration), except
/// wall_total_s.
struct IterStats {
  bool traced = false;
  double setup_s = 0.0;
  double phase_s = 0.0;  // measured phase
  std::uint64_t measured_commands = 0;
  std::uint64_t total_commands = 0;  // warm-up included
  std::uint64_t batches = 0;         // sealed, warm-up included
  std::uint64_t failed = 0;          // dropped + failed commands
  std::vector<double> latency_ms;    // per measured command
  std::vector<double> due_to_seal_ms;
  std::vector<double> seal_to_confirm_ms;  // per measured batch
  std::vector<Span> batch_spans;           // derived, for the trace file
  std::uint64_t retransmits = 0;
  double peak_rss_mb = 0.0;
  // Replica side over the measured phase (/proc, or this thread).
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t wakeups = 0;
  double busy_frac_max = 0.0;
  double client_cpu_s = 0.0;
  std::uint64_t decide_bytes = 0;  // decide frames received by the client
  Registries registries;
  std::uint64_t client_msgs = 0;   // cluster: client-side net/* counters
  std::uint64_t client_bytes = 0;
  double checkpoint_lag_max = 0.0;  // sealed batches minus checkpointed
  std::optional<SpanStats> spans;
  double wall_total_s = 0.0;  // the whole iteration, set-up and checks
};

/// Per-command latencies of the measured batches (index >= skip), split
/// at the seal, and each batch's due-to-seal and in-flight spans for the
/// trace file. Open loop: command k is due on the pacing grid. Closed
/// loop: a batch's commands are due when a confirm frees the window slot
/// it waits for (the first K at start).
void client_latencies(const ClientLog& log, double rate, std::size_t skip,
                      NodeId client, IterStats& out) {
  std::vector<double> confirms;
  for (const BatchRecord& b : log.batches) confirms.push_back(b.confirm);
  std::sort(confirms.begin(), confirms.end());
  const std::size_t per_tick =
      static_cast<std::size_t>(std::llround(rate * kPaceInterval));
  for (std::size_t j = skip; j < log.batches.size(); ++j) {
    const BatchRecord& b = log.batches[j];
    const double slot = j < kWindow ? log.submit : confirms[j - kWindow];
    const auto due = [&](std::size_t k) {
      return rate > 0.0 ? log.submit + static_cast<double>(k / per_tick) *
                                           kPaceInterval
                        : slot;
    };
    out.seal_to_confirm_ms.push_back((b.confirm - b.seal) * 1e3);
    out.batch_spans.push_back(
        {due(b.first), b.seal, -1, client, Module::kDueToSeal, b.id});
    out.batch_spans.push_back(
        {b.seal, b.confirm, -1, client, Module::kInFlight, b.id});
    for (std::size_t k = b.first; k < b.first + b.count; ++k) {
      out.latency_ms.push_back((b.confirm - due(k)) * 1e3);
      out.due_to_seal_ms.push_back((b.seal - due(k)) * 1e3);
    }
  }
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct ThreadUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t voluntary = 0;
};

ThreadUsage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_nvcsw)};
}

double self_hwm_mb() {
  const auto status = read_file("/proc/self/status");
  if (!status) return 0.0;
  const std::size_t at = status->find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status->c_str() + at + 6, nullptr) / 1024.0;
}

// -- simulator iterations --------------------------------------------------------

/// Sits between the simulator and the client: after each callback that
/// recorded client events, notes how many events exist and the simulated
/// time, so each event can be dated in message delays too.
class SimTimeProbe final : public net::IProcess {
public:
  SimTimeProbe(std::unique_ptr<net::IProcess> inner,
               std::shared_ptr<obs::Registry> registry,
               std::vector<std::pair<std::uint64_t, double>>& marks)
      : inner_(std::move(inner)), registry_(std::move(registry)),
        marks_(marks) {}

  void on_start(net::IContext& ctx) override {
    inner_->on_start(ctx);
    mark(ctx);
  }
  void on_message(net::IContext& ctx, net::NodeId from,
                  wire::BytesView payload) override {
    inner_->on_message(ctx, from, payload);
    mark(ctx);
  }
  void on_timer(net::IContext& ctx, std::uint64_t token) override {
    inner_->on_timer(ctx, token);
    mark(ctx);
  }

private:
  void mark(net::IContext& ctx) {
    const std::uint64_t total = registry_->trace().total_recorded();
    if (marks_.empty() || marks_.back().first < total) {
      marks_.emplace_back(total, ctx.now());
    }
  }

  std::unique_ptr<net::IProcess> inner_;
  std::shared_ptr<obs::Registry> registry_;
  std::vector<std::pair<std::uint64_t, double>>& marks_;
};

double sim_time_of(const std::vector<std::pair<std::uint64_t, double>>& marks,
                   std::size_t event) {
  const auto it = std::upper_bound(
      marks.begin(), marks.end(), event,
      [](std::size_t e, const auto& m) { return e < m.first; });
  return it == marks.end() ? marks.back().second : it->second;
}

IterStats run_sim_iteration(const Workload& w, std::uint64_t seed,
                            SpanRecorder* rec) {
  IterStats st;
  st.traced = rec != nullptr;
  // The simulator runs on this thread alone and never blocks, so this
  // thread's CPU time is the iteration's wall time less the time the host
  // gave to other work. Traced iterations use the steady clock of the
  // spans instead: reading the CPU clock is a system call, and two per
  // span inflated short spans such as sends three- to fivefold.
  const Clock clock = rec != nullptr ? now_s : thread_cpu_s;
  const double wall_begin = now_s();
  const double t_begin = clock();
  const auto client_id = static_cast<net::NodeId>(w.n);

  auto sim_registry = std::make_shared<obs::Registry>();
  auto creg = client_registry(w.commands, clock);
  std::vector<std::shared_ptr<obs::Registry>> replica_registries;
  const auto signers =
      w.ed25519 ? crypto::make_ed25519_signer_set(w.n + 1, key_seed_of(seed))
                : crypto::make_hmac_signer_set(w.n + 1, key_seed_of(seed));
  const auto signer_for = [&](net::NodeId id)
      -> std::shared_ptr<const crypto::ISigner> {
    if (rec == nullptr) return signers->signer_for(id);
    return std::make_shared<TracedSigner>(signers->signer_for(id), *rec);
  };

  net::SimNetwork::Config nc;
  nc.seed = seed;
  nc.registry = sim_registry;
  net::SimNetwork net(std::move(nc));
  std::vector<rsm::RsmReplica*> replicas;
  for (net::NodeId id = 0; id < w.n; ++id) {
    std::unique_ptr<net::IProcess> p;
    if (id >= w.n - w.f) {
      p = std::make_unique<core::SilentProcess>();
    } else {
      // The replicad configuration, with recovery ticks in simulated
      // time (the simulation defaults).
      rsm::ReplicaConfig rc;
      rc.self = id;
      rc.n = w.n;
      rc.f = w.f;
      rc.engine = w.engine;
      rc.signer = signer_for(id);
      rc.digest_refs = true;
      rc.digest_decide_notifications = true;
      rc.registry = replica_registries.emplace_back(
          std::make_shared<obs::Registry>());
      rc.recovery.enabled = true;
      rc.checkpoint_interval = kCheckpointInterval;
      auto replica = std::make_unique<rsm::RsmReplica>(rc);
      replicas.push_back(replica.get());
      p = std::move(replica);
    }
    if (rec != nullptr) {
      p = std::make_unique<TracedProcess>(std::move(p), *rec, false);
    }
    net.add_process(std::move(p));
  }
  std::vector<lattice::Value> commands =
      make_commands(client_id, 0, w.commands, seed);
  lattice::ValueSet expected;
  for (const lattice::Value& c : commands) expected.insert(c);
  batch::BatchClient::Config cc;
  cc.self = client_id;
  cc.n = w.n;
  cc.f = w.f;
  cc.builder.max_commands = kBatch;
  cc.max_in_flight = kWindow;
  cc.registry = creg;
  auto client_owned = std::make_unique<batch::BatchClient>(
      cc, signer_for(client_id), std::move(commands));
  batch::BatchClient* client = client_owned.get();
  std::vector<std::pair<std::uint64_t, double>> marks;
  std::unique_ptr<net::IProcess> cp = std::make_unique<SimTimeProbe>(
      std::move(client_owned), creg, marks);
  if (rec != nullptr) {
    cp = std::make_unique<TracedProcess>(std::move(cp), *rec, true);
  }
  net.add_process(std::move(cp));

  // Set-up ends at the first confirmed batch, as on the cluster.
  const double t_run0 = clock();
  net.run(UINT64_MAX,
          [&] { return client->pipeline().batches_completed() >= 1; });
  const double t_setup = clock();
  st.setup_s = t_setup - t_begin;
  const ThreadUsage u0 = thread_usage();
  net.run(UINT64_MAX, [&] { return client->done(); });
  const double t_done = clock();
  const ThreadUsage u1 = thread_usage();
  st.phase_s = t_done - t_setup;
  st.user_s = u1.user_s - u0.user_s;
  st.sys_s = u1.sys_s - u0.sys_s;
  st.wakeups = u1.voluntary - u0.voluntary;

  if (!client->done()) fail("simulation drained before the client finished");
  st.failed =
      client->commands_dropped() + client->pipeline().commands_failed();
  if (st.failed != 0) fail("client dropped or failed commands");
  const ClientLog log = read_client_log(*creg);
  if (!log.error.empty()) fail(log.error);
  st.total_commands = w.commands;
  st.batches = log.batches.size();
  st.measured_commands = w.commands - log.batches.front().count;
  st.retransmits = log.retransmits;
  client_latencies(log, 0.0, 1, client_id, st);
  st.decide_bytes = net.metrics(client_id).bytes_delivered;

  if (rec != nullptr) {
    SpanStats ss;
    ss.totals = summarize(rec->spans(), w.n + 1);
    ss.run_wall_s = t_done - t_run0;
    ss.verify_repeats = rec->verify_repeats();
    for (std::size_t m = 0; m < ss.sent_bytes.size(); ++m) {
      ss.sent_bytes[m] = rec->sent_bytes(static_cast<Module>(m));
    }
    for (std::size_t j = 1; j < log.batches.size(); ++j) {
      const BatchRecord& b = log.batches[j];
      ss.latency_delays.push_back(sim_time_of(marks, b.confirm_event) -
                                  sim_time_of(marks, b.seal_event));
    }
    ss.delays_per_cmd =
        client->finish_time() / static_cast<double>(w.commands);
    ss.commands = w.commands;
    double busy = 0.0;
    for (std::size_t id = 0; id < replicas.size(); ++id) {
      busy = std::max(busy, ss.totals.busy_by_node_s[id]);
    }
    st.busy_frac_max = busy / ss.run_wall_s;
    st.spans = ss;
  }

  // Output checks, outside the timed phases: the lagging replicas catch
  // up, every correct replica holds every command, and all decided sets
  // form a chain.
  bool complete = false;
  for (int round = 0; round < 400 && !complete; ++round) {
    complete = std::all_of(replicas.begin(), replicas.end(),
                           [&](const rsm::RsmReplica* r) {
                             return expected.leq(r->state());
                           });
    if (!complete) net.run(20000);
  }
  if (!complete) fail("a correct replica is missing committed commands");
  std::vector<lattice::ValueSet> decided;
  for (const rsm::RsmReplica* r : replicas) {
    decided.push_back(r->engine().decided_set());
  }
  const std::string chain = testutil::check_comparability(decided);
  if (!chain.empty()) fail("decided sets not comparable: " + chain);

  st.registries.flat.push_back(*parse_flat_json(sim_registry->to_json()));
  for (std::size_t i = 0; i < replica_registries.size(); ++i) {
    const std::string json = replica_registries[i]->to_json();
    check_health(json, "simulated replica " + std::to_string(i));
    const Flat flat = *parse_flat_json(json);
    const double lag = checkpoint_lag(flat, i, st.batches);
    if (lag > static_cast<double>(kCheckpointInterval)) {
      fail("simulated replica " + std::to_string(i) +
           " checkpointed too few batches");
    }
    st.checkpoint_lag_max = std::max(st.checkpoint_lag_max, lag);
    st.registries.flat.push_back(flat);
  }
  st.peak_rss_mb = self_hwm_mb();
  st.wall_total_s = now_s() - wall_begin;
  return st;
}

// -- cluster iterations ------------------------------------------------------------

struct ClusterShape {
  std::size_t n = 0;
  std::size_t f = 0;
  std::vector<std::string> peers;
  std::uint64_t key_seed = 0;
};

struct ClientRun {
  ClientLog log;
  double thread_cpu_s = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

/// One BatchClient on one SocketNetwork loop, run until done. The client
/// settings are loadgen's: retry on, wall-second deadlines.
ClientRun run_socket_client(const ClusterShape& shape,
                            std::vector<lattice::Value> commands, double rate,
                            SpanRecorder* rec, double timeout_s) {
  const auto self = static_cast<net::NodeId>(shape.n);
  auto reg = client_registry(commands.size(), now_s);
  batch::BatchClient::Config cc;
  cc.self = self;
  cc.n = shape.n;
  cc.f = shape.f;
  cc.builder.max_commands = kBatch;
  cc.max_in_flight = kWindow;
  cc.registry = reg;
  cc.retry.enabled = true;
  cc.retry.deadline = 2.0;
  cc.retry.backoff = 1.5;
  cc.retry.max_attempts = 10;
  cc.retry.tick = 0.25;
  if (rate > 0.0) {
    cc.pace_interval = kPaceInterval;
    cc.pace_commands =
        static_cast<std::size_t>(std::llround(rate * kPaceInterval));
    cc.builder.max_delay = 0.1;
  }
  const auto signers =
      crypto::make_hmac_signer_set(shape.n + 1, shape.key_seed);
  auto client_owned = std::make_unique<batch::BatchClient>(
      cc, signers->signer_for(self), std::move(commands));
  batch::BatchClient* client = client_owned.get();
  std::unique_ptr<net::IProcess> proc = std::move(client_owned);
  if (rec != nullptr) {
    proc = std::make_unique<TracedProcess>(std::move(proc), *rec, true);
  }

  net::SocketNetwork::Config nc;
  nc.self = self;
  nc.cluster_n = shape.n;
  nc.peers = shape.peers;
  nc.seed = shape.key_seed * 7919ULL + self;
  nc.registry = reg;
  // Once done, nothing still queued matters: skip the shutdown drain.
  nc.drain_timeout = 0.0;
  net::SocketNetwork net(std::move(nc));
  net.host(std::move(proc));
  net.start();
  const double deadline = now_s() + timeout_s;
  while (!client->done() && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ClientRun run;
  // The loop thread's own CPU clock, read on that thread.
  net.call([&] {
    run.thread_cpu_s = thread_cpu_s();
    run.failed =
        client->commands_dropped() + client->pipeline().commands_failed();
  });
  const bool done = client->done();
  net.stop();
  if (!done) fail("client did not finish within its timeout");
  if (run.failed != 0) fail("client dropped or failed commands");
  run.log = read_client_log(*reg);
  if (!run.log.error.empty()) fail(run.log.error);
  run.msgs_sent = reg->counter("net/messages_sent").value();
  run.bytes_sent = reg->counter("net/bytes_sent").value();
  run.bytes_delivered = reg->counter("net/bytes_delivered").value();
  return run;
}

IterStats run_cluster_iteration(const Workload& w, std::uint64_t seed,
                                int iteration, const std::string& out_dir,
                                const std::string& replicad,
                                SpanRecorder* rec, bool final_iteration) {
  IterStats st;
  st.traced = rec != nullptr;
  const double t_begin = now_s();
  ClusterShape shape;
  shape.n = w.n;
  shape.f = w.f;
  shape.key_seed = key_seed_of(seed);
  const std::vector<std::uint16_t> ports = pick_ports(
      seed, static_cast<std::uint64_t>(iteration) + 1, w.n);
  const std::string conf = out_dir + "/cluster.conf";
  {
    std::ofstream out(conf);
    out << "n " << w.n << "\nf " << w.f << "\nengine gwts\n"
        << "key_scheme hmac\nkey_seed " << shape.key_seed
        << "\ncheckpoint_interval " << kCheckpointInterval << "\n";
    for (std::size_t i = 0; i < w.n; ++i) {
      shape.peers.push_back("127.0.0.1:" + std::to_string(ports[i]));
      out << "replica " << i << " " << shape.peers.back() << "\n";
    }
    if (!out) fail("cannot write " + conf);
  }
  const std::string prefix = out_dir + "/replica-";
  for (std::size_t i = 0; i < w.n; ++i) {
    std::filesystem::remove(prefix + std::to_string(i) + ".json");
  }

  const auto client_id = static_cast<net::NodeId>(w.n);
  const double t_spawn = now_s();
  ReplicaSet replicas({replicad, conf, prefix, w.n});
  // The client starts once every replica listens, so set-up does not
  // depend on whether its first dial raced a replica's bind.
  if (!wait_listening(ports, 10.0)) fail("replicads did not start listening");
  // Warm-up: one batch from a first client; the cluster is set up once
  // it is confirmed.
  const ClientRun warm = run_socket_client(
      shape, make_commands(client_id, 0, kBatch, seed), 0.0, nullptr, 30.0);
  st.setup_s = first_confirm(warm.log) - t_spawn;

  std::vector<ProcSample> before;
  for (const pid_t pid : replicas.pids()) {
    const auto s = sample_proc(pid);
    if (!s) fail("replicad exited during set-up");
    before.push_back(*s);
  }
  const double t0 = now_s();
  const std::size_t measured =
      w.rate > 0.0
          ? static_cast<std::size_t>(std::llround(w.rate * w.open_seconds))
          : w.commands;
  const ClientRun run = run_socket_client(
      shape, make_commands(client_id, kBatch, measured, seed), w.rate, rec,
      60.0);
  const double t1 = now_s();
  for (std::size_t i = 0; i < replicas.pids().size(); ++i) {
    const auto s = sample_proc(replicas.pids()[i]);
    if (!s) fail("replicad exited during the measured phase");
    const double cpu = (s->user_s - before[i].user_s) +
                       (s->sys_s - before[i].sys_s);
    st.user_s += s->user_s - before[i].user_s;
    st.sys_s += s->sys_s - before[i].sys_s;
    st.wakeups += s->voluntary_switches - before[i].voluntary_switches;
    st.busy_frac_max = std::max(st.busy_frac_max, cpu / (t1 - t0));
    st.peak_rss_mb = std::max(st.peak_rss_mb, s->hwm_mb);
  }

  st.measured_commands = measured;
  st.total_commands = measured + kBatch;
  st.batches = warm.log.batches.size() + run.log.batches.size();
  st.phase_s = last_confirm(run.log) - run.log.submit;
  st.retransmits = warm.log.retransmits + run.log.retransmits;
  st.client_cpu_s = run.thread_cpu_s;
  st.decide_bytes = warm.bytes_delivered + run.bytes_delivered;
  st.client_msgs = warm.msgs_sent + run.msgs_sent;
  st.client_bytes = warm.bytes_sent + run.bytes_sent;
  client_latencies(run.log, w.rate, 0, client_id, st);

  if (w.rate > 0.0) {
    // The schedule is met: nearly every command commits within the
    // latency limit of its due time, and no backlog builds up: the p50 of
    // the second half of the schedule exceeds that of the first half by
    // less than a tenth of the limit. (A ratio test fails on a healthy
    // cluster: the client's pacing timer drifts ~10 ms/s and each
    // decision costs more as history grows, so p50 rises by tens of ms
    // over a few seconds; an overloaded cluster rises by seconds. A tenth
    // of a 2.5 s schedule is too short: on a host that stole half of the
    // VM's CPU time, the p50 of a single last tenth rose by over 100 ms
    // while the cluster committed ~196 of 200 cmd/s.)
    const auto within = static_cast<double>(std::count_if(
        st.latency_ms.begin(), st.latency_ms.end(),
        [](double ms) { return ms <= kOpenLatencyLimit * 1e3; }));
    if (within < 0.98 * static_cast<double>(st.latency_ms.size())) {
      fail("open loop committed under 98% of its schedule within " +
           std::to_string(kOpenLatencyLimit) + " s of due");
    }
    const std::size_t half = st.latency_ms.size() / 2;
    const std::vector<double> head(st.latency_ms.begin(),
                                   st.latency_ms.begin() + half);
    const std::vector<double> tail(st.latency_ms.begin() + half,
                                   st.latency_ms.end());
    if (quantile(tail, 0.5) - quantile(head, 0.5) >
        kOpenBacklogRise * kOpenLatencyLimit * 1e3) {
      fail("open-loop latency grew across the schedule (backlog)");
    }
  }

  if (!replicas.all_alive()) fail("a replicad exited during the run");
  if (!final_iteration) {
    // Killed without a drain (see the call site); the final iteration of
    // the run carries the shutdown and dump checks.
    st.wall_total_s = now_s() - t_begin;
    return st;
  }
  // Replicas outside the confirm quorum may trail it; recovery ticks
  // every 0.25 s let them catch up before the clean shutdown.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::vector<int> codes = replicas.terminate(15.0);
  std::size_t lagging = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] != 0) {
      fail("replicad " + std::to_string(i) + " did not exit 0 on SIGTERM");
    }
    const auto text = read_file(replicas.dump_path(i));
    const auto flat = text ? parse_flat_json(*text) : std::nullopt;
    if (!flat) fail("replicad " + std::to_string(i) + " left no obs dump");
    check_health(*text, "replicad " + std::to_string(i));
    const double lag = checkpoint_lag(*flat, i, st.batches);
    st.checkpoint_lag_max = std::max(st.checkpoint_lag_max, lag);
    if (lag > static_cast<double>(kCheckpointInterval)) ++lagging;
    st.registries.flat.push_back(*flat);
  }
  // Every replica has checkpointed all but the last interval of sealed
  // batches. Up to f replicas may trail: the protocol promises progress
  // to a quorum only, and the current code sometimes leaves one replica
  // wedged far behind (reported as checkpoint.lag_max_batches).
  if (lagging > w.f) {
    fail(std::to_string(lagging) + " replicas checkpointed fewer than " +
         std::to_string(st.batches - kCheckpointInterval) + " of " +
         std::to_string(st.batches) + " sealed batches");
  }
  st.wall_total_s = now_s() - t_begin;
  return st;
}

// -- aggregation -------------------------------------------------------------------

double median_of(const std::vector<IterStats>& its,
                 double (*field)(const IterStats&)) {
  std::vector<double> v;
  for (const IterStats& s : its) v.push_back(field(s));
  return quantile(v, 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void end_to_end(const Workload& w, const std::vector<IterStats>& its,
                std::vector<Metric>& out) {
  // Latency quantiles are taken per iteration, over its commands. A
  // cluster iteration's work depends on timing (rounds, retries, recovery
  // ticks), so a cluster run reports medians over iterations. A simulator
  // iteration repeats the same deterministic work (every iteration sends
  // the same bytes, checked in main), so its iterations differ only by
  // how much other work on the host slowed them, and that only ever
  // slows: a simulator run reports its fastest iteration for each metric.
  // Set-up is the median everywhere.
  std::vector<double> rate, p50, p99;
  for (const IterStats& s : its) {
    rate.push_back(static_cast<double>(s.measured_commands) / s.phase_s);
    p50.push_back(quantile(s.latency_ms, 0.50));
    p99.push_back(quantile(s.latency_ms, 0.99));
  }
  const auto time = [&](const std::vector<double>& v) {
    return w.cluster ? quantile(v, 0.5) : *std::min_element(v.begin(), v.end());
  };
  out.push_back({"throughput_cmd_s",
                 w.cluster ? quantile(rate, 0.5)
                           : *std::max_element(rate.begin(), rate.end()),
                 "cmd/s"});
  out.push_back({"latency_p50_ms", time(p50), "ms"});
  out.push_back({"latency_p99_ms", time(p99), "ms"});
  out.push_back({"setup_s",
                 median_of(its, [](const IterStats& s) { return s.setup_s; }),
                 "s"});
}

/// Per-layer metrics. `its` are the workload's own iterations (cluster or
/// simulator); `traced` are simulator iterations with spans: the
/// workload's traced ones, or the mirror's for a cluster workload.
void per_layer(const Workload& w, const std::vector<IterStats>& its,
               const std::vector<IterStats>& traced, std::vector<Metric>& out) {
  // Replica CPU over measured phases: the replicads' /proc on a cluster;
  // on the simulator this thread in plain iterations (traced ones also
  // pay for the spans) and span busy time in traced ones.
  double cpu_cmds = 0, user = 0, sys = 0, wakeups = 0;
  std::vector<double> busy;
  for (const IterStats& s : its) {
    if (w.cluster || !s.traced) {
      cpu_cmds += static_cast<double>(s.measured_commands);
      user += s.user_s;
      sys += s.sys_s;
      wakeups += static_cast<double>(s.wakeups);
    }
    if (w.cluster || s.traced) busy.push_back(s.busy_frac_max);
  }
  out.push_back({"replica.user_cpu_ms_per_kcmd", user * 1e6 / cpu_cmds, "ms"});
  out.push_back({"net.sys_cpu_ms_per_kcmd", sys * 1e6 / cpu_cmds, "ms"});
  out.push_back({"replica.busy_frac_max", quantile(busy, 0.5), "fraction"});
  // A replicad's high-water mark is per iteration; this process's is
  // monotone, so the simulator reports its last (largest) reading.
  out.push_back({"replica.peak_rss_mb",
                 w.cluster ? median_of(its,
                                       [](const IterStats& s) {
                                         return s.peak_rss_mb;
                                       })
                           : its.back().peak_rss_mb,
                 "MB"});
  out.push_back({"net.wakeups_per_cmd", wakeups / cpu_cmds, "count"});

  // Replica registries: every simulator iteration, or the dumps of a
  // cluster run's final (cleanly shut down) iteration. They cover each
  // replica's whole life, warm-up included.
  const std::string engine =
      w.engine == core::EngineKind::kGsbs ? "/gsbs/" : "/gwts/";
  const auto correct = static_cast<double>(w.n - (w.cluster ? 0 : w.f));
  double cmds = 0, replica_batches = 0, msgs = 0, bytes = 0, rounds = 0,
         retries = 0, delivered = 0, fetches = 0, exhausted = 0,
         bodies_max = 0, rejects = 0, dropped = 0, lag_max = 0;
  for (const IterStats& s : its) {
    const Registries& r = s.registries;
    if (r.flat.empty()) continue;
    lag_max = std::max(lag_max, s.checkpoint_lag_max);
    cmds += static_cast<double>(s.total_commands);
    replica_batches += static_cast<double>(s.batches) * correct;
    msgs += r.sum("counters", "net/messages_sent") +
            static_cast<double>(s.client_msgs);
    bytes += r.sum("counters", "net/bytes_sent") +
             static_cast<double>(s.client_bytes);
    rounds += r.sum("counters", engine + "rounds");
    retries += r.sum("counters", engine + "retries");
    delivered += r.sum("counters", "/rbc/delivered");
    fetches += r.sum("counters", "/fetch/fetches_sent");
    exhausted += r.sum("counters", "/fetch/exhausted");
    rejects += r.sum("counters", "/checkpoint/snapshot_rejects");
    dropped += r.sum("counters", "/checkpoint/replays_dropped");
    bodies_max =
        std::max(bodies_max, r.max("gauges", "/checkpoint/store_bodies"));
  }
  out.push_back({"net.msgs_per_cmd", msgs / cmds, "count"});
  out.push_back({"net.bytes_per_cmd", bytes / cmds, "B"});
  out.push_back({"core.rounds_per_batch", rounds / replica_batches, "count"});
  out.push_back({"core.retries_per_round", retries / rounds, "count"});
  out.push_back(
      {"rbc.delivered_per_batch", delivered / replica_batches, "count"});
  out.push_back(
      {"store.fetches_per_batch", fetches / replica_batches, "count"});
  out.push_back(
      {"store.exhausted_per_batch", exhausted / replica_batches, "count"});
  out.push_back({"checkpoint.store_bodies_max", bodies_max, "count"});
  out.push_back({"checkpoint.snapshot_rejects_per_batch",
                 rejects / replica_batches, "count"});
  out.push_back({"checkpoint.replays_dropped_per_batch",
                 dropped / replica_batches, "count"});
  out.push_back({"checkpoint.lag_max_batches", lag_max, "count"});

  // Client side, every iteration.
  double total = 0, batches = 0, decide = 0, retrans = 0, client_cpu = 0,
         measured = 0;
  std::vector<double> due_to_seal, seal_to_confirm;
  for (const IterStats& s : its) {
    total += static_cast<double>(s.total_commands);
    batches += static_cast<double>(s.batches);
    measured += static_cast<double>(s.measured_commands);
    decide += static_cast<double>(s.decide_bytes);
    retrans += static_cast<double>(s.retransmits);
    client_cpu += s.client_cpu_s;
    due_to_seal.insert(due_to_seal.end(), s.due_to_seal_ms.begin(),
                       s.due_to_seal_ms.end());
    seal_to_confirm.insert(seal_to_confirm.end(),
                           s.seal_to_confirm_ms.begin(),
                           s.seal_to_confirm_ms.end());
  }
  out.push_back({"rsm.decide_bytes_per_batch", decide / batches, "B"});
  out.push_back(
      {"batch.due_to_seal_p50_ms", quantile(due_to_seal, 0.5), "ms"});
  out.push_back({"batch.seal_to_confirm_p50_ms",
                 quantile(seal_to_confirm, 0.5), "ms"});
  out.push_back({"batch.fill",
                 total / (batches * static_cast<double>(kBatch)), "fraction"});
  out.push_back(
      {"batch.retransmits_per_kcmd", retrans * 1e3 / total, "count"});

  // Spans of traced simulator iterations.
  constexpr std::size_t kModules = static_cast<std::size_t>(Module::kCount);
  std::array<double, kModules> self{};
  std::array<double, kModules> count{};
  std::array<double, kModules> sent{};
  double span_cmds = 0, top = 0, run_wall = 0, repeats = 0, span_msgs = 0,
         span_bytes = 0, client_busy = 0;
  std::vector<double> lat_delays, delays_per_cmd;
  for (const IterStats& s : traced) {
    const SpanStats& ss = *s.spans;
    for (std::size_t m = 0; m < kModules; ++m) {
      self[m] += ss.totals.self_s[m];
      count[m] += static_cast<double>(ss.totals.count[m]);
      sent[m] += static_cast<double>(ss.sent_bytes[m]);
    }
    span_cmds += static_cast<double>(ss.commands);
    top += ss.totals.top_level_s;
    run_wall += ss.run_wall_s;
    repeats += static_cast<double>(ss.verify_repeats);
    span_msgs += s.registries.sum("counters", "net/messages_sent");
    span_bytes += s.registries.sum("counters", "net/bytes_sent");
    client_busy += ss.totals.busy_by_node_s.back();
    lat_delays.insert(lat_delays.end(), ss.latency_delays.begin(),
                      ss.latency_delays.end());
    delays_per_cmd.push_back(ss.delays_per_cmd);
  }
  const auto ms_per_kcmd = [&](Module m) {
    return self[static_cast<std::size_t>(m)] * 1e6 / span_cmds;
  };
  const auto per_cmd = [&](Module m) {
    return count[static_cast<std::size_t>(m)] / span_cmds;
  };
  // The client's CPU: its loop thread on a cluster, its spans (children
  // included) in the simulator.
  out.push_back({"batch.client_cpu_ms_per_kcmd",
                 w.cluster ? client_cpu * 1e6 / measured
                           : client_busy * 1e6 / span_cmds,
                 "ms"});
  out.push_back({"crypto.verify_per_cmd", per_cmd(Module::kVerify), "count"});
  out.push_back(
      {"crypto.verify_ms_per_kcmd", ms_per_kcmd(Module::kVerify), "ms"});
  out.push_back({"crypto.sign_per_cmd", per_cmd(Module::kSign), "count"});
  out.push_back({"crypto.sign_ms_per_kcmd", ms_per_kcmd(Module::kSign), "ms"});
  const double verifies = count[static_cast<std::size_t>(Module::kVerify)];
  out.push_back({"crypto.verify_repeat_frac",
                 verifies > 0 ? repeats / verifies : 0.0, "fraction"});
  for (const Module m :
       {Module::kRbc, Module::kCore, Module::kRsm, Module::kTimer}) {
    out.push_back({std::string(module_name(m)) + ".self_ms_per_kcmd",
                   ms_per_kcmd(m), "ms"});
  }
  out.push_back({"net.send_ms_per_kcmd", ms_per_kcmd(Module::kSend), "ms"});
  out.push_back({"batch.client_self_ms_per_kcmd", ms_per_kcmd(Module::kBatch),
                 "ms"});
  out.push_back({"sim.msgs_per_cmd", span_msgs / span_cmds, "count"});
  out.push_back({"sim.bytes_per_cmd", span_bytes / span_cmds, "B"});
  for (const Module m : {Module::kRbc, Module::kCore, Module::kRsm}) {
    out.push_back({std::string("sim.bytes_per_cmd.") + module_name(m),
                   sent[static_cast<std::size_t>(m)] / span_cmds, "B"});
  }
  out.push_back(
      {"sim.latency_p50_delays", quantile(lat_delays, 0.5), "delays"});
  out.push_back(
      {"sim.delays_per_cmd", quantile(delays_per_cmd, 0.5), "delays"});
  out.push_back({"trace.unattributed_frac", 1.0 - top / run_wall, "fraction"});
}

// -- output ------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Exact simulator counters, for benchmark/gate.sh.
std::string counts_json(const std::string& workload, const IterStats& s,
                        const std::vector<Metric>& layer) {
  std::string out = "{\"workload\": \"" + workload + "\"";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ", \"messages\": %.0f, \"bytes\": %.0f",
                s.registries.sum("counters", "net/messages_sent"),
                s.registries.sum("counters", "net/bytes_sent"));
  out += buf;
  for (const Metric& m : layer) {
    if (m.name.rfind("sim.", 0) == 0 || m.name == "crypto.verify_per_cmd" ||
        m.name == "crypto.sign_per_cmd") {
      out += ", \"" + m.name + "\": " + json_number(m.value);
    }
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  bool gate = false;
  std::string out = ".bench_build/out";
  std::string replicad;
};

int usage() {
  std::fprintf(stderr,
               "usage: bla_bench --workload W [--seed S] [--seconds T] "
               "[--trace 0|1] [--gate] [--out DIR] [--replicad PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--gate") {
      a.gate = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (arg == "--out") a.out = v;
    else if (arg == "--replicad") a.replicad = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr || a.seconds <= 0.0) return usage();
  if (a.replicad.empty()) {
    a.replicad =
        (std::filesystem::canonical("/proc/self/exe").parent_path() / "bin" /
         "replicad")
            .string();
  }
  std::filesystem::create_directories(a.out);
  (void)now_s();  // start the benchmark clock

  try {
    std::vector<IterStats> its;
    std::vector<IterStats> traced_sims;
    std::unique_ptr<SpanRecorder> last_recorder;
    const double t_start = now_s();
    const auto remaining = [&] { return a.seconds - (now_s() - t_start); };

    if (a.gate) {
      // One traced iteration: its exact counters, nothing timed.
      if (w->cluster) return usage();
      auto rec = std::make_unique<SpanRecorder>();
      its.push_back(run_sim_iteration(*w, a.seed, rec.get()));
      std::vector<Metric> layer;
      per_layer(*w, its, its, layer);
      std::printf("%s\n", counts_json(w->name, its.back(), layer).c_str());
      return 0;
    }

    // Traced runs alternate plain and traced iterations (the difference
    // is the tracing overhead); a cluster run keeps 40% of its time for
    // the simulator mirror of its configuration. Killing a cluster is
    // instant while a clean SIGTERM shutdown takes ~2.5 s (settle plus
    // replicad's drain), so every cluster iteration but the run's last is
    // killed, and the last one carries the shutdown and dump checks.
    const double budget = w->cluster && a.trace ? 0.6 * a.seconds : a.seconds;
    const double shutdown = w->cluster ? 2.6 : 0.0;
    double longest = 0.0;
    for (int i = 0;; ++i) {
      const bool traced = a.trace && i % 2 == 1;
      const double left = budget - (now_s() - t_start);
      const bool final_iteration =
          i >= (a.trace ? 2 : 1) && left < 2.0 * longest + shutdown;
      std::unique_ptr<SpanRecorder> rec =
          traced ? std::make_unique<SpanRecorder>() : nullptr;
      IterStats s =
          w->cluster
              ? run_cluster_iteration(*w, a.seed, i, a.out, a.replicad,
                                      rec.get(), final_iteration)
              : run_sim_iteration(*w, a.seed, rec.get());
      if (!final_iteration) longest = std::max(longest, s.wall_total_s);
      std::fprintf(stderr,
                   "%s iteration %d%s: %.1f cmd/s, set-up %.4f s, "
                   "%.2f s wall\n",
                   w->name, i, traced ? " (traced)" : "",
                   static_cast<double>(s.measured_commands) / s.phase_s,
                   s.setup_s, s.wall_total_s);
      if (traced) {
        for (const Span& span : s.batch_spans) rec->add(span);
        last_recorder = std::move(rec);
        if (!w->cluster) traced_sims.push_back(s);
      }
      its.push_back(std::move(s));
      if (final_iteration) break;
    }
    if (w->cluster && a.trace) {
      double longest_mirror = 0.0;
      do {
        auto rec = std::make_unique<SpanRecorder>();
        IterStats s = run_sim_iteration(kClusterMirror, a.seed, rec.get());
        longest_mirror = std::max(longest_mirror, s.wall_total_s);
        traced_sims.push_back(std::move(s));
      } while (remaining() > longest_mirror);
    }

    // Iteration 0 warms the CPU and the caches: it is checked like the
    // others, but no metric uses it.
    const std::vector<IterStats> measured(its.begin() + (its.size() > 1),
                                          its.end());

    // Every simulator iteration must produce the same traffic.
    const std::vector<IterStats>& det = w->cluster ? traced_sims : its;
    for (const IterStats& s : det) {
      if (s.registries.sum("counters", "net/bytes_sent") !=
          det.front().registries.sum("counters", "net/bytes_sent")) {
        fail("simulator iterations diverged: not deterministic");
      }
    }

    std::vector<Metric> metrics;
    if (a.trace) {
      per_layer(*w, measured, traced_sims, metrics);
      std::vector<double> plain, with_spans;
      for (const IterStats& s : measured) {
        (s.traced ? with_spans : plain)
            .push_back(static_cast<double>(s.measured_commands) / s.phase_s);
      }
      metrics.push_back({"trace.overhead_frac",
                         1.0 - quantile(with_spans, 0.5) /
                                   quantile(plain, 0.5),
                         "fraction"});
      if (last_recorder) {
        const std::string path =
            a.out + "/trace-" + std::string(w->name) + ".json";
        if (!write_trace_file(path, last_recorder->spans())) {
          fail("cannot write " + path);
        }
      }
    } else {
      end_to_end(*w, measured, metrics);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const IterStats& s : its) {
      attempted += s.total_commands;
      failed += s.failed;
    }
    for (const Metric& m : metrics) {
      std::printf("%s %s %.6g %s\n", w->name, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string result =
        "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + metrics_json(metrics) + "}";
    {
      std::ofstream out(a.out + "/result-" + w->name + "-seed" +
                        std::to_string(a.seed) + "-trace" +
                        (a.trace ? "1" : "0") + ".json");
      out << "{\"workload\": \"" << w->name << "\", \"seed\": " << a.seed
          << ", \"iterations\": " << its.size() << ", \"result\": " << result
          << "}\n";
    }
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bla_bench: %s: FAILED: %s\n", w->name, e.what());
    return 1;
  }
}
