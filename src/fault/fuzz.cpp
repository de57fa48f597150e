#include "fault/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "batch/client.hpp"
#include "checkpoint/checkpoint.hpp"
#include "core/adversary.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"
#include "rsm/command.hpp"
#include "rsm/replica.hpp"
#include "testutil/properties.hpp"
#include "testutil/socket_scenario.hpp"

namespace bla::fault {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr AdversaryKind kAllAdversaries[] = {
    AdversaryKind::kSilent,      AdversaryKind::kEquivocate,
    AdversaryKind::kNackSpam,    AdversaryKind::kPromiscuous,
    AdversaryKind::kRoundJumper, AdversaryKind::kGarbage,
    AdversaryKind::kReplay,      AdversaryKind::kWithhold,
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string_view adversary_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kSilent: return "silent";
    case AdversaryKind::kEquivocate: return "equiv";
    case AdversaryKind::kNackSpam: return "nackspam";
    case AdversaryKind::kPromiscuous: return "promisc";
    case AdversaryKind::kRoundJumper: return "jumper";
    case AdversaryKind::kGarbage: return "garbage";
    case AdversaryKind::kReplay: return "replay";
    case AdversaryKind::kWithhold: return "withhold";
  }
  return "?";
}

namespace {

std::optional<AdversaryKind> adversary_from_name(std::string_view name) {
  for (AdversaryKind k : kAllAdversaries) {
    if (adversary_name(k) == name) return k;
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec codec.
// ---------------------------------------------------------------------------

std::string FuzzSchedule::spec() const {
  std::string out;
  const auto kv = [&out](std::string_view key, const std::string& value) {
    out += key;
    out += '=';
    out += value;
    out += ';';
  };
  kv("seed", std::to_string(seed));
  kv("engine", engine == core::EngineKind::kGwts ? "gwts" : "gsbs");
  kv("net", net == NetKind::kSim ? "sim" : "socket");
  kv("n", std::to_string(n));
  kv("f", std::to_string(f));
  kv("clients", std::to_string(clients));
  kv("cmds", std::to_string(commands_per_client));
  kv("batch", std::to_string(batch_size));
  if (!adversaries.empty()) {
    std::string v;
    for (AdversaryKind k : adversaries) {
      if (!v.empty()) v += ',';
      v += adversary_name(k);
    }
    kv("adv", v);
  }
  if (checkpoint_interval != 0) {
    kv("ckpt", std::to_string(checkpoint_interval));
  }
  if (laggard) kv("lag", "1");
  kv("fseed", std::to_string(plan.seed));
  if (plan.default_link.drop != 0.0) {
    kv("drop", fmt_double(plan.default_link.drop));
  }
  if (plan.default_link.duplicate != 0.0) {
    kv("dup", fmt_double(plan.default_link.duplicate));
  }
  if (plan.default_link.reorder != 0.0) {
    kv("reorder", fmt_double(plan.default_link.reorder));
  }
  if (!plan.partitions.empty()) {
    std::string v;
    for (const PartitionSpec& p : plan.partitions) {
      if (!v.empty()) v += '|';
      v += fmt_double(p.start) + ":" + fmt_double(p.heal) + ":";
      for (std::size_t i = 0; i < p.side_a.size(); ++i) {
        if (i != 0) v += '.';
        v += std::to_string(p.side_a[i]);
      }
    }
    kv("parts", v);
  }
  if (!plan.crashes.empty()) {
    std::string v;
    for (const CrashSpec& c : plan.crashes) {
      if (!v.empty()) v += '|';
      v += std::to_string(c.node) + ":" + fmt_double(c.crash) + ":" +
           fmt_double(c.recover);
    }
    kv("crashes", v);
  }
  out.pop_back();  // trailing ';'
  return out;
}

namespace {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parse_f64(std::string_view s, double& out) {
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  out = v;
  return true;
}

}  // namespace

std::optional<FuzzSchedule> FuzzSchedule::parse(std::string_view spec) {
  FuzzSchedule s;
  s.commands_per_client = 0;  // require explicit cmds
  for (std::string_view pair : split(spec, ';')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    std::uint64_t u = 0;
    if (key == "seed") {
      if (!parse_u64(value, s.seed)) return std::nullopt;
    } else if (key == "engine") {
      if (value == "gwts") {
        s.engine = core::EngineKind::kGwts;
      } else if (value == "gsbs") {
        s.engine = core::EngineKind::kGsbs;
      } else {
        return std::nullopt;
      }
    } else if (key == "net") {
      if (value == "sim") {
        s.net = NetKind::kSim;
      } else if (value == "socket") {
        s.net = NetKind::kSocket;
      } else {
        return std::nullopt;
      }
    } else if (key == "n") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.n = u;
    } else if (key == "f") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.f = u;
    } else if (key == "clients") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.clients = u;
    } else if (key == "cmds") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.commands_per_client = u;
    } else if (key == "batch") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.batch_size = u;
    } else if (key == "adv") {
      for (std::string_view name : split(value, ',')) {
        const auto kind = adversary_from_name(name);
        if (!kind) return std::nullopt;
        s.adversaries.push_back(*kind);
      }
    } else if (key == "ckpt") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.checkpoint_interval = u;
    } else if (key == "lag") {
      if (value != "0" && value != "1") return std::nullopt;
      s.laggard = value == "1";
    } else if (key == "fseed") {
      if (!parse_u64(value, s.plan.seed)) return std::nullopt;
    } else if (key == "drop") {
      if (!parse_f64(value, s.plan.default_link.drop)) return std::nullopt;
    } else if (key == "dup") {
      if (!parse_f64(value, s.plan.default_link.duplicate)) {
        return std::nullopt;
      }
    } else if (key == "reorder") {
      if (!parse_f64(value, s.plan.default_link.reorder)) {
        return std::nullopt;
      }
    } else if (key == "parts") {
      for (std::string_view part : split(value, '|')) {
        const auto fields = split(part, ':');
        if (fields.size() != 3) return std::nullopt;
        PartitionSpec p;
        if (!parse_f64(fields[0], p.start)) return std::nullopt;
        if (!parse_f64(fields[1], p.heal)) return std::nullopt;
        for (std::string_view id : split(fields[2], '.')) {
          if (!parse_u64(id, u)) return std::nullopt;
          p.side_a.push_back(static_cast<net::NodeId>(u));
        }
        s.plan.partitions.push_back(std::move(p));
      }
    } else if (key == "crashes") {
      for (std::string_view crash : split(value, '|')) {
        const auto fields = split(crash, ':');
        if (fields.size() != 3) return std::nullopt;
        CrashSpec c;
        if (!parse_u64(fields[0], u)) return std::nullopt;
        c.node = static_cast<net::NodeId>(u);
        if (!parse_f64(fields[1], c.crash)) return std::nullopt;
        if (!parse_f64(fields[2], c.recover)) return std::nullopt;
        s.plan.crashes.push_back(c);
      }
    } else {
      return std::nullopt;
    }
  }
  if (s.n < 2 || s.f >= s.n || s.clients == 0 ||
      s.commands_per_client == 0 || s.batch_size == 0 ||
      s.adversaries.size() > s.f) {
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

FuzzSchedule generate_schedule(std::uint64_t seed, core::EngineKind engine,
                               NetKind net) {
  FuzzSchedule s;
  s.seed = seed ? seed : 1;
  s.engine = engine;
  s.net = net;
  std::uint64_t rng = s.seed ^ 0xf002baadULL;
  (void)splitmix64(rng);  // decorrelate from the raw seed

  // Topology: mostly the minimal n=4/f=1, occasionally n=7/f=2 so two
  // adversaries can collude.
  if (splitmix64(rng) % 4 == 0) {
    s.n = 7;
    s.f = 2;
  } else {
    s.n = 4;
    s.f = 1;
  }
  s.clients = 1 + splitmix64(rng) % 2;
  s.commands_per_client = std::size_t{8} << (splitmix64(rng) % 3);  // 8..32
  s.batch_size = 2 + splitmix64(rng) % 7;                           // 2..8

  // Adversary cocktail: 0..f slots, kinds drawn uniformly.
  const std::size_t adv_count = splitmix64(rng) % (s.f + 1);
  for (std::size_t i = 0; i < adv_count; ++i) {
    s.adversaries.push_back(
        kAllAdversaries[splitmix64(rng) % std::size(kAllAdversaries)]);
  }

  // Checkpointing: half the schedules run with aggressive intervals
  // (8/16/32 decided elements) so GC and snapshot catch-up see the same
  // fault cocktail as the base protocol; a quarter of those also bench a
  // laggard that must recover via a root-checked snapshot.
  if (splitmix64(rng) % 2 == 0) {
    s.checkpoint_interval = std::size_t{8} << (splitmix64(rng) % 3);
    s.laggard = splitmix64(rng) % 4 == 0;
  }

  // Fault plan. Abstract time units are simulator message delays; the
  // socket runtime's windows are the same shape scaled to wall seconds.
  const double ts = net == NetKind::kSocket ? kSocketTimeScale : 1.0;
  s.plan.seed = splitmix64(rng) | 1;
  s.plan.default_link.drop = 0.005 * static_cast<double>(splitmix64(rng) % 4);
  s.plan.default_link.duplicate =
      0.005 * static_cast<double>(splitmix64(rng) % 3);
  s.plan.default_link.reorder =
      0.005 * static_cast<double>(splitmix64(rng) % 3);

  if (splitmix64(rng) % 2 == 0) {
    PartitionSpec p;
    p.start = ts * static_cast<double>(10 + splitmix64(rng) % 30);
    p.heal = p.start + ts * static_cast<double>(10 + splitmix64(rng) % 30);
    // Isolate either one random replica or the low half.
    if (splitmix64(rng) % 2 == 0) {
      p.side_a.push_back(static_cast<net::NodeId>(splitmix64(rng) % s.n));
    } else {
      for (net::NodeId id = 0; id < static_cast<net::NodeId>(s.n / 2);
           ++id) {
        p.side_a.push_back(id);
      }
    }
    s.plan.partitions.push_back(std::move(p));
  }

  if (splitmix64(rng) % 2 == 0) {
    CrashSpec c;
    c.node = static_cast<net::NodeId>(splitmix64(rng) % s.n);
    c.crash = ts * static_cast<double>(15 + splitmix64(rng) % 30);
    c.recover = c.crash + ts * static_cast<double>(15 + splitmix64(rng) % 30);
    s.plan.crashes.push_back(c);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

namespace {

/// Everything one run constructs, with raw observer pointers retained.
struct BuiltSystem {
  std::unique_ptr<FaultyNetwork> faulty;
  std::vector<std::unique_ptr<net::IProcess>> processes;  // by node id
  std::vector<rsm::RsmReplica*> correct_replicas;
  std::vector<batch::BatchClient*> clients;
  core::ValueSet expected_commands;
};

/// Round budget per engine. The fuzz workloads are tiny (a handful of
/// batches), so the budget only covers post-fault catch-up — and GSbS
/// rounds are heavyweight (signed cert broadcasts each round, even when
/// idle), so its tail must be an order of magnitude shorter than GWTS's
/// cheap idle rounds or the sim sweep spends minutes signing nothing.
std::uint64_t engine_round_budget(core::EngineKind engine) {
  return engine == core::EngineKind::kGsbs ? 24 : 120;
}

std::unique_ptr<net::IProcess> make_adversary(
    AdversaryKind kind, net::NodeId id, const FuzzSchedule& s,
    const std::shared_ptr<crypto::ISignerSet>& signers,
    const core::RecoveryConfig& recovery, std::uint64_t noise_seed) {
  switch (kind) {
    case AdversaryKind::kSilent:
      return std::make_unique<core::SilentProcess>();
    case AdversaryKind::kEquivocate: {
      wire::Encoder a;
      a.str("evil-a");
      a.u64(noise_seed);
      wire::Encoder b;
      b.str("evil-b");
      b.u64(noise_seed);
      return std::make_unique<core::EquivocatingDiscloser>(s.n, a.take(),
                                                          b.take());
    }
    case AdversaryKind::kNackSpam:
      return std::make_unique<core::UnsafeNackSpammer>();
    case AdversaryKind::kPromiscuous:
      return std::make_unique<core::PromiscuousAcker>();
    case AdversaryKind::kRoundJumper:
      return std::make_unique<core::RoundJumper>(24 + noise_seed % 32);
    case AdversaryKind::kGarbage:
      return std::make_unique<core::GarbageSpammer>(noise_seed);
    case AdversaryKind::kReplay:
      return std::make_unique<core::ReplayAttacker>(noise_seed, s.n);
    case AdversaryKind::kWithhold: {
      // A *correct* replica whose outbound traffic to roughly half the
      // replicas is silently withheld — the two-faced fault.
      rsm::ReplicaConfig rc;
      rc.self = id;
      rc.n = s.n;
      rc.f = s.f;
      rc.max_rounds = engine_round_budget(s.engine);
      rc.engine = s.engine;
      rc.signer = signers->signer_for(id);
      rc.recovery = recovery;
      rc.checkpoint_interval = s.checkpoint_interval;
      std::vector<net::NodeId> victims;
      for (net::NodeId v = 0; v < static_cast<net::NodeId>(s.n); ++v) {
        if (v != id && (v + noise_seed) % 2 == 0) victims.push_back(v);
      }
      return std::make_unique<core::WithholdingProcess>(
          std::make_unique<rsm::RsmReplica>(rc), std::move(victims));
    }
  }
  return std::make_unique<core::SilentProcess>();
}

BuiltSystem build_system(const FuzzSchedule& s,
                         const core::RecoveryConfig& recovery,
                         const batch::RetryPolicy& retry) {
  BuiltSystem sys;
  FaultPlan plan = s.plan;
  if (s.laggard) {
    // The laggard window: replica 0 sleeps through the bulk of the run
    // and recovers late, when peers have checkpointed past its horizon —
    // the snapshot catch-up path is its only way back.
    const double ts = s.net == NetKind::kSocket ? kSocketTimeScale : 1.0;
    CrashSpec lag;
    lag.node = 0;
    lag.crash = ts * 10.0;
    lag.recover = ts * 220.0;
    plan.crashes.push_back(lag);
  }
  sys.faulty = std::make_unique<FaultyNetwork>(plan);

  // Deterministic keys shared by replicas and clients (GSbS engine
  // traffic + client batch signatures).
  const auto signers =
      crypto::make_hmac_signer_set(s.n + s.clients, s.seed);
  std::uint64_t rng = s.seed ^ 0xad7e65a11ULL;

  const auto wrap = [&sys](std::unique_ptr<net::IProcess> p) {
    sys.processes.push_back(sys.faulty->wrap(std::move(p)));
  };

  for (net::NodeId id = 0; id < static_cast<net::NodeId>(s.n); ++id) {
    // Adversary k occupies id n-1-k.
    const std::size_t from_top = s.n - 1 - id;
    if (from_top < s.adversaries.size()) {
      wrap(make_adversary(s.adversaries[from_top], id, s, signers, recovery,
                          splitmix64(rng)));
      continue;
    }
    rsm::ReplicaConfig rc;
    rc.self = id;
    rc.n = s.n;
    rc.f = s.f;
    rc.max_rounds = engine_round_budget(s.engine);
    rc.engine = s.engine;
    rc.signer = signers->signer_for(id);
    rc.recovery = recovery;
    rc.checkpoint_interval = s.checkpoint_interval;
    auto replica = std::make_unique<rsm::RsmReplica>(rc);
    sys.correct_replicas.push_back(replica.get());
    wrap(std::move(replica));
  }

  for (std::size_t c = 0; c < s.clients; ++c) {
    const auto id = static_cast<net::NodeId>(s.n + c);
    std::vector<lattice::Value> commands;
    commands.reserve(s.commands_per_client);
    for (std::size_t k = 0; k < s.commands_per_client; ++k) {
      rsm::Command cmd;
      cmd.client = id;
      cmd.seq = k;
      cmd.nop = false;
      wire::Encoder payload;
      payload.str("fuzz-op");
      payload.u32(id);
      payload.uvarint(k);
      cmd.payload = payload.take();
      commands.push_back(rsm::encode_command(cmd));
      sys.expected_commands.insert(commands.back());
    }
    batch::BatchClient::Config cc;
    cc.self = id;
    cc.n = s.n;
    cc.f = s.f;
    cc.builder.max_commands = s.batch_size;
    cc.retry = retry;
    auto client = std::make_unique<batch::BatchClient>(
        cc, signers->signer_for(id), std::move(commands));
    sys.clients.push_back(client.get());
    wrap(std::move(client));
  }
  return sys;
}

void check_safety(const BuiltSystem& sys, FuzzResult& result) {
  std::vector<std::vector<core::Decision>> chains;
  chains.reserve(sys.correct_replicas.size());
  for (const rsm::RsmReplica* r : sys.correct_replicas) {
    chains.push_back(r->engine().decisions());
  }
  for (const auto& chain : chains) {
    const std::string err = testutil::check_local_stability(chain);
    if (!err.empty()) {
      result.safety_ok = false;
      result.violation = "local stability: " + err;
      return;
    }
  }
  {
    const std::string err = testutil::check_gla_comparability(chains);
    if (!err.empty()) {
      result.safety_ok = false;
      result.violation = "comparability: " + err;
      return;
    }
  }
  // Checkpointed durability: compaction must never lose committed state.
  // Every element the replica's latest accumulator snapshot covers must
  // still be reachable through its (logical) decided set — the value a
  // client confirmed before the checkpoint stays decided after it.
  for (const rsm::RsmReplica* r : sys.correct_replicas) {
    const checkpoint::CheckpointManager* ck = r->engine().checkpoints();
    if (ck == nullptr || ck->latest().seq == 0) continue;
    const core::ValueSet decided = r->engine().decided_set();
    for (const core::Value& v : *ck->latest().elements) {
      if (!decided.contains(v)) {
        result.safety_ok = false;
        result.violation =
            "checkpoint durability: committed element missing from "
            "decided set";
        return;
      }
    }
  }
  // Durability: with every client drained without give-ups, every
  // submitted command must appear in at least one correct replica's
  // state (completion required f+1 reporters, so one was correct).
  result.commands_failed = 0;
  bool all_done = true;
  for (const batch::BatchClient* c : sys.clients) {
    all_done = all_done && c->done();
    result.commands_failed += c->pipeline().commands_failed();
    result.commands_failed += c->commands_dropped();
  }
  result.clients_done = all_done;
  if (all_done && result.commands_failed == 0) {
    core::ValueSet union_state;
    for (const rsm::RsmReplica* r : sys.correct_replicas) {
      union_state.merge(r->state());
    }
    for (const core::Value& cmd : sys.expected_commands) {
      if (!union_state.contains(cmd)) {
        result.safety_ok = false;
        result.violation =
            "durability: confirmed command absent from every correct "
            "replica's state";
        return;
      }
    }
  }
}

FuzzResult run_sim(const FuzzSchedule& s) {
  core::RecoveryConfig recovery;
  recovery.enabled = true;
  batch::RetryPolicy retry;
  retry.enabled = true;
  retry.deadline = 24.0;
  retry.tick = 6.0;
  retry.max_attempts = 8;

  BuiltSystem sys = build_system(s, recovery, retry);
  net::SimNetwork::Config cfg;
  cfg.seed = s.seed;
  net::SimNetwork net{std::move(cfg)};
  for (auto& p : sys.processes) net.add_process(std::move(p));

  const auto all_done = [&sys] {
    return std::all_of(sys.clients.begin(), sys.clients.end(),
                       [](const auto* c) { return c->done(); });
  };
  net.run(80'000'000, all_done);
  net.run(80'000'000);  // residual: let correct replicas catch up

  FuzzResult result;
  result.injected_faults = sys.faulty->injector().injected_faults();
  check_safety(sys, result);
  return result;
}

FuzzResult run_socket(const FuzzSchedule& s) {
  core::RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.tick = 0.03;
  recovery.stall_after = 0.06;
  batch::RetryPolicy retry;
  retry.enabled = true;
  retry.deadline = 0.1;
  retry.tick = 0.03;
  retry.max_attempts = 8;

  BuiltSystem sys = build_system(s, recovery, retry);
  testutil::LoopbackHost host(s.n, s.seed);
  host.host_all(std::move(sys.processes));

  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(8);
  while (Clock::now() < deadline) {
    const bool all_done =
        std::all_of(sys.clients.begin(), sys.clients.end(),
                    [](const auto* c) { return c->done(); });
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Quiescence: no process sent a frame for 5 polls in a row (3 s cap).
  const obs::Counter sent = host.registry()->counter("net/messages_sent");
  const auto quiet_deadline = Clock::now() + std::chrono::seconds(3);
  std::uint64_t last = sent.value();
  for (int idle = 0; idle < 5 && Clock::now() < quiet_deadline;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t now_sent = sent.value();
    idle = now_sent == last ? idle + 1 : 0;
    last = now_sent;
  }
  // kill, not stop: the checks read in-memory state once the loop threads
  // have joined, and a graceful drain can spend drain_timeout per network
  // flushing to partitioned peers.
  host.kill();

  FuzzResult result;
  result.injected_faults = sys.faulty->injector().injected_faults();
  check_safety(sys, result);
  return result;
}

}  // namespace

FuzzResult run_schedule(const FuzzSchedule& schedule) {
  return schedule.net == NetKind::kSim ? run_sim(schedule)
                                       : run_socket(schedule);
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

ShrinkOutcome shrink(const FuzzSchedule& failing, std::size_t max_runs) {
  ShrinkOutcome out;
  out.schedule = failing;

  const auto still_fails = [&out, max_runs](const FuzzSchedule& cand,
                                            std::string& violation) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    const FuzzResult r = run_schedule(cand);
    if (!r.safety_ok) violation = r.violation;
    return !r.safety_ok;
  };

  // Re-confirm the input (also records its violation message).
  {
    std::string v;
    if (still_fails(out.schedule, v)) out.violation = v;
  }

  // Prefer the deterministic runtime: a socket violation that also
  // reproduces on the simulator shrinks (and replays) reliably.
  if (out.schedule.net == NetKind::kSocket) {
    FuzzSchedule cand = out.schedule;
    cand.net = NetKind::kSim;
    const double scale = 1.0 / kSocketTimeScale;
    for (PartitionSpec& p : cand.plan.partitions) {
      p.start *= scale;
      p.heal *= scale;
    }
    for (CrashSpec& c : cand.plan.crashes) {
      c.crash *= scale;
      c.recover *= scale;
    }
    std::string v;
    if (still_fails(cand, v)) {
      out.schedule = std::move(cand);
      out.violation = std::move(v);
    }
  }

  bool progress = true;
  while (progress && out.runs < max_runs) {
    progress = false;
    const auto attempt = [&](FuzzSchedule cand) {
      std::string v;
      if (still_fails(cand, v)) {
        out.schedule = std::move(cand);
        out.violation = std::move(v);
        progress = true;
        return true;
      }
      return false;
    };

    // Zero the probabilistic link faults (one field at a time).
    if (out.schedule.plan.default_link.drop != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.drop = 0.0;
      attempt(std::move(cand));
    }
    if (out.schedule.plan.default_link.duplicate != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.duplicate = 0.0;
      attempt(std::move(cand));
    }
    if (out.schedule.plan.default_link.reorder != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.reorder = 0.0;
      attempt(std::move(cand));
    }
    // Drop scheduled events wholesale.
    if (!out.schedule.plan.partitions.empty()) {
      FuzzSchedule cand = out.schedule;
      cand.plan.partitions.clear();
      attempt(std::move(cand));
    }
    if (!out.schedule.plan.crashes.empty()) {
      FuzzSchedule cand = out.schedule;
      cand.plan.crashes.clear();
      attempt(std::move(cand));
    }
    // Disable the checkpoint machinery (laggard window first — it is
    // strictly extra faults — then the interval itself).
    if (out.schedule.laggard) {
      FuzzSchedule cand = out.schedule;
      cand.laggard = false;
      attempt(std::move(cand));
    }
    if (out.schedule.checkpoint_interval != 0) {
      FuzzSchedule cand = out.schedule;
      cand.checkpoint_interval = 0;
      cand.laggard = false;
      attempt(std::move(cand));
    }
    // Remove adversaries one slot at a time.
    for (std::size_t i = 0; i < out.schedule.adversaries.size(); ++i) {
      FuzzSchedule cand = out.schedule;
      cand.adversaries.erase(cand.adversaries.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (attempt(std::move(cand))) break;
    }
    // Cut the workload.
    if (out.schedule.clients > 1) {
      FuzzSchedule cand = out.schedule;
      cand.clients = 1;
      attempt(std::move(cand));
    }
    if (out.schedule.commands_per_client > 4) {
      FuzzSchedule cand = out.schedule;
      cand.commands_per_client = out.schedule.commands_per_client / 2;
      attempt(std::move(cand));
    }
  }
  return out;
}

std::string repro_command(const FuzzSchedule& schedule) {
  return "./build/bench/bench_fault_fuzz --spec='" + schedule.spec() + "'";
}

}  // namespace bla::fault
