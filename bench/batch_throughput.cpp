// B1 — batched proposal pipeline (src/batch/): commands/sec vs batch
// size, end-to-end through the RSM, on GWTS and GSbS.
//
// One command per proposal pays a full disclosure + quorum round of
// reliable broadcast (GWTS) or a signed three-phase round (GSbS) *per
// command*; a SignedCommandBatch amortizes that across B commands under
// one signature. This bench streams a fixed workload through a
// BatchClient at B ∈ {1, 8, 64, 256} with K batches in flight and
// measures wall-clock commands/sec (host time actually spent running the
// protocol: message codecs, RBC, hashing, MACs), plus the per-command
// signature-verification count, which shrinks as 1/B.
//
// Verdict: on the simulated network, batch=64 must beat batch=1 on
// commands/sec for BOTH engines. Throughput under real concurrency is
// the benchmark's job: benchmark/ measures gwts_closed and gwts_open on
// a replicad cluster over TCP.

// CLI: --signer=hmac|ed25519 selects the signature scheme (default hmac;
// ed25519 measures the signature dividend under real PKI costs — see
// BENCH_batch_ed25519.json), --json=PATH writes the simulator panel as
// JSON, --obs-json=PATH dumps the observability registry of the
// (GWTS, B=64) run — per-stage command-lifecycle latency histograms
// (seal → RBC deliver → decide → execute → confirm, in simulated time),
// per-node protocol counters, and the health report — as
// BENCH_obs_latency.json.

#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "obs/registry.hpp"
#include "testutil/batch_scenario.hpp"

using namespace bla;

namespace {

struct Result {
  bool live = false;
  bool state_ok = false;
  double cmds_per_sec = 0;       // wall-clock
  double sim_delay_per_cmd = 0;  // simulated message delays per command
  double sig_checks_per_cmd = 0;
  std::uint64_t messages = 0;
};

double elapsed_seconds(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Result run_sim(core::EngineKind engine, std::size_t batch_size,
               std::size_t total_commands, bool use_ed25519,
               std::shared_ptr<obs::Registry> registry = nullptr) {
  testutil::BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.engine = engine;
  options.clients = 1;
  options.commands_per_client = total_commands;
  options.batch_size = batch_size;
  options.max_in_flight = 4;
  options.use_ed25519 = use_ed25519;
  options.registry = std::move(registry);
  // Enough rounds for the B=1 worst case (one batch per slot, K per
  // round) plus pipeline warm-up slack.
  options.max_rounds = total_commands + 64;
  testutil::BatchRsmScenario scenario(std::move(options));

  const auto t0 = std::chrono::steady_clock::now();
  scenario.run_until_done();
  const double secs = elapsed_seconds(t0);

  Result r;
  r.live = scenario.all_clients_done();
  r.cmds_per_sec = static_cast<double>(total_commands) / secs;
  r.sim_delay_per_cmd = scenario.clients()[0]->finish_time() /
                        static_cast<double>(total_commands);
  std::uint64_t checks = 0;
  bool state_ok = true;
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    if (const auto* v = replica->batch_verifier()) {
      checks += v->signature_checks();
    }
  }
  // The submission targets (replicas 0..f) must already hold the full
  // workload once the client believes it durable.
  const core::ValueSet expected = scenario.expected_commands();
  for (std::size_t i = 0; i < 2 && i < scenario.correct_replicas().size();
       ++i) {
    state_ok =
        state_ok && expected.leq(scenario.correct_replicas()[i]->state());
  }
  r.state_ok = state_ok;
  r.sig_checks_per_cmd =
      static_cast<double>(checks) / static_cast<double>(total_commands);
  r.messages = scenario.network().total_messages();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_ed25519 = false;
  const char* json_path = nullptr;
  const char* obs_json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--signer=ed25519") == 0) use_ed25519 = true;
    else if (std::strcmp(argv[i], "--signer=hmac") == 0) use_ed25519 = false;
    else if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strncmp(argv[i], "--obs-json=", 11) == 0)
      obs_json_path = argv[i] + 11;
  }

  bench::header("B1 — batched proposal pipeline: commands/sec vs batch size",
                "one signature + one agreement round amortized over B "
                "commands scales RSM throughput (GWTS and GSbS)");
  bench::row("signer scheme: %s", use_ed25519 ? "ed25519" : "hmac");

  const std::size_t kTotal = 256;
  bool all_ok = true;
  std::string json = std::string("{\n  \"signer\": \"") +
                     (use_ed25519 ? "ed25519" : "hmac") +
                     "\",\n  \"n\": 4, \"f\": 1, \"commands\": 256,\n"
                     "  \"results\": [\n";
  bool json_first = true;

  bench::row("%-6s %6s %6s %6s | %12s %12s %12s %10s", "engine", "B", "K",
             "cmds", "cmds/sec", "delay/cmd", "sigchk/cmd", "msgs");

  struct EngineRow {
    const char* name;
    core::EngineKind kind;
    double batch1 = 0, batch64 = 0;
  };
  EngineRow engines[] = {{"GWTS", core::EngineKind::kGwts},
                         {"GSbS", core::EngineKind::kGsbs}};

  // The (GWTS, B=64) run doubles as the observability showcase: one
  // registry shared by the simulator, every replica, and the client
  // records the full seal → RBC deliver → decide → execute → confirm
  // latency pipeline in simulated time.
  std::shared_ptr<obs::Registry> obs_registry;

  for (EngineRow& e : engines) {
    for (const std::size_t b : {1u, 8u, 64u, 256u}) {
      std::shared_ptr<obs::Registry> run_registry;
      if (e.kind == core::EngineKind::kGwts && b == 64) {
        run_registry = obs_registry = std::make_shared<obs::Registry>();
      }
      const Result r = run_sim(e.kind, b, kTotal, use_ed25519, run_registry);
      all_ok = all_ok && r.live && r.state_ok;
      if (b == 1) e.batch1 = r.cmds_per_sec;
      if (b == 64) e.batch64 = r.cmds_per_sec;
      bench::row("%-6s %6zu %6d %6zu | %12.0f %12.2f %12.3f %10llu", e.name,
                 b, 4, kTotal, r.cmds_per_sec, r.sim_delay_per_cmd,
                 r.sig_checks_per_cmd,
                 static_cast<unsigned long long>(r.messages));
      char row[256];
      std::snprintf(row, sizeof(row),
                    "    {\"engine\": \"%s\", \"batch\": %zu, "
                    "\"cmds_per_sec\": %.0f, \"sig_checks_per_cmd\": %.3f, "
                    "\"sim_delay_per_cmd\": %.2f, \"messages\": %llu}",
                    e.name, b, r.cmds_per_sec, r.sig_checks_per_cmd,
                    r.sim_delay_per_cmd,
                    static_cast<unsigned long long>(r.messages));
      if (!json_first) json += ",\n";
      json += row;
      json_first = false;
    }
    all_ok = all_ok && e.batch64 > e.batch1;
    bench::row("%-6s speedup batch=64 over batch=1: %.1fx", e.name,
               e.batch64 / e.batch1);
    char row[128];
    std::snprintf(row, sizeof(row),
                  ",\n    {\"engine\": \"%s\", \"speedup_64_over_1\": %.1f}",
                  e.name, e.batch64 / e.batch1);
    json += row;
  }
  json += "\n  ]\n}\n";
  if (json_path != nullptr) {
    if (std::FILE* out = std::fopen(json_path, "w")) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
      bench::row("json written to %s", json_path);
    }
  }

  if (obs_registry) {
    bench::row("%s", "");
    bench::row("command-lifecycle latencies, GWTS B=64 (simulated seconds)");
    bench::row("%-30s %8s %10s %10s %10s", "stage transition", "count",
               "p50", "p90", "p99");
    const char* stages[] = {
        "latency/seal_to_rbc_deliver", "latency/rbc_deliver_to_decide",
        "latency/decide_to_execute", "latency/execute_to_confirm"};
    for (const char* name : stages) {
      const obs::HistogramSnapshot snap =
          obs_registry->histogram(name).snapshot();
      bench::row("%-30s %8llu %10.4f %10.4f %10.4f", name,
                 static_cast<unsigned long long>(snap.count),
                 snap.quantile(0.50), snap.quantile(0.90),
                 snap.quantile(0.99));
      all_ok = all_ok && snap.count > 0;
    }
    const obs::HealthReport health = obs_registry->health();
    bench::row("health: %s (%zu issue(s))", health.ok() ? "ok" : "DEGRADED",
               health.issues.size());
    if (obs_json_path != nullptr) {
      if (std::FILE* out = std::fopen(obs_json_path, "w")) {
        std::fputs(obs_registry->to_json().c_str(), out);
        std::fclose(out);
        bench::row("obs registry json written to %s", obs_json_path);
      }
    }
  }

  bench::verdict(all_ok,
                 "workload lands durably at every batch size, batch=64 "
                 "beats batch=1 on commands/sec for both engines, and the "
                 "lifecycle histograms captured every stage");
  return all_ok ? 0 : 1;
}
