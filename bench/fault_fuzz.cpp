// Generative Byzantine fuzzer driver.
//
// Default sweep: 25 seeds x {GWTS, GSbS} x {sim, socket} = 100 seeded
// schedules, each a random cocktail of <= f Byzantine adversaries plus a
// seeded FaultPlan (loss / duplication / reordering / partitions /
// crash-recover windows), run with engine recovery and client
// retransmission enabled and checked against the safety properties (GLA
// Comparability, Local Stability, durability of confirmed commands).
//
// Every violation prints a one-line deterministic repro and, unless
// --no-shrink is given, a greedily minimized schedule that still
// violates. Failing specs are appended to --out (default
// fuzz_failures.txt) so CI can upload them as an artifact. Exit status is
// nonzero iff any schedule violated safety.
//
//   bench_fault_fuzz                         # the 100-schedule sweep
//   bench_fault_fuzz --seeds=100:200         # a different seed range
//   bench_fault_fuzz --engine=gsbs --net=sim # one engine / one runtime
//   bench_fault_fuzz --spec='seed=7;...'     # replay one printed repro
//   bench_fault_fuzz --shrink --spec='...'   # and minimize it
//   bench_fault_fuzz --ckpt=8 --laggard      # force checkpointing on
//                                            # every generated schedule

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fuzz.hpp"

namespace {

using bla::core::EngineKind;
using bla::fault::FuzzResult;
using bla::fault::FuzzSchedule;
using bla::fault::NetKind;

struct Options {
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 26;  // exclusive
  std::vector<EngineKind> engines = {EngineKind::kGwts, EngineKind::kGsbs};
  std::vector<NetKind> nets = {NetKind::kSim, NetKind::kSocket};
  std::string spec;  // non-empty: replay this one schedule
  bool shrink = true;
  std::string out = "fuzz_failures.txt";
  // Overrides applied to every *generated* schedule (the nightly
  // checkpointing sweep leg); the generator's own random draw already
  // covers mixed on/off.
  std::uint64_t ckpt = 0;   // nonzero: force checkpoint_interval
  bool laggard = false;     // force the laggard crash window
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--seed=")) {
      opt.seed_begin = std::strtoull(v, nullptr, 10);
      opt.seed_end = opt.seed_begin + 1;
    } else if (const char* v = value("--seeds=")) {
      char* colon = nullptr;
      opt.seed_begin = std::strtoull(v, &colon, 10);
      if (colon == nullptr || *colon != ':') return false;
      opt.seed_end = std::strtoull(colon + 1, nullptr, 10);
    } else if (const char* v = value("--engine=")) {
      const std::string e = v;
      if (e == "gwts") {
        opt.engines = {EngineKind::kGwts};
      } else if (e == "gsbs") {
        opt.engines = {EngineKind::kGsbs};
      } else if (e != "both") {
        return false;
      }
    } else if (const char* v = value("--net=")) {
      const std::string n = v;
      if (n == "sim") {
        opt.nets = {NetKind::kSim};
      } else if (n == "socket") {
        opt.nets = {NetKind::kSocket};
      } else if (n != "both") {
        return false;
      }
    } else if (const char* v = value("--spec=")) {
      opt.spec = v;
    } else if (const char* v = value("--out=")) {
      opt.out = v;
    } else if (arg == "--shrink") {
      opt.shrink = true;
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (const char* v = value("--ckpt=")) {
      opt.ckpt = std::strtoull(v, nullptr, 10);
      if (opt.ckpt == 0) return false;
    } else if (arg == "--laggard") {
      opt.laggard = true;
    } else {
      return false;
    }
  }
  return opt.seed_begin < opt.seed_end;
}

/// Runs one schedule; on violation prints the repro (and minimized repro)
/// and appends the failing spec(s) to `failures`.
bool run_one(const FuzzSchedule& s, bool shrink,
             std::vector<std::string>& failures) {
  const FuzzResult r = bla::fault::run_schedule(s);
  std::printf("%-60s %s faults=%llu%s%s\n", s.spec().c_str(),
              r.safety_ok ? "OK  " : "FAIL",
              static_cast<unsigned long long>(r.injected_faults),
              r.clients_done ? "" : " [clients-incomplete]",
              r.commands_failed ? " [gave-up]" : "");
  if (r.safety_ok) return true;

  std::printf("  violation: %s\n", r.violation.c_str());
  std::printf("  repro:     %s\n", bla::fault::repro_command(s).c_str());
  failures.push_back(s.spec());
  if (shrink) {
    const auto minimized = bla::fault::shrink(s);
    std::printf("  minimized (%zu runs): %s\n", minimized.runs,
                bla::fault::repro_command(minimized.schedule).c_str());
    std::printf("  minimized violation:  %s\n", minimized.violation.c_str());
    failures.push_back(minimized.schedule.spec());
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--seed=N | --seeds=A:B] "
                 "[--engine=gwts|gsbs|both] [--net=sim|socket|both] "
                 "[--spec='...'] [--shrink|--no-shrink] [--out=FILE] "
                 "[--ckpt=N] [--laggard]\n",
                 argv[0]);
    return 2;
  }

  std::vector<std::string> failures;
  std::size_t total = 0;
  std::size_t violations = 0;

  if (!opt.spec.empty()) {
    const auto s = FuzzSchedule::parse(opt.spec);
    if (!s) {
      std::fprintf(stderr, "unparseable --spec\n");
      return 2;
    }
    total = 1;
    if (!run_one(*s, opt.shrink, failures)) ++violations;
  } else {
    for (std::uint64_t seed = opt.seed_begin; seed < opt.seed_end; ++seed) {
      for (const EngineKind engine : opt.engines) {
        for (const NetKind net : opt.nets) {
          ++total;
          FuzzSchedule s = bla::fault::generate_schedule(seed, engine, net);
          if (opt.ckpt != 0) s.checkpoint_interval = opt.ckpt;
          if (opt.laggard) s.laggard = true;
          if (!run_one(s, opt.shrink, failures)) ++violations;
        }
      }
    }
  }

  if (!failures.empty()) {
    std::ofstream out(opt.out, std::ios::app);
    for (const std::string& spec : failures) out << spec << "\n";
    std::printf("failing specs appended to %s\n", opt.out.c_str());
  }
  std::printf("\n%zu/%zu schedules safe, %zu violation%s\n",
              total - violations, total, violations,
              violations == 1 ? "" : "s");
  return violations == 0 ? 0 : 1;
}
