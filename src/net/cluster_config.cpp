#include "net/cluster_config.hpp"

#include <fstream>
#include <sstream>

#include "net/conn.hpp"

namespace bla::net {

namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

std::optional<ClusterConfig> parse_cluster_config(std::istream& in,
                                                  std::string* error) {
  ClusterConfig cfg;
  std::string line;
  std::size_t lineno = 0;
  bool saw_n = false;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line

    const auto fail = [&](const std::string& what) {
      set_error(error, "line " + std::to_string(lineno) + ": " + what);
      return std::nullopt;
    };

    if (key == "n") {
      if (!(ls >> cfg.n) || cfg.n == 0) return fail("bad n");
      saw_n = true;
    } else if (key == "f") {
      if (!(ls >> cfg.f)) return fail("bad f");
    } else if (key == "engine") {
      if (!(ls >> cfg.engine) ||
          (cfg.engine != "gwts" && cfg.engine != "gsbs")) {
        return fail("engine must be gwts or gsbs");
      }
    } else if (key == "key_scheme") {
      if (!(ls >> cfg.key_scheme) ||
          (cfg.key_scheme != "hmac" && cfg.key_scheme != "ed25519")) {
        return fail("key_scheme must be hmac or ed25519");
      }
    } else if (key == "key_seed") {
      if (!(ls >> cfg.key_seed)) return fail("bad key_seed");
    } else if (key == "checkpoint_interval") {
      if (!(ls >> cfg.checkpoint_interval)) {
        return fail("bad checkpoint_interval");
      }
      if (cfg.checkpoint_interval == 0) {
        return fail(
            "checkpoint_interval must be > 0: without checkpoints no "
            "Bracha instance expires, and a GWTS cluster wedges at the "
            "per-origin instance cap");
      }
    } else if (key == "max_clients") {
      if (!(ls >> cfg.max_clients) || cfg.max_clients == 0) {
        return fail("bad max_clients");
      }
    } else if (key == "replica") {
      std::size_t id = 0;
      std::string addr;
      if (!(ls >> id >> addr)) return fail("replica needs <id> <host:port>");
      if (!parse_addr(addr)) return fail("bad address: " + addr);
      if (id >= cfg.replicas.size()) cfg.replicas.resize(id + 1);
      if (!cfg.replicas[id].empty()) {
        return fail("duplicate replica id " + std::to_string(id));
      }
      cfg.replicas[id] = addr;
    } else {
      return fail("unknown key: " + key);
    }
    std::string extra;
    if (ls >> extra) return fail("trailing tokens after " + key);
  }

  if (!saw_n) {
    set_error(error, "missing n");
    return std::nullopt;
  }
  if (cfg.n < 3 * cfg.f + 1) {
    set_error(error, "n must be >= 3f+1");
    return std::nullopt;
  }
  if (cfg.replicas.size() != cfg.n) {
    set_error(error, "expected " + std::to_string(cfg.n) +
                         " replica lines, got " +
                         std::to_string(cfg.replicas.size()));
    return std::nullopt;
  }
  for (std::size_t id = 0; id < cfg.n; ++id) {
    if (cfg.replicas[id].empty()) {
      set_error(error, "missing replica " + std::to_string(id));
      return std::nullopt;
    }
  }
  return cfg;
}

std::optional<ClusterConfig> load_cluster_config(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  return parse_cluster_config(in, error);
}

}  // namespace bla::net
