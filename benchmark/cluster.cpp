#include "cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace blabench {

// -- flat JSON -----------------------------------------------------------------

namespace {

class FlatParser {
public:
  explicit FlatParser(const std::string& text) : s_(text) {}

  bool parse(std::map<std::string, double>& out) {
    out_ = &out;
    if (!value("")) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      out += c;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  static std::string join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }
  bool value(const std::string& path) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        if (!value(join(path, key))) return false;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (std::size_t i = 0;; ++i) {
        if (!value(join(path, std::to_string(i)))) return false;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      std::string ignored;
      return string(ignored);
    }
    if (literal("true")) {
      (*out_)[path] = 1.0;
      return true;
    }
    if (literal("false")) {
      (*out_)[path] = 0.0;
      return true;
    }
    if (literal("null")) return true;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    (*out_)[path] = v;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::map<std::string, double>* out_ = nullptr;
};

}  // namespace

std::optional<std::map<std::string, double>> parse_flat_json(
    const std::string& text) {
  std::map<std::string, double> out;
  FlatParser parser(text);
  if (!parser.parse(out)) return std::nullopt;
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -- /proc ---------------------------------------------------------------------

namespace {

std::optional<double> status_field(const std::string& status,
                                   const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(status.c_str() + at + std::strlen(key), nullptr);
}

}  // namespace

std::optional<ProcSample> sample_proc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  const auto stat = read_file(dir + "/stat");
  const auto status = read_file(dir + "/status");
  if (!stat || !status) return std::nullopt;
  // Fields after the parenthesised command name: state is field 3, so
  // utime (14) and stime (15) are the 12th and 13th tokens.
  const std::size_t close = stat->rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(stat->substr(close + 1));
  std::string token;
  double ticks[2] = {0.0, 0.0};
  for (int i = 1; i <= 13 && (fields >> token); ++i) {
    if (i >= 12) ticks[i - 12] = std::strtod(token.c_str(), nullptr);
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcSample out;
  out.user_s = ticks[0] / hz;
  out.sys_s = ticks[1] / hz;
  out.hwm_mb = status_field(*status, "VmHWM:").value_or(0.0) / 1024.0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    const auto task_status = read_file(task.path().string() + "/status");
    if (!task_status) continue;
    // "\nvoluntary" skips the nonvoluntary_ctxt_switches line.
    out.voluntary_switches += static_cast<std::uint64_t>(
        status_field(*task_status, "\nvoluntary_ctxt_switches:")
            .value_or(0.0));
  }
  return out;
}

// -- ports ---------------------------------------------------------------------

namespace {

bool port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

std::vector<std::uint16_t> pick_ports(std::uint64_t seed, std::uint64_t salt,
                                      std::size_t n) {
  // Below the usual ephemeral range (32768+), so no outgoing connection
  // can hold a port before its replicad binds it.
  constexpr std::uint64_t kLow = 20000;
  constexpr std::uint64_t kSpan = 12000;
  std::uint64_t base = (seed * 2654435761ULL + salt * 40503ULL) % kSpan;
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::uint16_t>(kLow + (base + i) % kSpan);
      if (!port_free(p)) break;
      ports.push_back(p);
    }
    if (ports.size() == n) return ports;
    base = (base + n + 7) % kSpan;
  }
  throw std::runtime_error("no free loopback ports");
}

bool wait_listening(const std::vector<std::uint16_t>& ports,
                    double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto table = read_file("/proc/net/tcp");
    if (!table) return false;
    std::size_t found = 0;
    for (const std::uint16_t port : ports) {
      // "  sl  local_address rem_address   st": LISTEN is state 0A.
      char local[32];
      std::snprintf(local, sizeof(local), ":%04X 00000000:0000 0A", port);
      if (table->find(local) != std::string::npos) ++found;
    }
    if (found == ports.size()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// -- replicad processes --------------------------------------------------------

ReplicaSet::ReplicaSet(Options options) : options_(std::move(options)) {
  for (std::size_t id = 0; id < options_.n; ++id) {
    // Everything the child needs is built before fork: between fork and
    // exec it only makes async-signal-safe calls.
    const std::string id_str = std::to_string(id);
    const std::string dump = dump_path(id);
    const std::string log = options_.out_prefix + id_str + ".log";
    std::vector<std::string> args = {options_.replicad, "--config",
                                     options_.config,   "--id",
                                     id_str,            "--obs-dump",
                                     dump};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all();
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
  }
}

ReplicaSet::~ReplicaSet() { kill_all(); }

std::string ReplicaSet::dump_path(std::size_t id) const {
  return options_.out_prefix + std::to_string(id) + ".json";
}

bool ReplicaSet::all_alive() {
  for (pid_t& pid : pids_) {
    if (pid < 0) return false;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      pid = -1;
      return false;
    }
  }
  return true;
}

std::vector<int> ReplicaSet::terminate(double timeout_s) {
  std::vector<int> codes(pids_.size(), -1);
  for (const pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    while (pids_[i] > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pids_[i], &status, WNOHANG);
      if (r == pids_[i]) {
        codes[i] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        pids_[i] = -1;
        break;
      }
      if (r < 0 || std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  kill_all();
  return codes;
}

void ReplicaSet::kill_all() {
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
}

}  // namespace blabench
