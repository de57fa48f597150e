#include "net/socket_network.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace bla::net {

namespace {

// epoll_event.data.ptr sentinels for the two non-connection fds.
void* const kWakeTag = reinterpret_cast<void*>(std::uintptr_t{1});
void* const kListenTag = reinterpret_cast<void*>(std::uintptr_t{2});

/// Frames buffered on a connection beyond this stay in the peer outbox
/// (where the shed policy can still reach them) instead of the conn's
/// write buffer (where they are committed to the wire).
constexpr std::size_t kConnWriteBufferCap = 256 * 1024;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

class SocketNetwork::Context final : public IContext {
public:
  explicit Context(SocketNetwork& net) : net_(net) {}

  void send(NodeId to, wire::Bytes payload) override {
    net_.send_to(to, std::move(payload));
  }

  void broadcast(wire::Bytes payload) override {
    net_.broadcast_from_process(payload);
  }

  [[nodiscard]] NodeId self() const override { return net_.config_.self; }
  [[nodiscard]] std::size_t node_count() const override {
    return net_.max_node_;
  }
  [[nodiscard]] double now() const override { return net_.loop_now(); }

  void schedule(double delay, std::uint64_t token) override {
    if (delay < 0.0) delay = 0.0;
    net_.timers_.emplace(net_.loop_now() + delay,
                         TimerEntry{TimerEntry::Kind::kProcess, token});
  }

private:
  SocketNetwork& net_;
};

SocketNetwork::SocketNetwork(Config config)
    : config_(std::move(config)),
      max_node_(static_cast<NodeId>(
          std::max<std::uint64_t>(config_.cluster_n,
                                  std::uint64_t{config_.self} + 1))),
      rng_(config_.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL) {
  if (config_.registry) {
    auto& reg = *config_.registry;
    obs_messages_sent_ = reg.counter("net/messages_sent");
    obs_bytes_sent_ = reg.counter("net/bytes_sent");
    obs_messages_delivered_ = reg.counter("net/messages_delivered");
    obs_bytes_delivered_ = reg.counter("net/bytes_delivered");
    obs_connect_attempts_ = reg.counter("net/connect_attempts");
    obs_connects_ = reg.counter("net/connects");
    obs_accepts_ = reg.counter("net/accepts");
    obs_disconnects_ = reg.counter("net/disconnects");
    obs_redials_ = reg.counter("net/redials");
    obs_handshake_rejects_ = reg.counter("net/handshake_rejects",
                                         /*warning=*/true);
    obs_frame_rejects_ = reg.counter("net/frame_rejects", /*warning=*/true);
    obs_sendq_shed_ = reg.counter("net/sendq_shed", /*warning=*/true);
    obs_unroutable_ = reg.counter("net/unroutable_dropped");
    obs_deadline_closes_ = reg.counter("net/deadline_closes");
    obs_established_ = reg.gauge("net/established_peers");
  }
  ctx_ = std::make_unique<Context>(*this);
}

SocketNetwork::~SocketNetwork() {
  if (running()) stop();
  close_loop_fds();
}

void SocketNetwork::close_loop_fds() {
  // Only after the loop thread is joined (or never started): the wake
  // eventfd must outlive the loop so stop()/kill()/call() can write it
  // without racing a close on the loop thread (closed-fd reuse hazard).
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void SocketNetwork::host(std::unique_ptr<IProcess> process) {
  if (running()) throw std::logic_error("host() after start()");
  process_ = std::move(process);
}

double SocketNetwork::loop_now() const {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double SocketNetwork::jitter() {
  return 0.5 + static_cast<double>(splitmix64(rng_) >> 11) *
                   (1.0 / 9007199254740992.0);  // [0.5, 1.5)
}

void SocketNetwork::start() {
  if (!process_) throw std::logic_error("start() without host()");
  if (running_.exchange(true)) return;
  stopping_.store(false);
  killing_.store(false);

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    close_loop_fds();
    running_.store(false);
    throw std::runtime_error("SocketNetwork: epoll/eventfd setup failed");
  }
  epoll_add(wake_fd_, kWakeTag, /*want_write=*/false);

  if (config_.listen_fd >= 0) {
    listen_fd_ = config_.listen_fd;
    config_.listen_fd = -1;  // owned now
  } else if (!config_.listen.empty()) {
    const auto addr = parse_addr(config_.listen);
    if (!addr || (listen_fd_ = listen_on(*addr)) < 0) {
      close_loop_fds();
      running_.store(false);
      throw std::runtime_error("cannot listen on " + config_.listen);
    }
  }
  if (listen_fd_ >= 0) {
    listen_port_ = local_port(listen_fd_);
    epoll_add(listen_fd_, kListenTag, /*want_write=*/false);
  }

  thread_ = std::thread([this] { loop(); });
}

void SocketNetwork::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  close_loop_fds();
  running_.store(false, std::memory_order_release);
}

void SocketNetwork::kill() {
  if (!running()) return;
  killing_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  close_loop_fds();
  running_.store(false, std::memory_order_release);
}

void SocketNetwork::call(const std::function<void()>& fn) {
  if (!running()) {  // loop gone: run inline (single-threaded epilogue)
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  {
    std::lock_guard lock(control_mu_);
    control_.push_back([&] {
      fn();
      std::lock_guard inner(done_mu);
      done = true;
      done_cv.notify_one();
    });
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  std::unique_lock lock(done_mu);
  // The loop may exit (stop/kill from elsewhere) with the closure still
  // queued; poll running() so the waiter cannot hang forever.
  while (!done) {
    if (done_cv.wait_for(lock, std::chrono::milliseconds(50),
                         [&] { return done; })) {
      break;
    }
    if (!running()) {
      // Loop is gone; run whatever is still queued inline.
      std::deque<std::function<void()>> leftovers;
      {
        std::lock_guard qlock(control_mu_);
        leftovers.swap(control_);
      }
      lock.unlock();
      for (auto& f : leftovers) f();
      lock.lock();
    }
  }
}

NodeMetrics SocketNetwork::metrics() const {
  std::lock_guard lock(metrics_mu_);
  return metrics_;
}

std::size_t SocketNetwork::established_peers() const {
  return established_count_.load(std::memory_order_relaxed);
}

std::size_t SocketNetwork::peer_table_size() {
  std::size_t size = 0;
  call([&] { size = peers_.size(); });
  return size;
}

// -- loop ------------------------------------------------------------------

void SocketNetwork::epoll_add(int fd, void* tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = tag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void SocketNetwork::update_epoll(Conn& conn) {
  if (conn.fd() < 0) return;
  epoll_event ev{};
  const bool want_write =
      conn.wants_write() || conn.state() == Conn::State::kConnecting;
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = &conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd(), &ev);
}

void SocketNetwork::loop() {
  const double housekeep_interval = 0.1;
  timers_.emplace(loop_now() + housekeep_interval,
                  TimerEntry{TimerEntry::Kind::kHousekeep, 0});
  process_->on_start(*ctx_);
  for (NodeId id = 0; id < static_cast<NodeId>(config_.cluster_n); ++id) {
    if (id != config_.self) dial(id);
  }

  epoll_event events[64];
  while (true) {
    if (killing_.load(std::memory_order_acquire)) break;
    if (stopping_.load(std::memory_order_acquire)) {
      const double now = loop_now();
      if (drain_deadline_ == 0.0) {
        drain_deadline_ = now + config_.drain_timeout;
      }
      bool drained = true;
      for (const auto& [id, peer] : peers_) {
        if (!peer.outbox.empty()) drained = false;
        if (peer.out && peer.out->wants_write()) drained = false;
        if (peer.in && peer.in->wants_write()) drained = false;
      }
      if (drained || now >= drain_deadline_) break;
    }

    drain_self_inbox();
    run_control();

    const int n = ::epoll_wait(epoll_fd_, events, 64, next_timeout_ms());
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == kWakeTag) {
        std::uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        run_control();
      } else if (tag == kListenTag) {
        if (!stopping_.load(std::memory_order_acquire)) accept_pending();
      } else {
        handle_conn_io(static_cast<Conn*>(tag), events[i].events);
      }
    }

    fire_due_timers();
    drain_self_inbox();
    graveyard_.clear();
  }

  // Teardown on the loop thread, which owns every connection.
  run_control();
  for (auto& [id, peer] : peers_) {
    if (peer.out) peer.out->close_fd();
    if (peer.in) peer.in->close_fd();
  }
  peers_.clear();
  pending_in_.clear();
  graveyard_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  // wake_fd_/epoll_fd_ stay open: stop()/kill()/call() on other threads
  // write the eventfd until the join completes; the joiner closes them
  // (close_loop_fds) once no thread can touch them.
  established_count_.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
}

int SocketNetwork::next_timeout_ms() const {
  if (!self_inbox_.empty()) return 0;
  double horizon = 0.25;  // upper bound: re-checks stop flags regularly
  if (!timers_.empty()) {
    horizon = std::min(horizon, timers_.begin()->first - loop_now());
  }
  if (horizon <= 0.0) return 0;
  return static_cast<int>(std::ceil(horizon * 1000.0));
}

void SocketNetwork::run_control() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard lock(control_mu_);
    batch.swap(control_);
  }
  for (auto& fn : batch) fn();
}

void SocketNetwork::fire_due_timers() {
  const bool stopping = stopping_.load(std::memory_order_acquire);
  while (!timers_.empty() && timers_.begin()->first <= loop_now()) {
    const TimerEntry entry = timers_.begin()->second;
    timers_.erase(timers_.begin());
    switch (entry.kind) {
      case TimerEntry::Kind::kProcess:
        if (!stopping) process_->on_timer(*ctx_, entry.token);
        break;
      case TimerEntry::Kind::kRedial:
        dial(static_cast<NodeId>(entry.token));
        break;
      case TimerEntry::Kind::kHousekeep:
        housekeeping();
        timers_.emplace(loop_now() + 0.1,
                        TimerEntry{TimerEntry::Kind::kHousekeep, 0});
        break;
    }
  }
}

void SocketNetwork::drain_self_inbox() {
  while (!self_inbox_.empty()) {
    wire::Bytes frame = std::move(self_inbox_.front());
    self_inbox_.pop_front();
    if (stopping_.load(std::memory_order_acquire)) continue;
    deliver(config_.self, frame);
  }
}

// -- dialing / handshake ---------------------------------------------------

void SocketNetwork::dial(NodeId id) {
  Peer& peer = peers_[id];
  peer.dial_scheduled = false;
  if (stopping_.load(std::memory_order_acquire) ||
      killing_.load(std::memory_order_acquire)) {
    return;
  }
  if (id >= config_.cluster_n || id == config_.self) return;
  if (peer.out && peer.out->state() != Conn::State::kClosed) return;

  const auto addr = parse_addr(config_.peers.at(id));
  if (!addr) return;
  obs_connect_attempts_.inc();
  const int fd = connect_to(*addr);
  if (fd < 0) {
    schedule_redial(id);
    return;
  }
  auto conn = std::make_unique<Conn>(fd, /*inbound=*/false,
                                     config_.max_frame_bytes);
  conn->set_peer(id);  // expected identity, checked against the hello
  conn->opened_at = loop_now();
  epoll_add(fd, conn.get(), /*want_write=*/true);  // EPOLLOUT: connect done
  peer.out = std::move(conn);
}

void SocketNetwork::schedule_redial(NodeId id) {
  Peer& peer = peers_[id];
  if (peer.dial_scheduled ||
      stopping_.load(std::memory_order_acquire)) {
    return;
  }
  peer.backoff = peer.backoff <= 0.0
                     ? config_.reconnect_base
                     : std::min(peer.backoff * 2.0, config_.reconnect_max);
  peer.dial_scheduled = true;
  obs_redials_.inc();
  timers_.emplace(loop_now() + peer.backoff * jitter(),
                  TimerEntry{TimerEntry::Kind::kRedial, id});
}

void SocketNetwork::accept_pending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: back to the loop
    }
    if (!make_socket_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    obs_accepts_.inc();
    auto conn = std::make_unique<Conn>(fd, /*inbound=*/true,
                                       config_.max_frame_bytes);
    conn->opened_at = loop_now();
    conn->enqueue(encode_hello(config_.self));
    conn->last_write_progress = loop_now();
    epoll_add(fd, conn.get(), /*want_write=*/true);
    pending_in_.push_back(std::move(conn));
  }
}

void SocketNetwork::establish(Conn& conn, NodeId id) {
  conn.set_peer(id);
  conn.set_state(Conn::State::kEstablished);
  Peer& peer = peers_[id];
  if (conn.inbound()) {
    // Move out of pending_in_; a previous inbound conn from this id is
    // superseded (the peer restarted — its old TCP connection may linger
    // until the kernel notices, but the new one is authoritative).
    std::unique_ptr<Conn> owned;
    for (auto it = pending_in_.begin(); it != pending_in_.end(); ++it) {
      if (it->get() == &conn) {
        owned = std::move(*it);
        pending_in_.erase(it);
        break;
      }
    }
    if (peer.in && peer.in->state() != Conn::State::kClosed) {
      // gc_peer=false: the replacement connection is installed right
      // below, so the entry (and its queued outbox) must survive.
      drop_conn(peer.in.get(), "superseded", /*gc_peer=*/false);
    }
    peer.in = std::move(owned);
    if (id >= max_node_) max_node_ = id + 1;
  } else {
    peer.backoff = 0.0;  // healthy again: future redials start fresh
  }
  obs_connects_.inc();
  recount_established();
  pump_outbox(id);
}

void SocketNetwork::recount_established() {
  std::size_t established = 0;
  for (const auto& [pid, p] : peers_) {
    if ((p.out && p.out->established()) || (p.in && p.in->established())) {
      ++established;
    }
  }
  established_count_.store(established, std::memory_order_relaxed);
  obs_established_.set(static_cast<double>(established));
}

void SocketNetwork::drop_conn(Conn* conn, const char* why, bool gc_peer) {
  if (conn == nullptr || conn->state() == Conn::State::kClosed) return;
  (void)why;
  const bool was_outbound = !conn->inbound();
  const NodeId peer_id = conn->peer();
  if (conn->fd() >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
  }
  conn->close_fd();
  obs_disconnects_.inc();

  // Detach from whichever slot owns it; park in the graveyard until the
  // end of the loop iteration (stale epoll batch entries may still point
  // at it).
  std::unique_ptr<Conn> owned;
  for (auto it = pending_in_.begin(); it != pending_in_.end(); ++it) {
    if (it->get() == conn) {
      owned = std::move(*it);
      pending_in_.erase(it);
      break;
    }
  }
  if (!owned) {
    auto it = peers_.find(peer_id);
    if (it != peers_.end()) {
      if (it->second.out.get() == conn) owned = std::move(it->second.out);
      if (it->second.in.get() == conn) owned = std::move(it->second.in);
    }
  }
  if (owned) graveyard_.push_back(std::move(owned));

  recount_established();

  // The state machine's backoff edge: outbound links to cluster members
  // redial with exponential backoff + jitter.
  if (was_outbound && peer_id < config_.cluster_n) schedule_redial(peer_id);

  // Client GC: a non-cluster peer's last connection is gone and there is
  // no address to redial, so queued outbox frames can never flow — erase
  // the entry rather than accumulate one (plus up to max_sendq_bytes)
  // per short-lived client forever. max_node_ keeps covering the id;
  // later sends to it take the unroutable-drop path.
  if (gc_peer && peer_id >= config_.cluster_n) {
    auto it = peers_.find(peer_id);
    if (it != peers_.end() && !it->second.out && !it->second.in) {
      peers_.erase(it);
    }
  }
}

void SocketNetwork::handle_conn_io(Conn* conn, std::uint32_t events) {
  if (conn == nullptr || conn->state() == Conn::State::kClosed) return;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    drop_conn(conn, "err/hup");
    return;
  }

  if (conn->state() == Conn::State::kConnecting &&
      (events & EPOLLOUT) != 0) {
    if (take_socket_error(conn->fd()) != 0) {
      drop_conn(conn, "connect failed");
      return;
    }
    conn->set_state(Conn::State::kHandshaking);
    conn->enqueue(encode_hello(config_.self));
    conn->last_write_progress = loop_now();
  }

  if ((events & EPOLLIN) != 0) {
    const auto sink = [this, conn](wire::BytesView frame) -> bool {
      if (!conn->established()) {
        const auto hello = decode_hello(frame);
        bool ok = hello.has_value() && hello->node != config_.self;
        // An outbound connection must answer as the id we dialed —
        // anything else is a mis-wired address map or an impostor.
        if (ok && !conn->inbound() && hello->node != conn->peer()) ok = false;
        // Cap the claimed id: node_count()/broadcast loops iterate
        // [0, max_node_), so one unauthenticated hello claiming id
        // ~2^32 must not turn every later broadcast into billions of
        // sends.
        if (ok && hello->node >= config_.cluster_n + config_.max_clients) {
          ok = false;
        }
        if (!ok) {
          obs_handshake_rejects_.inc();
          drop_conn(conn, "bad hello");
          return false;
        }
        establish(*conn, hello->node);
        return true;
      }
      deliver(conn->peer(), frame);
      return conn->state() != Conn::State::kClosed;
    };
    switch (conn->read_frames(sink)) {
      case Conn::IoResult::kOk:
        break;
      case Conn::IoResult::kClosed:
        drop_conn(conn, "eof");
        return;
      case Conn::IoResult::kError:
        drop_conn(conn, "read error");
        return;
      case Conn::IoResult::kProtocol:
        obs_frame_rejects_.inc();
        drop_conn(conn, "framing violation");
        return;
    }
  }

  if (conn->state() == Conn::State::kClosed) return;

  if (conn->wants_write()) {
    const std::size_t before = conn->queued_bytes();
    if (conn->flush() != Conn::IoResult::kOk) {
      drop_conn(conn, "write error");
      return;
    }
    if (conn->queued_bytes() < before) {
      conn->last_write_progress = loop_now();
    }
    if (conn->established()) pump_outbox(conn->peer());
  }
  update_epoll(*conn);
}

void SocketNetwork::housekeeping() {
  const double now = loop_now();
  // Collect first: drop_conn mutates pending_in_ / peers_ slots.
  std::vector<Conn*> overdue;
  const auto check = [&](Conn* conn) {
    if (conn == nullptr || conn->state() == Conn::State::kClosed) return;
    if (!conn->established() &&
        now - conn->opened_at > config_.handshake_timeout) {
      overdue.push_back(conn);
      return;
    }
    if (conn->wants_write() &&
        now - conn->last_write_progress > config_.write_stall_timeout) {
      overdue.push_back(conn);
    }
  };
  for (auto& conn : pending_in_) check(conn.get());
  for (auto& [id, peer] : peers_) {
    check(peer.out.get());
    check(peer.in.get());
  }
  for (Conn* conn : overdue) {
    obs_deadline_closes_.inc();
    drop_conn(conn, "deadline");
  }
}

// -- send path -------------------------------------------------------------

Conn* SocketNetwork::route(NodeId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return nullptr;
  if (it->second.out && it->second.out->established()) {
    return it->second.out.get();
  }
  if (it->second.in && it->second.in->established()) {
    return it->second.in.get();
  }
  return nullptr;
}

void SocketNetwork::pump_outbox(NodeId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  Conn* conn = route(id);
  if (conn == nullptr) return;
  bool moved = false;
  while (!peer.outbox.empty() &&
         conn->queued_bytes() < kConnWriteBufferCap) {
    const wire::Bytes& frame = peer.outbox.front();
    peer.outbox_bytes -= frame.size();
    conn->enqueue(frame);
    peer.outbox.pop_front();
    moved = true;
  }
  if (!conn->wants_write()) return;
  if (moved && conn->queued_bytes() > 0) {
    conn->last_write_progress = loop_now();
  }
  const std::size_t before = conn->queued_bytes();
  if (conn->flush() != Conn::IoResult::kOk) {
    drop_conn(conn, "write error");
    return;
  }
  if (conn->queued_bytes() < before) conn->last_write_progress = loop_now();
  update_epoll(*conn);
}

void SocketNetwork::send_to(NodeId to, wire::Bytes payload) {
  {
    std::lock_guard lock(metrics_mu_);
    metrics_.messages_sent += 1;
    metrics_.bytes_sent += payload.size();
  }
  obs_messages_sent_.inc();
  obs_bytes_sent_.inc(payload.size());

  if (to == config_.self) {
    self_inbox_.push_back(std::move(payload));
    return;
  }

  const bool addressable = to < config_.cluster_n;
  auto it = peers_.find(to);
  if (!addressable && (it == peers_.end() ||
                       ((!it->second.in ||
                         !it->second.in->established()) &&
                        (!it->second.out ||
                         !it->second.out->established())))) {
    // A client we have no live connection from: there is no address to
    // dial and nothing to wait for — drop now rather than queue forever.
    obs_unroutable_.inc();
    return;
  }

  Peer& peer = peers_[to];
  peer.outbox_bytes += payload.size();
  peer.outbox.push_back(std::move(payload));
  // Backpressure bound: shed the OLDEST queued frame first. Old frames
  // are the most likely to be obsolete (protocols retransmit and
  // aggregate state), and the recovery layers treat any loss as ordinary
  // network loss.
  while (peer.outbox.size() > config_.max_sendq_frames ||
         peer.outbox_bytes > config_.max_sendq_bytes) {
    peer.outbox_bytes -= peer.outbox.front().size();
    peer.outbox.pop_front();
    obs_sendq_shed_.inc();
  }

  if (route(to) != nullptr) {
    pump_outbox(to);
  } else if (addressable && !peer.dial_scheduled &&
             (!peer.out || peer.out->state() == Conn::State::kClosed)) {
    schedule_redial(to);
  }
}

void SocketNetwork::broadcast_from_process(const wire::Bytes& payload) {
  const NodeId count = max_node_;
  for (NodeId to = 0; to < count; ++to) {
    send_to(to, payload);  // copy per destination, as the runtimes do
  }
}

// -- delivery --------------------------------------------------------------

void SocketNetwork::deliver(NodeId from, wire::BytesView payload) {
  {
    std::lock_guard lock(metrics_mu_);
    metrics_.messages_delivered += 1;
    metrics_.bytes_delivered += payload.size();
  }
  obs_messages_delivered_.inc();
  obs_bytes_delivered_.inc(payload.size());
  process_->on_message(*ctx_, from, payload);
}

}  // namespace bla::net
