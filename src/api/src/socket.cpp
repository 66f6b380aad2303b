#include "fhg/api/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "fhg/api/codec.hpp"
#include "fhg/obs/registry.hpp"

namespace fhg::api {

namespace {

using Clock = std::chrono::steady_clock;

/// Read chunk size of the event-loop and roundtrip read paths.
constexpr std::size_t kReadChunk = 64 * 1024;

/// epoll_wait batch size per wakeup.
constexpr int kEpollBatch = 256;

/// Pooled response buffers kept per server (and the capacity bound above
/// which a buffer is returned to the allocator instead of the pool, so one
/// giant snapshot response does not pin megabytes forever).
constexpr std::size_t kPoolMaxBuffers = 256;
constexpr std::size_t kPoolMaxBufferBytes = 256 * 1024;

// Socket-layer telemetry lands on the process-wide registry (scraped by
// /metrics, excluded from GetStats — see the codec's registry note).
// Handles are cached once; the event loop pays relaxed increments only.

struct SocketCounters {
  obs::Counter& connections =
      obs::Registry::global().counter("fhg_socket_connections_total");
  obs::Counter& connections_reaped =
      obs::Registry::global().counter("fhg_socket_connections_reaped_total");
  obs::Gauge& connections_open = obs::Registry::global().gauge("fhg_socket_connections");
  obs::Gauge& connections_peak =
      obs::Registry::global().gauge("fhg_socket_connections_peak");
  // accept errors are deliberately absent here: they are per-listener (see
  // SocketServer::accept_errors_), labeled by bound port.
  obs::Counter& epoll_wakes =
      obs::Registry::global().counter("fhg_socket_epoll_wakes_total");
  obs::Counter& write_stalls =
      obs::Registry::global().counter("fhg_socket_write_stalls_total");
  obs::Counter& frames = obs::Registry::global().counter("fhg_socket_frames_total");
  obs::Counter& bytes_read =
      obs::Registry::global().counter("fhg_socket_bytes_read_total");
  obs::Counter& bytes_written =
      obs::Registry::global().counter("fhg_socket_bytes_written_total");
  obs::HistogramCell& frame_us =
      obs::Registry::global().histogram("fhg_socket_frame_us");
};

SocketCounters& socket_counters() {
  static SocketCounters counters;
  return counters;
}

/// The worker whose event loop runs on this thread (nullptr on any other
/// thread).  A completion callback that finds its own worker here was
/// invoked synchronously from `dispatch_frame` — the only place a loop
/// thread enters the handler — and may touch the connection directly.
thread_local const void* current_loop = nullptr;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("fhg::api socket: " + what + ": " + std::strerror(errno));
}

/// Parses a dotted-quad address into a loopback-or-any sockaddr.
sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("fhg::api socket: '" + host +
                             "' is not a dotted-quad IPv4 address");
  }
  return address;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Sends the whole buffer on a *blocking* socket, retrying on EINTR and
/// partial writes.  MSG_NOSIGNAL keeps a dead peer an errno (EPIPE), never
/// a process-killing SIGPIPE.
bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One recv, retrying on EINTR.  Returns -1 on error, 0 on orderly EOF.
ssize_t recv_some(int fd, std::uint8_t* buffer, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, size, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n;
  }
}

/// Reads the big-endian length prefix of a frame header, or npos when the
/// header is not a valid one (the assembler re-checks and poisons).
constexpr std::size_t kBadHeader = static_cast<std::size_t>(-1);
std::size_t whole_frame_size(std::span<const std::uint8_t> bytes, std::size_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    return kBadHeader;
  }
  const std::uint32_t magic = (std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
                              (std::uint32_t{bytes[2]} << 8) | std::uint32_t{bytes[3]};
  if (magic != kFrameMagic) {
    return kBadHeader;
  }
  const std::size_t payload = (std::size_t{bytes[4]} << 24) | (std::size_t{bytes[5]} << 16) |
                              (std::size_t{bytes[6]} << 8) | std::size_t{bytes[7]};
  if (payload > max_payload) {
    return kBadHeader;
  }
  return kFrameHeaderBytes + payload;
}

}  // namespace

// ------------------------------------------------------------- event loop --

/// One accepted connection: a state machine owned by exactly one event-loop
/// worker.  All fields are touched only on that worker's thread — a handler
/// completion mutates a connection directly only when it runs on that
/// thread (synchronously, inside `dispatch_frame`); from any other thread it
/// posts to the owning worker's inbox and the worker applies it.
struct SocketServer::Connection {
  int fd = -1;
  std::size_t worker = 0;  ///< owning event loop (index into workers_)
  FrameAssembler assembler;

  // The ordering window: requests get sequence numbers as they decode;
  // completions may land out of order but responses are written strictly in
  // sequence, so pipelined clients see answers in submission order.
  std::uint64_t next_dispatch_seq = 0;  ///< next request sequence to assign
  std::uint64_t next_write_seq = 0;     ///< next response sequence to write
  std::map<std::uint64_t, std::vector<std::uint8_t>> ready;  ///< out-of-order completions
  std::size_t inflight = 0;  ///< dispatched requests whose completion has not landed

  std::deque<std::vector<std::uint8_t>> outbox;  ///< response bytes awaiting the kernel
  std::size_t outbox_offset = 0;                 ///< sent prefix of outbox.front()

  bool want_write = false;        ///< EPOLLOUT armed (kernel buffer was full)
  bool read_open = true;          ///< still reading (no EOF, not poisoned)
  bool hangup_after_flush = false;  ///< close once every pending response is out
  bool closed = false;            ///< fd closed; late completions are dropped
};

/// A worker's cross-thread mailbox.  Held by `shared_ptr` from the worker,
/// the acceptor and every in-flight completion callback, so a completion
/// landing after the server stopped finds a flagged-closed inbox instead of
/// a dangling pointer or a recycled eventfd.
struct SocketServer::Worker {
  struct Inbox {
    std::mutex mutex;
    bool closed = false;  ///< set after the worker exits; wake() becomes a no-op
    int event_fd = -1;
    std::vector<int> incoming;  ///< freshly accepted fds awaiting registration

    struct Completion {
      std::shared_ptr<Connection> connection;
      std::uint64_t seq = 0;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<Completion> completions;

    /// Recycled response buffers: completion callbacks (on handler worker
    /// threads) acquire, the event loop releases after the bytes hit the
    /// kernel.  Bounded in count and per-buffer capacity.
    std::vector<std::vector<std::uint8_t>> pool;

    std::vector<std::uint8_t> acquire_buffer() {
      const std::lock_guard<std::mutex> lock(mutex);
      if (pool.empty()) {
        return {};
      }
      std::vector<std::uint8_t> buffer = std::move(pool.back());
      pool.pop_back();
      return buffer;
    }

    void release_buffer(std::vector<std::uint8_t>&& buffer) {
      if (buffer.capacity() > kPoolMaxBufferBytes) {
        return;  // oversized one-offs go back to the allocator
      }
      buffer.clear();
      const std::lock_guard<std::mutex> lock(mutex);
      if (pool.size() < kPoolMaxBuffers) {
        pool.push_back(std::move(buffer));
      }
    }

    /// Wakes the event loop (one relaxed eventfd write).  Safe at any time,
    /// from any thread, including after the worker exited.
    void wake() {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!closed) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
      }
    }
  };

  int epoll_fd = -1;
  std::shared_ptr<Inbox> inbox = std::make_shared<Inbox>();
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Connection>> connections;  ///< by fd
  std::size_t inflight = 0;  ///< dispatched-not-yet-applied completions (loop thread only)
  std::vector<std::uint8_t> read_buffer = std::vector<std::uint8_t>(kReadChunk);
};

SocketServer::SocketServer(Handler& handler, SocketServerOptions options)
    : handler_(handler), options_(options), host_(std::move(options.host)) {
  const sockaddr_in address = make_address(host_, options.port);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw_errno("socket");
  }
  const int enable = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind " + host_ + ":" + std::to_string(options.port));
  }
  if (::listen(listen_fd_, options.backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  // The port is only known post-bind (0 = ephemeral), so the per-listener
  // error counter is created here rather than in the shared counter bundle.
  accept_errors_ = &obs::Registry::global().counter(
      "fhg_socket_accept_errors_total{port=\"" + std::to_string(port_) + "\"}");

  std::size_t workers = options.workers;
  if (workers == 0) {
    workers = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) {
      throw_errno("epoll_create1");
    }
    worker->inbox->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->inbox->event_fd < 0) {
      throw_errno("eventfd");
    }
    epoll_event wake_event{};
    wake_event.events = EPOLLIN;
    wake_event.data.fd = worker->inbox->event_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->inbox->event_fd, &wake_event) != 0) {
      throw_errno("epoll_ctl eventfd");
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker& ref = *worker;
    ref.thread = std::thread([this, &ref] { event_loop(ref); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::accept_loop() {
  SocketCounters& counters = socket_counters();
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;  // listen socket closed by stop()
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        accept_errors_->increment();
        continue;  // aborted handshake: the listener is fine, keep serving
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Momentary fd exhaustion: back off briefly instead of abandoning
        // the port forever — connections close and free fds all the time.
        accept_errors_->increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // the listener itself is unusable
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    counters.connections.increment();
    counters.connections_open.add(1);
    counters.connections_peak.record_max(counters.connections_open.value());
    const int enable = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    if (options_.send_buffer_bytes > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                         sizeof(options_.send_buffer_bytes));
    }
    set_nonblocking(fd);
    // Round-robin placement; the owning worker registers the fd in its own
    // epoll set, so connection state never crosses threads.
    Worker& worker = *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                              workers_.size()];
    {
      const std::lock_guard<std::mutex> lock(worker.inbox->mutex);
      if (worker.inbox->closed) {
        ::close(fd);  // raced with stop(): the loop is gone, refuse politely
        counters.connections_open.add(-1);
        return;
      }
      worker.inbox->incoming.push_back(fd);
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = ::write(worker.inbox->event_fd, &one, sizeof(one));
    }
  }
}

void SocketServer::event_loop(Worker& worker) {
  current_loop = &worker;
  SocketCounters& counters = socket_counters();
  epoll_event events[kEpollBatch];
  std::vector<int> incoming;
  std::vector<Worker::Inbox::Completion> completions;
  // The loop outlives stop() long enough to apply every in-flight handler
  // completion: callbacks hold shared state (inbox, connections), so exiting
  // with inflight > 0 would strand them; exiting only at zero means every
  // completion has fully run by the time stop() joins this thread.
  while (!stopping_.load(std::memory_order_acquire) || worker.inflight > 0) {
    const int ready = ::epoll_wait(worker.epoll_fd, events, kEpollBatch, -1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // the epoll fd itself failed: unrecoverable
    }
    counters.epoll_wakes.increment();

    // 1. Drain the inbox: register fresh connections, apply completions.
    bool inbox_signaled = false;
    for (int i = 0; i < ready; ++i) {
      inbox_signaled |= events[i].data.fd == worker.inbox->event_fd;
    }
    if (inbox_signaled) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(worker.inbox->event_fd, &drained, sizeof(drained));
      {
        const std::lock_guard<std::mutex> lock(worker.inbox->mutex);
        incoming.swap(worker.inbox->incoming);
        completions.swap(worker.inbox->completions);
      }
      const bool draining = stopping_.load(std::memory_order_acquire);
      for (const int fd : incoming) {
        if (draining) {
          ::close(fd);
          counters.connections_open.add(-1);
          counters.connections_reaped.increment();
          continue;
        }
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.fd = fd;
        if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
          ::close(fd);
          counters.connections_open.add(-1);
          counters.connections_reaped.increment();
          continue;
        }
        worker.connections.emplace(fd, std::move(connection));
      }
      incoming.clear();
      for (auto& completion : completions) {
        --worker.inflight;
        const std::shared_ptr<Connection>& connection = completion.connection;
        --connection->inflight;
        if (connection->closed) {
          continue;  // the peer is gone; the response has no one to go to
        }
        connection->ready.emplace(completion.seq, std::move(completion.bytes));
        flush(worker, connection);
      }
      completions.clear();
    }

    // 2. Socket readiness.  Look connections up by fd: a connection closed
    // earlier in this batch (or replaced after an fd reuse) simply misses.
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.fd == worker.inbox->event_fd) {
        continue;
      }
      const auto it = worker.connections.find(events[i].data.fd);
      if (it == worker.connections.end()) {
        continue;
      }
      const std::shared_ptr<Connection> connection = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_connection(worker, connection);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !connection->closed) {
        flush(worker, connection);
      }
      if ((events[i].events & EPOLLIN) != 0 && !connection->closed &&
          connection->read_open) {
        on_readable(worker, connection);
      }
    }

    // Entering shutdown: fail every connection's pending I/O once.  The
    // loop then spins on the inbox until the last completion lands.
    if (stopping_.load(std::memory_order_acquire)) {
      std::vector<std::shared_ptr<Connection>> live;
      live.reserve(worker.connections.size());
      for (const auto& [fd, connection] : worker.connections) {
        live.push_back(connection);
      }
      for (const auto& connection : live) {
        close_connection(worker, connection);
      }
    }
  }
}

namespace {

/// Re-arms a connection's epoll interest to match its state machine: read
/// while the stream is open, write while the outbox is parked on a full
/// kernel buffer.  A mask of zero is valid (EPOLLERR/EPOLLHUP still fire) —
/// crucially, a drained EOF connection must *not* stay EPOLLIN-armed, or
/// level-triggered readiness would spin the loop.
void update_interest(int epoll_fd, int fd, bool read_open, bool want_write) {
  epoll_event event{};
  event.events = (read_open ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  event.data.fd = fd;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &event);
}

}  // namespace

void SocketServer::on_readable(Worker& worker, const std::shared_ptr<Connection>& connection) {
  SocketCounters& counters = socket_counters();
  for (;;) {
    const ssize_t n = recv_some(connection->fd, worker.read_buffer.data(), kReadChunk);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // drained; epoll will call again
      }
      close_connection(worker, connection);  // ECONNRESET and friends
      return;
    }
    if (n == 0) {
      // Orderly EOF: stop reading, let pending responses flush, then close.
      connection->read_open = false;
      connection->hangup_after_flush = true;
      update_interest(worker.epoll_fd, connection->fd, false, connection->want_write);
      flush(worker, connection);
      return;
    }
    counters.bytes_read.add(static_cast<std::uint64_t>(n));
    std::span<const std::uint8_t> bytes{worker.read_buffer.data(), static_cast<std::size_t>(n)};

    // Zero-copy fast path: frames that arrived whole in this read are
    // dispatched straight from the read buffer; only a trailing partial
    // frame (or a mid-frame carryover) pays the assembler's copy.
    if (connection->assembler.buffered() == 0) {
      while (!bytes.empty()) {
        const std::size_t frame_size = whole_frame_size(bytes, kMaxFramePayload);
        if (frame_size == kBadHeader || frame_size > bytes.size()) {
          break;  // partial or mis-framed: the assembler takes over
        }
        dispatch_frame(worker, connection, bytes.subspan(0, frame_size));
        bytes = bytes.subspan(frame_size);
        if (connection->closed || !connection->read_open) {
          return;
        }
      }
      if (bytes.empty()) {
        flush(worker, connection);
        continue;
      }
    }
    if (!connection->assembler.feed(bytes).ok()) {
      // The stream is irrecoverably mis-framed (bad magic / oversized
      // length): answer typed once — as the connection's final, ordered
      // response — then hang up; resynchronization is impossible without
      // frame boundaries.
      const std::uint64_t seq = connection->next_dispatch_seq++;
      connection->ready.emplace(
          seq, encode_response(0, Response{connection->assembler.error(), std::monostate{}}));
      connection->read_open = false;
      connection->hangup_after_flush = true;
      update_interest(worker.epoll_fd, connection->fd, false, connection->want_write);
      flush(worker, connection);
      return;
    }
    while (auto frame = connection->assembler.next()) {
      dispatch_frame(worker, connection, *frame);
      if (connection->closed || !connection->read_open) {
        return;
      }
    }
    flush(worker, connection);
  }
}

void SocketServer::dispatch_frame(Worker& worker, const std::shared_ptr<Connection>& connection,
                                  std::span<const std::uint8_t> frame) {
  DecodedRequest decoded;
  if (Status status = decode_request(frame, decoded); !status.ok()) {
    // Well-framed but undecodable: a typed reply addressed to whatever id
    // the prologue yielded, and the stream continues — framing is intact.
    const std::uint64_t seq = connection->next_dispatch_seq++;
    connection->ready.emplace(seq, encode_response(decoded.request_id,
                                                   Response{std::move(status), std::monostate{}}));
    return;
  }
  const std::uint64_t seq = connection->next_dispatch_seq++;
  ++connection->inflight;
  ++worker.inflight;
  const RequestContext context{decoded.trace_id, decoded.request_id};
  // The completion may run synchronously (admission rejects, reads served
  // inline) or later on a handler worker thread.  Synchronously, it is on
  // this loop's thread and files the response straight into the ordering
  // window — on_readable flushes after dispatching, so no inbox round trip
  // or eventfd wake is needed.  Otherwise it only touches the shared inbox
  // and the event loop applies it to the connection on its own thread.
  // Either way `flush` writes strictly in sequence order.
  handler_.handle(
      std::move(decoded.request), context,
      [loop = &worker, inbox = worker.inbox, connection, seq, request_id = decoded.request_id,
       start = Clock::now()](Response response) {
        std::vector<std::uint8_t> bytes = inbox->acquire_buffer();
        try {
          encode_response_into(request_id, response, bytes);
        } catch (const std::length_error&) {
          // The response (e.g. a huge tenancy's snapshot) exceeds the frame
          // bound.  Answer typed instead of letting the exception escape.
          bytes.clear();
          encode_response_into(
              request_id,
              Response::error(StatusCode::kResourceExhausted,
                              "response exceeds the frame payload bound"),
              bytes);
        }
        socket_counters().frame_us.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
                .count()));
        if (current_loop == loop) {
          --loop->inflight;
          --connection->inflight;
          if (!connection->closed) {
            connection->ready.emplace(seq, std::move(bytes));
          }
          return;
        }
        const std::lock_guard<std::mutex> lock(inbox->mutex);
        inbox->completions.push_back({connection, seq, std::move(bytes)});
        if (!inbox->closed) {
          const std::uint64_t one = 1;
          [[maybe_unused]] const ssize_t n = ::write(inbox->event_fd, &one, sizeof(one));
        }
      });
}

void SocketServer::flush(Worker& worker, const std::shared_ptr<Connection>& connection) {
  if (connection->closed) {
    return;
  }
  SocketCounters& counters = socket_counters();
  // Promote contiguously ready responses into the outbox, in order.
  while (!connection->ready.empty() &&
         connection->ready.begin()->first == connection->next_write_seq) {
    connection->outbox.push_back(std::move(connection->ready.begin()->second));
    connection->ready.erase(connection->ready.begin());
    ++connection->next_write_seq;
  }
  // Write until the kernel stops taking bytes.
  while (!connection->outbox.empty()) {
    std::vector<std::uint8_t>& front = connection->outbox.front();
    const ssize_t n = ::send(connection->fd, front.data() + connection->outbox_offset,
                             front.size() - connection->outbox_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Backpressure: the reader is slower than the handler.  Park the
        // bytes and let EPOLLOUT call back when the buffer drains.
        counters.write_stalls.increment();
        if (!connection->want_write) {
          connection->want_write = true;
          update_interest(worker.epoll_fd, connection->fd, connection->read_open, true);
        }
        return;
      }
      close_connection(worker, connection);  // EPIPE / ECONNRESET: peer is gone
      return;
    }
    counters.bytes_written.add(static_cast<std::uint64_t>(n));
    connection->outbox_offset += static_cast<std::size_t>(n);
    if (connection->outbox_offset == front.size()) {
      counters.frames.increment();
      worker.inbox->release_buffer(std::move(front));
      connection->outbox.pop_front();
      connection->outbox_offset = 0;
    }
  }
  if (connection->want_write) {
    connection->want_write = false;
    update_interest(worker.epoll_fd, connection->fd, connection->read_open, false);
  }
  // Drained, and no more input is coming: the connection is complete.
  if (connection->hangup_after_flush && connection->inflight == 0 &&
      connection->ready.empty()) {
    close_connection(worker, connection);
  }
}

void SocketServer::close_connection(Worker& worker,
                                    const std::shared_ptr<Connection>& connection) {
  if (connection->closed) {
    return;
  }
  connection->closed = true;
  (void)::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, connection->fd, nullptr);
  ::close(connection->fd);
  connection->outbox.clear();
  connection->ready.clear();
  worker.connections.erase(connection->fd);
  socket_counters().connections_open.add(-1);
  socket_counters().connections_reaped.increment();
}

void SocketServer::stop() {
  // Serialized and blocking: a second caller waits until the first stop has
  // finished tearing everything down, then returns immediately.
  const std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_) {
    return;
  }
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // Closing the listen socket fails the blocking accept(2) and ends the
  // accept loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Wake every event loop: each closes its connections, then drains its
  // in-flight completions before exiting (so no callback is left running
  // against freed state).
  for (auto& worker : workers_) {
    worker->inbox->wake();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
    {
      // Flag the inbox closed under its lock: completion callbacks that
      // somehow straggle (there are none once inflight hit zero, but the
      // flag makes that a guarantee, not an argument) see `closed` and
      // skip the eventfd.
      const std::lock_guard<std::mutex> inbox_lock(worker->inbox->mutex);
      worker->inbox->closed = true;
      ::close(worker->inbox->event_fd);
      worker->inbox->event_fd = -1;
    }
    ::close(worker->epoll_fd);
    worker->epoll_fd = -1;
  }
}

// ------------------------------------------------------------ SocketTransport --

SocketTransport::SocketTransport(const std::string& host, std::uint16_t port)
    : host_(host), port_(port) {
  connect_to_endpoint();
}

void SocketTransport::connect_to_endpoint() {
  const sockaddr_in address = make_address(host_, port_);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw_errno("socket");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect " + host_ + ":" + std::to_string(port_));
  }
  const int enable = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status SocketTransport::reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Reset *before* dialing: even if the dial fails, the dead connection's
  // partial bytes must never survive into a later successful reconnect.
  assembler_.reset();
  try {
    connect_to_endpoint();
  } catch (const std::runtime_error& e) {
    return Status::error(StatusCode::kInternal, e.what());
  }
  return Status::good();
}

Status SocketTransport::roundtrip(std::span<const std::uint8_t> request_frame,
                                  std::vector<std::uint8_t>& response_frame) {
  if (fd_ < 0) {
    return Status::error(StatusCode::kInternal, "transport is disconnected (reconnect failed)");
  }
  if (!send_all(fd_, request_frame)) {
    return Status::error(StatusCode::kInternal,
                         std::string("send failed: ") + std::strerror(errno));
  }
  for (;;) {
    if (auto frame = assembler_.next()) {
      response_frame = std::move(*frame);
      return Status::good();
    }
    if (!assembler_.error().ok()) {
      return assembler_.error();
    }
    std::uint8_t chunk[kReadChunk];
    const ssize_t n = recv_some(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      return Status::error(StatusCode::kInternal,
                           std::string("recv failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::error(StatusCode::kInternal,
                           "connection closed before a complete response frame arrived");
    }
    if (Status status = assembler_.feed({chunk, static_cast<std::size_t>(n)}); !status.ok()) {
      return status;
    }
  }
}

}  // namespace fhg::api
