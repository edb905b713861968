#include "serve/tcp.h"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/twig.h"
#include "util/failpoint.h"

namespace twig::serve {

namespace {

/// epoll_event user-data tags for the two non-connection fds; Conn
/// pointers are always aligned, so low small integers cannot collide.
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;

/// Best-effort nonblocking send of `data`, for the torn-reply
/// failpoint: whatever the kernel takes goes out, then the caller
/// drops the connection.
void SendBestEffort(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

/// One reply slot. Every request line gets exactly one, in arrival
/// order; a connection's replies are released strictly front-to-back,
/// so pipelined bursts answer in request order regardless of how the
/// service schedules the work.
struct ReplySlot {
  /// True once `text` holds the rendered reply line (sans newline).
  bool ready = false;
  std::string text;
  /// An estimate's request, kept to render its reply once the service
  /// posts the response.
  WireRequest request;
};

/// Where the service's completions leave estimate responses for one
/// epoll worker. The worker and every in-flight completion share it,
/// so a completion that runs after Stop (or after the front end is
/// gone) touches only the inbox, and the eventfd closes with the last
/// owner.
struct ReplyInbox {
  struct Posted {
    uint64_t conn_id;
    uint64_t seq;
    EstimateResponse response;
  };

  std::mutex mutex;
  std::vector<Posted> posted;
  /// The worker's wake-up: completions and Stop write it.
  int wake_fd = -1;

  ~ReplyInbox() {
    if (wake_fd >= 0) close(wake_fd);
  }

  void Wake() const {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t written =
        write(wake_fd, &one, sizeof(one));
  }

  /// Only a post that finds the inbox empty writes the eventfd. No
  /// wake-up is lost because the worker reads the eventfd *before* it
  /// swaps the posts out: a post that lands after the swap finds the
  /// inbox empty and wakes it again.
  void Post(Posted reply) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mutex);
      was_empty = posted.empty();
      posted.push_back(std::move(reply));
    }
    if (was_empty) Wake();
  }
};

struct TcpFrontEnd::Conn {
  /// Never reused, unlike the fd: a closed connection's late reply
  /// finds no connection instead of the next owner of its descriptor.
  uint64_t id = 0;
  int fd = -1;
  /// Read side: bytes [in_start, in.size()) are unconsumed. Offset
  /// consume with amortized compaction — the old erase-per-recv
  /// re-copied the tail once per chunk, quadratic over a pipelined
  /// burst.
  std::string in;
  size_t in_start = 0;
  /// Write side: bytes [out_start, out.size()) await the socket.
  std::string out;
  size_t out_start = 0;
  std::deque<ReplySlot> slots;
  /// Sequence number of slots.front(); a slot's number is its
  /// request's position on the connection.
  uint64_t first_seq = 0;
  /// EPOLLOUT armed (the socket refused part of the backlog).
  bool want_write = false;
  /// Close once every slot has drained and the backlog is flushed.
  bool close_after_flush = false;
  /// close_after_flush, plus flag the server stop once flushed (the
  /// shutdown op answers its client before the teardown begins).
  bool stop_after_flush = false;
  /// Closed mid-iteration; skip any further events this pass.
  bool dead = false;
};

struct TcpFrontEnd::Worker {
  int epoll_fd = -1;
  std::shared_ptr<ReplyInbox> inbox = std::make_shared<ReplyInbox>();
  /// The posts being delivered; swapped with the inbox's vector so
  /// both keep their capacity.
  std::vector<ReplyInbox::Posted> delivering;
  uint64_t next_conn_id = 0;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  /// Closed-this-iteration connections, freed at a safe point.
  std::vector<std::unique_ptr<Conn>> graveyard;

  ~Worker() {
    if (epoll_fd >= 0) close(epoll_fd);
  }
};

TcpFrontEnd::TcpFrontEnd(SnapshotCatalog* catalog, EstimateService* service,
                         const TcpOptions& options)
    : owned_datasets_(std::make_unique<DatasetCatalog>()),
      datasets_(owned_datasets_.get()),
      service_(service),
      options_(options) {
  owned_datasets_->Register(kDefaultDataset, catalog);
  rebuilds_ = options_.dataset_rebuilds;
  if (rebuilds_.find(kDefaultDataset) == rebuilds_.end()) {
    RebuildSource source;
    source.rebuild = options_.rebuild;
    source.rebuild_view = options_.rebuild_view;
    source.rebuild_data = options_.rebuild_data;
    rebuilds_.emplace(kDefaultDataset, std::move(source));
  }
}

TcpFrontEnd::TcpFrontEnd(DatasetCatalog* datasets, EstimateService* service,
                         const TcpOptions& options)
    : datasets_(datasets), service_(service), options_(options) {
  rebuilds_ = options_.dataset_rebuilds;
  if (rebuilds_.find(kDefaultDataset) == rebuilds_.end()) {
    RebuildSource source;
    source.rebuild = options_.rebuild;
    source.rebuild_view = options_.rebuild_view;
    source.rebuild_data = options_.rebuild_data;
    rebuilds_.emplace(kDefaultDataset, std::move(source));
  }
}

TcpFrontEnd::~TcpFrontEnd() { Stop(); }

Status TcpFrontEnd::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, SOMAXCONN) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    const Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);

  const size_t n = std::max<size_t>(1, options_.num_connection_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = epoll_create1(0);
    worker->inbox->wake_fd =
        worker->epoll_fd < 0 ? -1 : eventfd(0, EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->inbox->wake_fd < 0) {
      const Status status = Status::Internal(
          std::string("epoll setup: ") + std::strerror(errno));
      workers_.clear();
      close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    epoll_event listen_ev{};
    // Every worker polls the shared listener; EPOLLEXCLUSIVE (where
    // the kernel has it) wakes one worker per connection instead of
    // the whole pool.
    listen_ev.events = EPOLLIN;
#ifdef EPOLLEXCLUSIVE
    listen_ev.events |= EPOLLEXCLUSIVE;
#endif
    listen_ev.data.u64 = kListenerTag;
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.u64 = kWakeTag;
    if (epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, listen_fd_,
                  &listen_ev) != 0 ||
        epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->inbox->wake_fd,
                  &wake_ev) != 0) {
      const Status status = Status::Internal(
          std::string("epoll_ctl: ") + std::strerror(errno));
      workers_.clear();
      close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    workers_.push_back(std::move(worker));
  }
  worker_threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    worker_threads_.emplace_back(
        [this, worker = workers_[i].get()] { WorkerMain(*worker); });
  }
  return Status::OK();
}

void TcpFrontEnd::WorkerMain(Worker& worker) {
  std::array<epoll_event, 64> events;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    const int n =
        epoll_wait(worker.epoll_fd, events.data(),
                   static_cast<int>(events.size()), /*timeout=*/-1);
    if (shutting_down_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[static_cast<size_t>(i)];
      if (event.data.u64 == kListenerTag) {
        AcceptBurst(worker);
        continue;
      }
      if (event.data.u64 == kWakeTag) {
        DeliverReplies(worker);
        continue;
      }
      Conn& conn = *static_cast<Conn*>(event.data.ptr);
      if (conn.dead) continue;
      bool alive = true;
      if ((event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        alive = ReadConn(worker, conn);
      }
      if (alive) alive = PumpConn(worker, conn);
      if (!alive) CloseConn(worker, conn);
    }
    worker.graveyard.clear();
  }
  // Shutdown: this worker owns its connections; closing them here
  // unblocks any client still reading.
  for (auto& [id, conn] : worker.conns) close(conn->fd);
  worker.conns.clear();
  worker.graveyard.clear();
}

void TcpFrontEnd::DeliverReplies(Worker& worker) {
  // Read the eventfd before swapping the posts out (ReplyInbox::Post).
  // One read resets its counter.
  uint64_t drained;
  [[maybe_unused]] const ssize_t got =
      read(worker.inbox->wake_fd, &drained, sizeof(drained));
  {
    // Not held while dispatching: a rejection or cache hit posts from
    // inside Submit, on this thread.
    std::lock_guard<std::mutex> lock(worker.inbox->mutex);
    worker.delivering.swap(worker.inbox->posted);
  }
  std::vector<Conn*> touched;
  for (ReplyInbox::Posted& reply : worker.delivering) {
    auto it = worker.conns.find(reply.conn_id);
    if (it == worker.conns.end()) continue;  // closed; nobody to answer
    Conn& conn = *it->second;
    ReplySlot& slot = conn.slots[reply.seq - conn.first_seq];
    slot.text = EstimateWireResponse(slot.request, reply.response);
    slot.ready = true;
    touched.push_back(&conn);
  }
  worker.delivering.clear();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (Conn* conn : touched) {
    if (!PumpConn(worker, *conn)) CloseConn(worker, *conn);
  }
}

void TcpFrontEnd::AcceptBurst(Worker& worker) {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      if (shutting_down_.load(std::memory_order_acquire)) {
        close(fd);
        return;
      }
      auto conn = std::make_unique<Conn>();
      conn->id = worker.next_conn_id++;
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close(fd);
        continue;
      }
      worker.conns.emplace(conn->id, std::move(conn));
      continue;
    }
    const int err = errno;
    if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
    if (err == EINTR || err == ECONNABORTED) {
      // A signal, or the peer hung up while queued: the next accept
      // may well succeed — retrying immediately is the whole fix for
      // the old accept-loop death (any non-EINTR failure used to kill
      // the handler thread for good).
      obs::CountEvent(obs::Counter::kServeAcceptRetries);
      continue;
    }
    if (err == EMFILE || err == ENFILE || err == ENOMEM) {
      // Resource exhaustion is transient — some connection will close
      // and release a descriptor. Back off briefly and yield; the
      // level-triggered listener stays readable, so epoll re-reports
      // it and the loop retries until the pressure clears.
      obs::CountEvent(obs::Counter::kServeAcceptRetries);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return;
    }
    // EBADF/EINVAL after Stop shut the listener down, or a genuinely
    // fatal condition: stop accepting (open connections keep serving).
    return;
  }
}

bool TcpFrontEnd::ReadConn(Worker& worker, Conn& conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;  // signal mid-read: resume
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      // EOF or a hard error. The peer may have sent requests and
      // half-closed; anything already buffered still answers below
      // only if a reply is owed — matching the old behavior (drop), we
      // close unless replies are pending flush.
      return false;
    }
    // "tcp/read": a fired error drops the connection as if the read
    // side failed; whatever the client already sent is discarded.
    if (!util::FailpointCheck("tcp/read").ok()) {
      obs::CountEvent(obs::Counter::kFaultInjected);
      return false;
    }
    conn.in.append(chunk, static_cast<size_t>(n));
    // A short read usually means the socket is drained; if not, the
    // level-triggered epoll reports it again next pass.
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  while (!conn.close_after_flush) {
    const size_t nl = conn.in.find('\n', conn.in_start);
    if (nl == std::string::npos) break;
    std::string_view line(conn.in.data() + conn.in_start,
                          nl - conn.in_start);
    conn.in_start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.size() > options_.max_line_bytes) {
      ReplySlot slot;
      slot.ready = true;
      slot.text = ErrorResponse(
          nullptr,
          Status::InvalidArgument("request line exceeds max_line_bytes"));
      conn.slots.push_back(std::move(slot));
      conn.close_after_flush = true;
      break;
    }
    DispatchLine(worker, conn, line);
  }
  // Amortized compaction: drop the consumed prefix only when it is
  // the whole buffer (free) or at least half of a nontrivial one, so
  // each byte is copied O(1) times however the burst is chunked.
  if (conn.in_start == conn.in.size()) {
    conn.in.clear();
    conn.in_start = 0;
  } else if (conn.in_start >= 4096 && conn.in_start >= conn.in.size() / 2) {
    conn.in.erase(0, conn.in_start);
    conn.in_start = 0;
  }
  if (conn.in.size() - conn.in_start > options_.max_line_bytes) {
    ReplySlot slot;
    slot.ready = true;
    slot.text = ErrorResponse(
        nullptr,
        Status::InvalidArgument("request line exceeds max_line_bytes"));
    conn.slots.push_back(std::move(slot));
    conn.close_after_flush = true;
  }
  return true;
}

void TcpFrontEnd::DispatchLine(Worker& worker, Conn& conn,
                               std::string_view line) {
  ReplySlot slot;
  Result<WireRequest> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    slot.ready = true;
    slot.text = ErrorResponse(nullptr, parsed.status());
    conn.slots.push_back(std::move(slot));
    return;
  }
  WireRequest& request = parsed.value();

  if (request.op == "estimate") {
    if (request.query.empty()) {
      slot.ready = true;
      slot.text = ErrorResponse(
          &request, Status::InvalidArgument("estimate needs a query"));
      conn.slots.push_back(std::move(slot));
      return;
    }
    Result<query::Twig> twig = query::ParseTwig(request.query);
    if (!twig.ok()) {
      slot.ready = true;
      slot.text = ErrorResponse(&request, twig.status());
      conn.slots.push_back(std::move(slot));
      return;
    }
    EstimateRequest estimate;
    estimate.twig = std::move(twig).value();
    estimate.algorithm = request.algorithm;
    estimate.semantics = request.semantics;
    estimate.dataset = request.dataset;
    estimate.tenant = request.tenant;
    if (request.deadline_ms > 0) {
      estimate.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(request.deadline_ms));
    }
    // Asynchronous: the worker never blocks on the service, so queued
    // estimates (anyone's, notably a flooded tenant's) cannot stall
    // the other connections this loop owns. The completion posts the
    // response to this worker's inbox, keyed by connection id and
    // slot sequence.
    const uint64_t seq = conn.first_seq + conn.slots.size();
    slot.request = std::move(request);
    conn.slots.push_back(std::move(slot));
    service_->Submit(std::move(estimate),
                     [inbox = worker.inbox, conn_id = conn.id,
                      seq](EstimateResponse response) {
                       inbox->Post({conn_id, seq, std::move(response)});
                     });
    return;
  }

  bool stop_after_reply = false;
  slot.ready = true;
  if (request.op == "ping") {
    const SnapshotCatalog* catalog = CatalogFor(request.dataset);
    slot.text = catalog == nullptr
                    ? ErrorResponse(&request,
                                    Status::InvalidArgument(
                                        "unknown dataset '" +
                                        request.dataset + "'"))
                    : PingResponse(request, catalog->version(),
                                   service_->queue_depth());
  } else if (request.op == "explain") {
    slot.text = HandleExplain(request);
  } else if (request.op == "metrics") {
    slot.text = HandleMetrics(request);
  } else if (request.op == "stats") {
    slot.text = HandleStats(request);
  } else if (request.op == "recent") {
    slot.text = HandleRecent(request);
  } else if (request.op == "swap") {
    slot.text = HandleSwap(request);
  } else if (request.op == "health") {
    slot.text = HandleHealth(request);
  } else if (request.op == "failpoint") {
    slot.text = HandleFailpoint(request);
  } else if (request.op == "shutdown") {
    stop_after_reply = true;
    slot.text = ShutdownResponse(request);
  } else {
    slot.text = ErrorResponse(
        &request,
        Status::InvalidArgument("unknown op '" + request.op + "'"));
  }
  conn.slots.push_back(std::move(slot));
  if (stop_after_reply) {
    // The shutdown op answers its client first, then flags the stop —
    // the flag is raised by PumpConn only after the reply is flushed,
    // so the response can never race the teardown.
    conn.stop_after_flush = true;
    conn.close_after_flush = true;
  }
}

bool TcpFrontEnd::PumpConn(Worker& worker, Conn& conn) {
  while (!conn.slots.empty()) {
    ReplySlot& slot = conn.slots.front();
    if (!slot.ready) break;  // replies release strictly in request order
    // "tcp/write": a fired error tears this reply — a prefix goes
    // out after the flushed backlog, then the connection drops,
    // exactly what a mid-reply network failure looks like.
    if (!util::FailpointCheck("tcp/write").ok()) {
      obs::CountEvent(obs::Counter::kFaultInjected);
      std::string torn = conn.out.substr(conn.out_start);
      torn.append(slot.text, 0, (slot.text.size() + 1) / 2);
      SendBestEffort(conn.fd, torn);
      return false;
    }
    conn.out += slot.text;
    conn.out.push_back('\n');
    conn.slots.pop_front();
    ++conn.first_seq;
  }
  if (!FlushConn(worker, conn)) return false;
  const bool flushed = conn.out_start >= conn.out.size();
  if (flushed && conn.slots.empty() && conn.close_after_flush) {
    if (conn.stop_after_flush) RequestStop();
    return false;
  }
  return true;
}

bool TcpFrontEnd::FlushConn(Worker& worker, Conn& conn) {
  while (conn.out_start < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_start,
                           conn.out.size() - conn.out_start, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal mid-write: resume
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.ptr = &conn;
        epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return true;  // EPOLLOUT resumes the flush
    }
    if (n <= 0) return false;  // peer went away mid-reply
    conn.out_start += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_start = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &conn;
    epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }
  return true;
}

void TcpFrontEnd::CloseConn(Worker& worker, Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  auto it = worker.conns.find(conn.id);
  if (it != worker.conns.end()) {
    // Defer the free: the current epoll batch (or a reply delivery)
    // may still hold this pointer; the graveyard clears at the end of
    // the loop iteration.
    worker.graveyard.push_back(std::move(it->second));
    worker.conns.erase(it);
  }
}

SnapshotCatalog* TcpFrontEnd::CatalogFor(std::string_view dataset) const {
  return datasets_->Find(dataset);
}

const RebuildSource& TcpFrontEnd::RebuildFor(std::string_view dataset) const {
  static const RebuildSource kNone;
  auto it = rebuilds_.find(std::string(ResolveDatasetId(dataset)));
  return it == rebuilds_.end() ? kNone : it->second;
}

std::string TcpFrontEnd::HandleExplain(const WireRequest& request) {
  if (request.query.empty()) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("explain needs a query"));
  }
  Result<query::Twig> twig = query::ParseTwig(request.query);
  if (!twig.ok()) return ErrorResponse(&request, twig.status());
  const SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  const std::shared_ptr<const CstSnapshot> snapshot = catalog->Current();
  if (snapshot == nullptr) {
    return ErrorResponse(&request,
                         Status::Unavailable("no snapshot published yet"));
  }
  // Traces are single-query sinks, so explain runs on the worker
  // thread with a local trace instead of going through the service,
  // but fails closed on storage errors exactly as the service does.
  obs::Trace trace;
  core::EstimateOptions eopt;
  eopt.semantics = request.semantics;
  eopt.trace = &trace;
  const Result<double> estimate =
      TryEstimateFailClosed(*snapshot->summary, twig.value(),
                            request.algorithm, eopt, &service_->health());
  if (!estimate.ok()) return ErrorResponse(&request, estimate.status());
  return ExplainResponse(request, trace.ToJson(), snapshot->version);
}

std::string TcpFrontEnd::HandleMetrics(const WireRequest& request) {
  const SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  return MetricsResponse(request,
                         obs::MetricsRegistry::Get().Snapshot().ToJson(),
                         catalog->version(), service_->queue_depth(),
                         service_->queue_capacity());
}

std::string TcpFrontEnd::HandleStats(const WireRequest& request) {
  const SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  std::vector<DatasetWireInfo> datasets;
  for (const std::string& id : datasets_->DatasetIds()) {
    DatasetWireInfo info;
    info.dataset = id;
    info.version = datasets_->Find(id)->version();
    datasets.push_back(std::move(info));
  }
  return StatsResponse(request, obs::MetricsRegistry::Get().Snapshot(),
                       service_->recorder(), catalog->version(),
                       service_->queue_depth(), service_->queue_capacity(),
                       datasets, service_->tenant_stats());
}

std::string TcpFrontEnd::HandleRecent(const WireRequest& request) {
  const SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  return RecentResponse(request, service_->recorder(), catalog->version());
}

std::string TcpFrontEnd::HandleSwap(const WireRequest& request) {
  SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  const RebuildSource& source = RebuildFor(request.dataset);
  if (source.empty()) {
    return ErrorResponse(
        &request, Status::Unimplemented("server has no rebuild source"));
  }
  const double space = request.space;
  const bool begun =
      source.rebuild_view
          ? catalog->BeginRebuild(
                SnapshotCatalog::ViewBuilder(
                    [rebuild = source.rebuild_view, space] {
                      return rebuild(space);
                    }),
                "swap request", source.rebuild_data)
          : catalog->BeginRebuild(
                SnapshotCatalog::Builder(
                    [rebuild = source.rebuild, space] {
                      return rebuild(space);
                    }),
                "swap request", source.rebuild_data);
  if (!begun) {
    return ErrorResponse(&request,
                         Status::Unavailable("rebuild already in flight"));
  }
  const Status status = catalog->WaitForRebuild();
  if (!status.ok()) return ErrorResponse(&request, status);
  return SwapResponse(request, catalog->version());
}

std::string TcpFrontEnd::HandleHealth(const WireRequest& request) {
  const SnapshotCatalog* catalog = CatalogFor(request.dataset);
  if (catalog == nullptr) {
    return ErrorResponse(&request,
                         Status::InvalidArgument("unknown dataset '" +
                                                 request.dataset + "'"));
  }
  // Re-run the brown-out transition against the live queue so the verb
  // reports (and advances) the same state admission would see.
  service_->health().Assess(service_->queue_depth(),
                            service_->queue_capacity());
  return HealthResponse(request, service_->health().Report(),
                        catalog->version());
}

std::string TcpFrontEnd::HandleFailpoint(const WireRequest& request) {
  if (!request.spec.empty()) {
    const Status status =
        util::FailpointRegistry::Get().ConfigureList(request.spec);
    if (!status.ok()) return ErrorResponse(&request, status);
  }
  return FailpointResponse(request,
                           util::FailpointRegistry::Get().Snapshot());
}

void TcpFrontEnd::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void TcpFrontEnd::WaitForShutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_cv_.wait(lock, [&] { return stop_requested_; });
  }
  Stop();
}

void TcpFrontEnd::Stop() {
  RequestStop();
  std::lock_guard<std::mutex> teardown(teardown_mutex_);
  if (stopped_) return;
  stopped_ = true;
  // Raise the flag first, then wake every worker through its eventfd;
  // each worker re-checks the flag after epoll_wait, closes the
  // connections it owns, and exits. The listener is closed only after
  // the joins, so its descriptor number cannot be recycled under a
  // worker still inside accept4.
  shutting_down_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->inbox->Wake();
  }
  for (std::thread& thread : worker_threads_) {
    if (thread.joinable()) thread.join();
  }
  worker_threads_.clear();
  workers_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace twig::serve
