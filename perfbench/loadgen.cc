// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload=mem_mix --seed=1 --seconds=15 --trace=0
//             --server=PATH/twig_serve --work=DIR --out=DIR
//
// Generates the workload's XML (and, for paged_evict, its TWCST03
// store) and requests from the seed, starts the real twig_serve on
// them, and drives it over loopback TCP from one event-driven thread
// with at most 4 connections. After an untimed warm-up it runs two
// closed-loop phases: c1 (1 connection, 1 request outstanding) and
// batch (4 connections x 16 pipelined). Every reply is checked bit for
// bit against the benchmark's own estimator over the same summary; a
// wrong answer exits 1 and names the twig.
//
// --trace=0 prints the end-to-end metrics. --trace=1 repeats c1 with a
// span per request, reads the server's counters around each phase,
// runs perfbench_layers (the in-process replay) and prints the
// per-layer metrics. The last stdout line is the JSON result.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "cst/cst.h"
#include "match/matcher.h"
#include "obs/json.h"
#include "stats/metrics.h"
#include "suffix/path_suffix_tree.h"
#include "util/thread_pool.h"
#include "xml/xml.h"

namespace perfbench {
namespace {

constexpr int64_t kNsPerSec = 1000000000;
constexpr double kInf = std::numeric_limits<double>::infinity();

// -- The server process --------------------------------------------------

/// One twig_serve child. Its stdout is a pipe read until the
/// "listening on" line; stderr goes to a log file. The destructor kills
/// and reaps a server still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  Status Start(const std::string& binary, const std::vector<std::string>& flags,
               const std::string& log_path);
  /// Asks the server to shut down and reaps it (SIGKILL after 20 s).
  Status Stop();
  void Kill();
  uint16_t port() const { return port_; }
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;
  /// User + system CPU time of all its threads so far, in seconds.
  double CpuSeconds() const;

 private:
  Status Reap(int64_t deadline_ns);
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Sends one request line on a blocking socket and reads one reply line.
Result<std::string> Call(int fd, const std::string& line) {
  const std::string out = line + "\n";
  for (size_t sent = 0; sent < out.size();) {
    const ssize_t n = send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("send failed");
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[65536];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("connection closed");
    reply.append(buf, static_cast<size_t>(n));
  }
  reply.resize(reply.find('\n'));
  return reply;
}

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& flags,
                            const std::string& log_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_ = fork();
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    dup2(fds[1], STDOUT_FILENO);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (log_fd >= 0) close(log_fd);
  if (pid_ < 0) {
    close(fds[0]);
    return Status::Internal("fork failed");
  }
  out_fd_ = fds[0];
  // Event-driven wait for the line that carries the bound port.
  const std::string marker = "listening on 127.0.0.1:";
  std::string text;
  const int64_t deadline = NowNs() + 150 * kNsPerSec;
  while (text.find(marker) == std::string::npos ||
         text.find('\n', text.find(marker)) == std::string::npos) {
    pollfd pfd{out_fd_, POLLIN, 0};
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) return Status::DeadlineExceeded("server start timed out");
    if (poll(&pfd, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
      return Status::Internal("poll failed");
    }
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::Unavailable("server exited during start-up (see " + log_path + ")");
    if (n > 0) text.append(buf, static_cast<size_t>(n));
  }
  port_ = static_cast<uint16_t>(std::atoi(text.c_str() + text.find(marker) + marker.size()));
  return Status::OK();
}

Status ServerProcess::Reap(int64_t deadline_ns) {
  while (pid_ > 0) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      pid_ = -1;
      break;
    }
    if (NowNs() > deadline_ns) return Status::DeadlineExceeded("server did not exit");
    usleep(1000);
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  return Status::OK();
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  const int fd = ConnectLoopback(port_);
  if (fd >= 0) {
    (void)Call(fd, R"({"op":"shutdown","id":0})");
    close(fd);
  }
  if (Reap(NowNs() + 20 * kNsPerSec).ok()) return Status::OK();
  Kill();
  return Status::Internal("server ignored shutdown; killed");
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    (void)Reap(std::numeric_limits<int64_t>::max());
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// CPU time the hypervisor gave to others while this machine wanted
/// it (steal, all CPUs), in seconds.
double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double value = 0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> value; ++i) {
  }
  return value / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// -- The load client -------------------------------------------------------

struct PhaseConfig {
  const char* name;
  size_t conns;
  size_t depth;
  double seconds;
  /// The phase runs on past `seconds` until this many estimates
  /// completed (so p99.9 keeps 10 samples beyond it), up to `cap_seconds`.
  size_t min_completions = 0;
  double cap_seconds = 0;
  /// Send a swap in line on connection 0 this often; 0 = never.
  double swap_every = 0;
  /// Record a span per request here when non-null.
  SpanLog* spans = nullptr;
};

struct PhaseResult {
  std::string name;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  // ok estimates inside the timed window
  uint64_t ok = 0;
  uint64_t cached = 0;
  std::vector<double> latency_us;  // failed requests count as +inf
  std::vector<double> wait_us;
  std::vector<double> exec_us;
  std::vector<double> outside_us;
  std::vector<double> swap_s;
  std::set<uint64_t> versions;
  double server_cpu_s = 0;
  double steal_s = 0;
};

class LoadClient {
 public:
  LoadClient(const Inputs& inputs, const std::vector<std::string>& expected)
      : inputs_(inputs), expected_(expected) {
    for (const std::string& spelling : inputs.spellings) {
      twig::obs::JsonWriter writer;
      writer.String(spelling);
      prefixes_.push_back(R"({"op":"estimate","query":)" + std::move(writer).str() +
                          R"(,"id":)");
    }
  }

  /// Runs one closed-loop phase. A wrong answer stops it and sets
  /// error(); structured errors and transport failures only count.
  PhaseResult Run(uint16_t port, const PhaseConfig& config);

  /// The first wrong answer or protocol violation, if any.
  const Status& error() const { return error_; }

 private:
  struct Pending {
    uint64_t id;
    uint32_t spelling;  // kSwap for a swap
    int64_t sent_ns;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    size_t in_start = 0;
    std::string out;
    std::deque<Pending> pending;
    size_t unsent = 0;  // trailing entries of `pending` not yet flushed
  };
  static constexpr uint32_t kSwap = 0xffffffffu;

  void Enqueue(Conn& conn, bool swap);
  bool Flush(Conn& conn);
  void HandleLine(Conn& conn, std::string_view line, int64_t now,
                  const PhaseConfig& config, PhaseResult& result);
  void FailConn(Conn& conn, PhaseResult& result);

  const Inputs& inputs_;
  const std::vector<std::string>& expected_;
  std::vector<std::string> prefixes_;
  size_t cursor_ = 0;
  uint64_t next_id_ = 1;
  Status error_;
  // Per-phase state.
  bool sending_ = false;
  bool swap_in_flight_ = false;
  uint64_t attempted_ = 0;
  // A swap that fell due and is not sent yet; it carries over to the
  // next phase that swaps when its phase ends first.
  bool swap_due_ = false;
  // Timed load so far, and the load time at which the next swap is due.
  int64_t load_ns_ = 0;
  int64_t next_swap_load_ns_ = 0;
};

void LoadClient::Enqueue(Conn& conn, bool swap) {
  ++attempted_;
  const uint64_t id = next_id_++;
  if (swap) {
    conn.out += R"({"op":"swap","id":)" + std::to_string(id) + "}\n";
    conn.pending.push_back({id, kSwap, 0});
  } else {
    // The request stream, cycled.
    const uint32_t spelling = inputs_.stream[cursor_++ % inputs_.stream.size()];
    conn.out += prefixes_[spelling] + std::to_string(id) + "}\n";
    conn.pending.push_back({id, spelling, 0});
  }
  ++conn.unsent;
}

bool LoadClient::Flush(Conn& conn) {
  if (conn.out.empty()) return true;
  const int64_t now = NowNs();
  for (size_t i = conn.pending.size() - conn.unsent; i < conn.pending.size(); ++i) {
    conn.pending[i].sent_ns = now;
  }
  conn.unsent = 0;
  size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + sent, conn.out.size() - sent,
                           MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn.fd, POLLOUT, 0};
      poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  conn.out.clear();
  return true;
}

void LoadClient::FailConn(Conn& conn, PhaseResult& result) {
  for (const Pending& pending : conn.pending) {
    ++result.failed;
    if (pending.spelling == kSwap) {
      swap_in_flight_ = false;
    } else {
      result.latency_us.push_back(kInf);
    }
  }
  conn.pending.clear();
  conn.unsent = 0;
  conn.out.clear();
  if (conn.fd >= 0) close(conn.fd);
  conn.fd = -1;
}

void LoadClient::HandleLine(Conn& conn, std::string_view line, int64_t now,
                            const PhaseConfig& config, PhaseResult& result) {
  if (conn.pending.empty()) {
    error_ = Status::Internal("reply without a request: " + std::string(line));
    return;
  }
  const Pending pending = conn.pending.front();
  conn.pending.pop_front();
  if (ReplyField(line, "id") != std::to_string(pending.id)) {
    error_ = Status::Internal("reply out of order: " + std::string(line));
    return;
  }
  const bool ok = ReplyField(line, "ok") == "true";
  if (pending.spelling == kSwap) {
    swap_in_flight_ = false;
    if (!ok) {
      ++result.failed;
    } else {
      result.swap_s.push_back(static_cast<double>(now - pending.sent_ns) / kNsPerSec);
      result.versions.insert(static_cast<uint64_t>(ReplyNumber(line, "version")));
    }
  } else if (!ok) {
    ++result.failed;
    result.latency_us.push_back(kInf);
  } else {
    const std::string_view served = ReplyField(line, "estimate");
    const Status check = CheckAnswer(inputs_.spellings[pending.spelling],
                                     expected_[pending.spelling], served);
    if (!check.ok()) {
      error_ = check;
      return;
    }
    const double rtt_us = static_cast<double>(now - pending.sent_ns) / 1000.0;
    const double wait_us = ReplyNumber(line, "wait_us");
    const double exec_us = ReplyNumber(line, "exec_us");
    ++result.ok;
    if (sending_) ++result.completed;
    if (ReplyField(line, "cached") == "true") ++result.cached;
    result.versions.insert(static_cast<uint64_t>(ReplyNumber(line, "version")));
    result.latency_us.push_back(rtt_us);
    result.wait_us.push_back(wait_us);
    result.exec_us.push_back(exec_us);
    result.outside_us.push_back(rtt_us - wait_us - exec_us);
    if (config.spans != nullptr) {
      // Root span = client round trip; the server's queue wait and
      // execution become children, centred in the part the server did
      // not account for, so the root's self time is "outside".
      const int64_t wait_ns = static_cast<int64_t>(wait_us * 1000);
      const int64_t exec_ns = static_cast<int64_t>(exec_us * 1000);
      const int64_t outside_ns = std::max<int64_t>(0, (now - pending.sent_ns) - wait_ns - exec_ns);
      const int32_t root = config.spans->Add("serve.tcp.roundtrip", pending.id, -1,
                                             pending.sent_ns, now);
      const int64_t wait_start = pending.sent_ns + outside_ns / 2;
      config.spans->Add("serve.service.wait", pending.id, root, wait_start,
                        wait_start + wait_ns);
      config.spans->Add("serve.service.exec", pending.id, root, wait_start + wait_ns,
                        wait_start + wait_ns + exec_ns);
    }
  }
}

PhaseResult LoadClient::Run(uint16_t port, const PhaseConfig& config) {
  PhaseResult result;
  result.name = config.name;
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  std::vector<Conn> conns(config.conns);
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = ConnectLoopback(port);
    if (conns[i].fd < 0) {
      error_ = Status::Unavailable("cannot connect to the server");
      close(ep);
      return result;
    }
    fcntl(conns[i].fd, F_SETFL, fcntl(conns[i].fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(config.seconds * kNsPerSec);
  const int64_t cap = start + static_cast<int64_t>(std::max(config.seconds, config.cap_seconds) *
                                                   kNsPerSec);
  // Swaps fall every swap_every of timed load, counted across phases.
  const int64_t swap_every = static_cast<int64_t>(config.swap_every * kNsPerSec);
  if (swap_every > 0 && next_swap_load_ns_ == 0) next_swap_load_ns_ = swap_every;
  auto next_swap = [&] {
    return swap_every > 0 ? start + (next_swap_load_ns_ - load_ns_)
                          : std::numeric_limits<int64_t>::max();
  };
  int64_t stop = 0;
  int64_t drain_deadline = std::numeric_limits<int64_t>::max();
  sending_ = true;
  swap_in_flight_ = false;
  attempted_ = 0;
  for (Conn& conn : conns) {
    for (size_t d = 0; d < config.depth; ++d) Enqueue(conn, false);
    if (!Flush(conn)) FailConn(conn, result);
  }
  std::vector<epoll_event> events(conns.size() + 1);
  char buf[1 << 16];
  while (error_.ok()) {
    int64_t now = NowNs();
    if (sending_ && now >= end && (result.completed >= config.min_completions || now >= cap)) {
      sending_ = false;
      stop = now;
      drain_deadline = now + 30 * kNsPerSec;
    }
    if (sending_ && now >= next_swap() && !swap_due_ && !swap_in_flight_) {
      swap_due_ = true;
      next_swap_load_ns_ += swap_every;
    }
    size_t outstanding = 0;
    for (const Conn& conn : conns) outstanding += conn.pending.size();
    if (outstanding == 0 && (!sending_ || std::all_of(conns.begin(), conns.end(),
                                                      [](const Conn& c) { return c.fd < 0; }))) {
      break;
    }
    if (now > drain_deadline) {
      for (Conn& conn : conns) FailConn(conn, result);
      break;
    }
    const int64_t wake = sending_ ? std::min(end, next_swap()) : drain_deadline;
    const int timeout_ms = static_cast<int>(std::clamp<int64_t>((wake - now) / 1000000 + 1, 0, 1000));
    const int n = epoll_wait(ep, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int e = 0; e < n; ++e) {
      Conn& conn = conns[events[static_cast<size_t>(e)].data.u64];
      if (conn.fd < 0) continue;
      bool alive = true;
      for (;;) {
        const ssize_t got = recv(conn.fd, buf, sizeof buf, 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        alive = false;
        break;
      }
      const int64_t read_at = NowNs();
      size_t newline;
      while (error_.ok() && (newline = conn.in.find('\n', conn.in_start)) != std::string::npos) {
        const std::string_view line(conn.in.data() + conn.in_start, newline - conn.in_start);
        conn.in_start = newline + 1;
        const bool swap_now = swap_every > 0 && swap_due_ && &conn == &conns[0];
        HandleLine(conn, line, read_at, config, result);
        if (sending_ && error_.ok()) {
          Enqueue(conn, swap_now);
          if (swap_now) {
            swap_due_ = false;
            swap_in_flight_ = true;
          }
        }
      }
      if (conn.in_start == conn.in.size()) {
        conn.in.clear();
        conn.in_start = 0;
      }
      if (!alive || !Flush(conn)) FailConn(conn, result);
    }
  }
  if (stop == 0) stop = NowNs();
  if (swap_every > 0) load_ns_ += stop - start;
  result.wall_s = static_cast<double>(stop - start) / kNsPerSec;
  result.attempted = attempted_;
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(ep);
  return result;
}


// -- One run -----------------------------------------------------------------

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string server;  // twig_serve binary
  std::string layers;  // perfbench_layers binary
  std::string work;    // this run's inputs; the caller removes it
  std::string out;     // kept outputs: span logs
};

/// Inputs and reference answers, built in untimed preparation.
struct Prepared {
  Document doc;
  std::unique_ptr<twig::cst::Cst> reference;
  Inputs inputs;
  std::vector<std::string> expected;  // per spelling, wire text
  /// Set-up's first estimate: the document's root tag alone, a cheap
  /// request the same for every seed, and its reference answer.
  std::string probe_line;
  std::string probe_expected;
  std::vector<std::string> server_flags;
  size_t store_bytes = 0;
};

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

Status Prepare(const RunArgs& args, Prepared* prep) {
  const WorkloadSpec& spec = *args.spec;
  prep->doc = MakeDocument(args.seed);
  const std::string xml_path = args.work + "/data.xml";
  if (Status s = WriteFile(xml_path, prep->doc.xml); !s.ok()) return s;
  const auto pst = twig::suffix::PathSuffixTree::Build(prep->doc.data);
  const double space = spec.paged ? kStoreSpace : kServeSpace;
  twig::cst::CstOptions copt;
  copt.space_budget_bytes = static_cast<size_t>(
      space * static_cast<double>(twig::xml::XmlByteSize(prep->doc.data)));
  prep->reference = std::make_unique<twig::cst::Cst>(
      twig::cst::Cst::Build(prep->doc.data, pst, copt));
  if (spec.paged) {
    // The store the server opens; the in-memory CST it was written from
    // is its twin for the answer check.
    Result<std::string> blob = prep->reference->SerializePaged(kPageBytes);
    if (!blob.ok()) return blob.status();
    prep->store_bytes = blob.value().size();
    const std::string store_path = args.work + "/store.twcst03";
    if (Status s = WriteFile(store_path, blob.value()); !s.ok()) return s;
    char buffer_mb[32];
    std::snprintf(buffer_mb, sizeof buffer_mb, "%g", kBufferMb);
    prep->server_flags = {"--store=" + store_path, std::string("--buffer-mb=") + buffer_mb};
  } else {
    prep->server_flags = {"--xml=" + xml_path, "--space=" + std::to_string(kServeSpace)};
    if (spec.cache_entries > 0) {
      prep->server_flags.push_back("--cache-entries=" + std::to_string(spec.cache_entries));
    }
  }
  prep->server_flags.push_back("--port=0");
  prep->inputs = MakeInputs(spec, prep->doc.data, args.seed, *prep->reference);
  for (const std::string& spelling : prep->inputs.spellings) {
    const Result<double> estimate = ReferenceEstimate(*prep->reference, spelling);
    if (!estimate.ok()) {
      return Status::Internal("reference cannot estimate '" + spelling +
                              "': " + estimate.status().ToString());
    }
    prep->expected.push_back(EstimateText(*estimate));
  }
  const std::string probe(prep->doc.data.LabelName(prep->doc.data.root()));
  const Result<double> probe_estimate = ReferenceEstimate(*prep->reference, probe);
  if (!probe_estimate.ok()) return probe_estimate.status();
  prep->probe_expected = EstimateText(*probe_estimate);
  twig::obs::JsonWriter query;
  query.String(probe);
  prep->probe_line = R"({"op":"estimate","query":)" + std::move(query).str() + R"(,"id":0})";
  return Status::OK();
}

/// Mean |signed relative error| of the served (= reference) estimates
/// against exact occurrence counts, over a seeded sample of twigs
/// without its worst 5%.
double EstimateAccuracy(const Prepared& prep, uint64_t seed, size_t* samples) {
  const Inputs& inputs = prep.inputs;
  std::vector<uint32_t> pick(inputs.twigs.size());
  for (uint32_t i = 0; i < pick.size(); ++i) pick[i] = i;
  twig::Rng rng(SubSeed(seed, "accuracy"));
  const size_t n = std::min(kAccuracySample, pick.size());
  for (size_t i = 0; i < n; ++i) std::swap(pick[i], pick[i + rng.Uniform(pick.size() - i)]);
  std::vector<double> errors(n, 0);
  twig::util::ThreadPool pool(4);
  pool.ParallelFor(n, [&](size_t i, size_t /*worker*/) {
    const twig::query::Twig& twig = inputs.twigs[pick[i]];
    const Result<twig::match::TwigCounts> exact = twig::match::CountTwigMatches(prep.doc.data, twig);
    const Result<double> estimate =
        ReferenceEstimate(*prep.reference, twig::query::FormatTwig(twig));
    errors[i] = exact.ok() && estimate.ok()
                    ? std::fabs(twig::stats::SignedRelativeError(exact->occurrence, *estimate))
                    : kInf;
  });
  *samples = n;
  // A few twigs miss by orders of magnitude and would make the plain
  // mean a property of which twigs the seed drew; drop the worst 5%.
  std::sort(errors.begin(), errors.end());
  const size_t kept = n - n / 20;
  double sum = 0;
  for (size_t i = 0; i < kept; ++i) sum += errors[i];
  return sum / static_cast<double>(kept);
}

/// Starts the server and times exec → first correct estimate reply.
Status StartServer(const RunArgs& args, const Prepared& prep, ServerProcess* server,
                   double* setup_s) {
  const int64_t t0 = NowNs();
  if (Status s = server->Start(args.server, prep.server_flags, args.work + "/server.log"); !s.ok()) {
    return s;
  }
  const int fd = ConnectLoopback(server->port());
  if (fd < 0) return Status::Unavailable("cannot connect to the server");
  const Result<std::string> reply = Call(fd, prep.probe_line);
  const int64_t t1 = NowNs();
  close(fd);
  if (!reply.ok()) return reply.status();
  if (ReplyField(reply.value(), "ok") != "true") {
    return Status::Unavailable("first estimate failed: " + reply.value());
  }
  if (Status s = CheckAnswer(prep.probe_line, prep.probe_expected,
                             ReplyField(reply.value(), "estimate"));
      !s.ok()) {
    return s;
  }
  *setup_s = static_cast<double>(t1 - t0) / kNsPerSec;
  return Status::OK();
}

/// The server's obs counters, through the metrics verb.
Result<std::map<std::string, double>> ReadCounters(uint16_t port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return Status::Unavailable("cannot connect to the server");
  const Result<std::string> reply = Call(fd, R"({"op":"metrics","id":0})");
  close(fd);
  if (!reply.ok()) return reply.status();
  Result<twig::obs::JsonValue> json = twig::obs::ParseJson(reply.value());
  if (!json.ok()) return json.status();
  const twig::obs::JsonValue* metrics = json.value().Find("metrics");
  const twig::obs::JsonValue* counters = metrics == nullptr ? nullptr : metrics->Find("counters");
  if (counters == nullptr) return Status::Internal("metrics reply without counters");
  std::map<std::string, double> out;
  for (const auto& [name, value] : counters->members) out[name] = value.number_value;
  return out;
}

/// Swaps on an idle server, timing each acknowledgement.
Status IdleSwaps(uint16_t port, size_t count, std::vector<double>* swap_s) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return Status::Unavailable("cannot connect to the server");
  Status status;
  for (size_t i = 0; i < count && status.ok(); ++i) {
    const int64_t t0 = NowNs();
    const Result<std::string> reply = Call(fd, R"({"op":"swap","id":0})");
    if (!reply.ok() || ReplyField(reply.value(), "ok") != "true") {
      status = Status::Unavailable("swap failed");
    } else {
      swap_s->push_back(static_cast<double>(NowNs() - t0) / kNsPerSec);
    }
  }
  close(fd);
  return status;
}

void PrintInputs(const RunArgs& args, const Prepared& prep) {
  const Inputs& in = prep.inputs;
  size_t axes = 0;
  size_t reorderable = 0;
  for (size_t i = 0; i < in.twigs.size(); ++i) {
    axes += in.twig_class[i] == QueryClass::kAxes ? 1 : 0;
    reorderable += HasReorderableSiblings(in.twigs[i]) ? 1 : 0;
  }
  const double n = static_cast<double>(in.twigs.size());
  std::set<uint32_t> sent_twigs;
  std::set<uint32_t> sent_spellings(in.stream.begin(), in.stream.end());
  for (const uint32_t s : sent_spellings) sent_twigs.insert(in.spelling_twig[s]);
  std::printf(
      "input %s seed=%llu xml_bytes=%zu data_nodes=%zu cst_nodes=%zu twigs=%zu "
      "positive_share=%.3f axes_share=%.3f dropped=%zu stream=%zu spellings=%zu "
      "spellings_per_twig=%.3f reorderable_share=%.3f store_bytes=%zu pool_bytes=%zu\n",
      args.spec->name, static_cast<unsigned long long>(args.seed), prep.doc.xml.size(),
      prep.doc.data.size(), prep.reference->node_count(), in.twigs.size(),
      (n - static_cast<double>(axes)) / n, static_cast<double>(axes) / n, in.dropped,
      in.stream.size(), sent_spellings.size(),
      static_cast<double>(sent_spellings.size()) / static_cast<double>(sent_twigs.size()),
      static_cast<double>(reorderable) / n, prep.store_bytes,
      args.spec->paged ? static_cast<size_t>(kBufferMb * 1024 * 1024) : size_t{0});
}

void PrintPhase(const PhaseResult& phase) {
  std::string versions;
  for (const uint64_t v : phase.versions) versions += (versions.empty() ? "" : ",") + std::to_string(v);
  // Share of replies that spent more than 500 us outside the service's
  // wait and exec: on c1, the ones that waited for a poll tick.
  size_t slow_outside = 0;
  for (const double us : phase.outside_us) slow_outside += us > 500 ? 1 : 0;
  std::printf("phase %-10s attempted=%llu failed=%llu ok=%llu cached=%llu completed=%llu "
              "wall_s=%.3f swaps=%zu versions=%s outside_over_500us=%.4f server_cpu_s=%.3f "
              "host_steal_share=%.4f\n",
              phase.name.c_str(), static_cast<unsigned long long>(phase.attempted),
              static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.ok),
              static_cast<unsigned long long>(phase.cached),
              static_cast<unsigned long long>(phase.completed), phase.wall_s,
              phase.swap_s.size(), versions.c_str(),
              static_cast<double>(slow_outside) / std::max<double>(1, phase.outside_us.size()),
              phase.server_cpu_s,
              phase.steal_s / std::max(1e-9, phase.wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
}

/// A phase run as several short segments, interleaved with the other
/// phase and spread over several server lifetimes: samples and counts
/// are pooled, rates are kept per segment so that their median is
/// robust to a few seconds of host noise.
struct Pooled {
  PhaseResult all;
  std::vector<double> rates;

  void Add(const PhaseResult& segment) {
    all.name = segment.name;
    all.wall_s += segment.wall_s;
    all.attempted += segment.attempted;
    all.failed += segment.failed;
    all.completed += segment.completed;
    all.ok += segment.ok;
    all.cached += segment.cached;
    for (auto [to, from] : {std::pair{&all.latency_us, &segment.latency_us},
                            std::pair{&all.wait_us, &segment.wait_us},
                            std::pair{&all.exec_us, &segment.exec_us},
                            std::pair{&all.outside_us, &segment.outside_us},
                            std::pair{&all.swap_s, &segment.swap_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    all.versions.insert(segment.versions.begin(), segment.versions.end());
    all.server_cpu_s += segment.server_cpu_s;
    all.steal_s += segment.steal_s;
    if (segment.wall_s > 0) rates.push_back(static_cast<double>(segment.completed) / segment.wall_s);
  }
};

/// Median / tail of a pooled latency sample, refusing a tail that has
/// fewer than 10 samples beyond it.
Status LatencyQuantile(const Pooled& phase, double q, const char* name,
                       std::vector<Metric>* metrics) {
  std::vector<double> sorted = phase.all.latency_us;
  std::sort(sorted.begin(), sorted.end());
  const std::optional<double> value = Quantile(sorted, q);
  if (!value || !std::isfinite(*value)) {
    return Status::Internal(std::string(name) + ": too few samples or too many failures (" +
                            std::to_string(sorted.size()) + " requests)");
  }
  metrics->push_back({name, *value, "us", sorted.size()});
  return Status::OK();
}

/// Median over segments of completed estimates / segment wall time.
Metric Rate(const Pooled& phase, const char* name) {
  return {name, Median(phase.rates), "req/s", phase.rates.size()};
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

/// Server lifetimes per run and (c1, batch) rounds per lifetime, and
/// the share of the timed seconds that goes to c1.
constexpr int kLifetimes = 3;
constexpr int kRounds = 4;
constexpr double kC1Share = 0.65;
constexpr double kWarmupSeconds = 1.0;
/// Each pooled phase must hold this many requests so that p99.9 keeps
/// 10 samples beyond it.
constexpr uint64_t kMinTailSamples = 10000;

/// End-to-end metrics the report prints but BENCHMARK.json does not
/// bound. On a shared virtual machine the hypervisor's steal time comes
/// and goes for minutes at a time, and it moves these between runs by
/// more than the largest bound (0.25); see README.md.
constexpr std::string_view kUnboundedEndToEnd[] = {
    "c1_rps",       "c1_p50_us",     "c1_p999_us", "batch_rps",
    "batch_p50_us", "batch_p999_us", "swap_s",
};

/// Runs one segment and charges it the server's CPU time and the
/// host's steal time.
PhaseResult Measured(const ServerProcess& server, LoadClient& client, const PhaseConfig& config) {
  const double cpu = server.CpuSeconds();
  const double steal = HostStealSeconds();
  PhaseResult result = client.Run(server.port(), config);
  result.server_cpu_s = server.CpuSeconds() - cpu;
  result.steal_s = HostStealSeconds() - steal;
  return result;
}

int RunEndToEnd(const RunArgs& args, const Prepared& prep) {
  const WorkloadSpec& spec = *args.spec;
  size_t accuracy_samples = 0;
  const double est_rel_err = EstimateAccuracy(prep, args.seed, &accuracy_samples);

  LoadClient client(prep.inputs, prep.expected);
  const double swap_every = spec.swaps_under_load ? kSwapEverySeconds : 0;
  const double segments = kLifetimes * kRounds;
  std::vector<double> setup_s, rss_mb, swap_s;
  // A store opens in milliseconds: time a few more starts than the
  // lifetimes that carry load.
  for (int extra = 0; spec.paged && extra < 18; ++extra) {
    ServerProcess server;
    double seconds = 0;
    if (Status s = StartServer(args, prep, &server, &seconds); !s.ok()) return Fail(s);
    setup_s.push_back(seconds);
    if (Status s = server.Stop(); !s.ok()) return Fail(s);
  }
  Pooled warm, c1, batch;
  for (int life = 0; life < kLifetimes; ++life) {
    ServerProcess server;
    double seconds = 0;
    if (Status s = StartServer(args, prep, &server, &seconds); !s.ok()) return Fail(s);
    setup_s.push_back(seconds);
    const uint16_t port = server.port();
    warm.Add(client.Run(port, {"warmup", 4, 16, kWarmupSeconds}));
    for (int round = 0; round < kRounds && client.error().ok(); ++round) {
      const bool last = life == kLifetimes - 1 && round == kRounds - 1;
      // The last segment of each phase runs on until the phase holds
      // kMinTailSamples requests.
      auto segment = [&](const char* name, size_t conns, size_t depth, double share,
                         Pooled& phase) {
        PhaseConfig config{name, conns, depth, share * args.seconds / segments};
        config.swap_every = swap_every;
        if (last && phase.all.completed < kMinTailSamples) {
          config.min_completions = kMinTailSamples - phase.all.completed;
          config.cap_seconds = 60;
        }
        phase.Add(Measured(server, client, config));
      };
      segment("c1", 1, 1, kC1Share, c1);
      if (client.error().ok()) segment("batch", 4, 16, 1 - kC1Share, batch);
    }
    if (!client.error().ok()) return Fail(client.error());
    rss_mb.push_back(server.PeakRssMb());
    if (!spec.swaps_under_load && life == kLifetimes - 1) {
      // No swaps under load here: time them on the idle server instead.
      // A store re-open takes well under a millisecond: time many.
      if (Status s = IdleSwaps(port, spec.paged ? 31 : 5, &swap_s); !s.ok()) return Fail(s);
    }
    if (Status s = server.Stop(); !s.ok()) return Fail(s);
  }
  swap_s.insert(swap_s.end(), c1.all.swap_s.begin(), c1.all.swap_s.end());
  swap_s.insert(swap_s.end(), batch.all.swap_s.begin(), batch.all.swap_s.end());

  PrintInputs(args, prep);
  for (const Pooled* phase : {&warm, &c1, &batch}) PrintPhase(phase->all);
  const uint64_t attempted = c1.all.attempted + batch.all.attempted;
  const uint64_t failed = c1.all.failed + batch.all.failed;
  if (swap_s.empty()) return Fail(Status::Internal("no swap completed"));
  // error_rate is 0 on a correct run, so it travels as the result's
  // attempted / failed counts rather than as a bounded metric.
  std::vector<Metric> metrics = {{"error_rate",
                                  static_cast<double>(failed) / static_cast<double>(attempted),
                                  "fraction", attempted, false}};
  metrics.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  metrics.push_back(Rate(c1, "c1_rps"));
  Status status = LatencyQuantile(c1, 0.5, "c1_p50_us", &metrics);
  if (status.ok()) status = LatencyQuantile(c1, 0.999, "c1_p999_us", &metrics);
  metrics.push_back(Rate(batch, "batch_rps"));
  if (status.ok()) status = LatencyQuantile(batch, 0.5, "batch_p50_us", &metrics);
  if (status.ok()) status = LatencyQuantile(batch, 0.999, "batch_p999_us", &metrics);
  if (!status.ok()) return Fail(status);
  metrics.push_back({"server_rss_mb", Median(rss_mb), "MiB", rss_mb.size()});
  metrics.push_back({"est_rel_err", est_rel_err, "fraction", accuracy_samples});
  metrics.push_back({"swap_s", Median(swap_s), "s", swap_s.size()});
  for (Metric& metric : metrics) {
    for (const std::string_view name : kUnboundedEndToEnd) {
      if (metric.name == name) metric.bounded = false;
    }
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

/// Runs perfbench_layers on this run's inputs and reads its metrics.
Status RunLayers(const RunArgs& args, std::vector<Metric>* metrics) {
  const std::string result_path = args.work + "/layers.json";
  std::vector<std::string> argv_s = {args.layers, "--workload=" + std::string(args.spec->name),
                                     "--seed=" + std::to_string(args.seed),
                                     "--work=" + args.work, "--out=" + args.out};
  std::vector<char*> argv;
  for (std::string& arg : argv_s) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv(args.layers.c_str(), argv.data());
    _exit(127);
  }
  if (pid < 0) return Status::Internal("fork failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("perfbench_layers failed");
  }
  std::ifstream in(result_path);
  std::stringstream text;
  text << in.rdbuf();
  Result<twig::obs::JsonValue> json = twig::obs::ParseJson(text.str());
  if (!json.ok()) return json.status();
  for (const auto& [name, value] : json.value().members) {
    metrics->push_back({name, value.GetNumber("value"), std::string(value.GetString("unit")),
                        static_cast<size_t>(value.GetNumber("samples"))});
  }
  return Status::OK();
}

int RunTraced(const RunArgs& args, const Prepared& prep) {
  LoadClient client(prep.inputs, prep.expected);
  ServerProcess server;
  double setup_s = 0;
  if (Status s = StartServer(args, prep, &server, &setup_s); !s.ok()) return Fail(s);
  const uint16_t port = server.port();
  const double swap_every = args.spec->swaps_under_load ? kSwapEverySeconds : 0;
  SpanLog spans;
  Pooled warm, c1, c1_traced, batch;
  warm.Add(client.Run(port, {"warmup", 4, 16, kWarmupSeconds}));
  Result<std::map<std::string, double>> before = ReadCounters(port);
  if (!before.ok()) return Fail(before.status());
  // Untraced and traced c1 segments alternate, so the overhead compares
  // like with like; batch segments sit between them as in timed runs.
  for (int round = 0; round < kRounds && client.error().ok(); ++round) {
    PhaseConfig serial{"c1", 1, 1, 0.3 * args.seconds / kRounds};
    serial.swap_every = swap_every;
    c1.Add(Measured(server, client, serial));
    serial.name = "c1_traced";
    serial.spans = &spans;
    if (client.error().ok()) c1_traced.Add(Measured(server, client, serial));
    PhaseConfig pipelined{"batch", 4, 16, 0.4 * args.seconds / kRounds};
    pipelined.swap_every = swap_every;
    if (client.error().ok()) batch.Add(Measured(server, client, pipelined));
  }
  if (!client.error().ok()) return Fail(client.error());
  Result<std::map<std::string, double>> after = ReadCounters(port);
  if (!after.ok()) return Fail(after.status());
  if (Status s = server.Stop(); !s.ok()) return Fail(s);
  PrintInputs(args, prep);
  for (const Pooled* phase : {&warm, &c1, &c1_traced, &batch}) PrintPhase(phase->all);

  // The c1 round trip's split: the root span's self time is the part
  // outside the service's wait and exec.
  std::vector<double> outside;
  const std::vector<int64_t> self = spans.SelfTimes();
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    if (spans.spans()[i].parent < 0) outside.push_back(static_cast<double>(self[i]) / 1000.0);
  }
  auto p = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return Quantile(v, q, 0).value_or(0);
  };
  const double ok = static_cast<double>(c1.all.ok + c1_traced.all.ok + batch.all.ok);
  auto delta = [&](const char* name) {
    return (after.value()[name] - before.value()[name]) / std::max(1.0, ok);
  };
  const double pins = delta("storage_page_pins");
  const double reads = delta("storage_page_reads");
  const std::set<uint32_t> spellings(prep.inputs.stream.begin(), prep.inputs.stream.end());
  std::set<uint32_t> twigs;
  for (const uint32_t s : spellings) twigs.insert(prep.inputs.spelling_twig[s]);
  const size_t n = static_cast<size_t>(ok);

  std::vector<Metric> metrics;
  metrics.push_back({"serve.tcp.outside_p50_us", p(outside, 0.5), "us", outside.size()});
  metrics.push_back({"serve.tcp.outside_p99_us", p(outside, 0.99), "us", outside.size()});
  metrics.push_back({"serve.service.wait_p50_us", p(batch.all.wait_us, 0.5), "us",
                     batch.all.wait_us.size()});
  metrics.push_back({"serve.service.exec_p50_us", p(batch.all.exec_us, 0.5), "us",
                     batch.all.exec_us.size()});
  metrics.push_back({"serve.cache.hit_ratio",
                     static_cast<double>(c1.all.cached + c1_traced.all.cached + batch.all.cached) /
                         std::max(1.0, ok),
                     "fraction", n});
  metrics.push_back({"serve.cache.spellings_per_twig",
                     static_cast<double>(spellings.size()) / static_cast<double>(twigs.size()),
                     "count", prep.inputs.stream.size()});
  metrics.push_back({"storage.pins_per_req", pins, "count", n});
  metrics.push_back({"storage.reads_per_req", reads, "count", n});
  metrics.push_back({"storage.evictions_per_req", delta("storage_page_evictions"), "count", n});
  metrics.push_back({"storage.hit_ratio", pins > 0 ? 1 - reads / pins : 0, "fraction", n});
  metrics.push_back({"match.samples_per_req", delta("serve_accuracy_samples"), "count", n});
  metrics.push_back({"trace.overhead",
                     p(c1_traced.all.latency_us, 0.5) / p(c1.all.latency_us, 0.5) - 1, "fraction",
                     c1_traced.all.latency_us.size()});
  if (Status s = spans.WriteJson(args.out + "/" + args.spec->name + ".tcp-spans.json"); !s.ok()) {
    return Fail(s);
  }
  if (Status s = RunLayers(args, &metrics); !s.ok()) return Fail(s);

  // The one-page split of the serial round trip (medians over c1_traced).
  double handoff = 0;
  for (const Metric& metric : metrics) {
    if (metric.name == "serve.service.handoff_p50_us") handoff = metric.value;
  }
  std::printf("breakdown c1 round trip p50 %.1f us = outside %.1f + wait %.1f + exec %.1f "
              "(medians; in-process hand-off p50 %.1f us)\n",
              p(c1_traced.all.latency_us, 0.5), p(outside, 0.5), p(c1_traced.all.wait_us, 0.5),
              p(c1_traced.all.exec_us, 0.5), handoff);
  for (const auto& [name, self_ns] : spans.SelfTimeByName()) {
    std::printf("layer self %-24s %12.3f ms\n", name.c_str(), static_cast<double>(self_ns) / 1e6);
  }
  PrintResult(true, c1.all.attempted + c1_traced.all.attempted + batch.all.attempted,
              c1.all.failed + c1_traced.all.failed + batch.all.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  RunArgs args;
  if (!ParseArgs(argc, argv, &flags) || flags.count("workload") == 0 ||
      (args.spec = FindWorkload(flags["workload"])) == nullptr ||
      flags.count("server") == 0 || flags.count("work") == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=mem_mix|paged_evict|cached_zipf_swap "
                 "--seed=N --seconds=S --trace=0|1 --server=twig_serve "
                 "--layers=perfbench_layers --work=DIR --out=DIR\n");
    return 2;
  }
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str()) : 15;
  args.trace = flags["trace"] == "1";
  args.server = flags["server"];
  args.layers = flags["layers"];
  args.work = flags["work"];
  args.out = flags.count("out") ? flags["out"] : flags["work"];
  if (args.seconds <= 0) return Fail(Status::InvalidArgument("--seconds must be > 0"));
  signal(SIGPIPE, SIG_IGN);

  const int64_t t0 = NowNs();
  Prepared prep;
  if (Status s = Prepare(args, &prep); !s.ok()) return Fail(s);
  std::printf("prepare_s %.3f\n", static_cast<double>(NowNs() - t0) / kNsPerSec);
  return args.trace ? RunTraced(args, prep) : RunEndToEnd(args, prep);
}
