// Cluster plumbing, statistics and the span tracer (see bench.h).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// RunResult helpers.

void RunResult::InfoNum(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  info[key] = buf;
}

void RunResult::InfoStr(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n' || c == '\t') ? ' ' : c;
  }
  info[key] = quoted + "\"";
}

// ---------------------------------------------------------------------------
// Samples.

double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t idx = std::min(
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5), v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Samples::Quantile(double q) const {
  std::vector<double> values;
  values.reserve(v_.size());
  for (const auto& [t, v] : v_) values.push_back(v);
  return QuantileOf(std::move(values), q);
}

double Samples::Sum() const {
  double s = 0;
  for (const auto& [t, v] : v_) s += v;
  return s;
}

double Samples::Mean() const { return v_.empty() ? 0 : Sum() / v_.size(); }

double Samples::TailQ(size_t n) {
  if (n <= 10) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(0.99, q));
}

size_t Samples::Slices(bool tail) const {
  return std::max<size_t>(1, std::min<size_t>(10, v_.size() / (tail ? 1000 : 50)));
}

double Samples::Sliced(bool tail) const {
  if (v_.empty()) return 0;
  std::vector<std::pair<int64_t, double>> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const size_t k = Slices(tail);
  std::vector<double> per_slice;
  for (size_t s = 0; s < k; ++s) {
    const size_t lo = sorted.size() * s / k, hi = sorted.size() * (s + 1) / k;
    std::vector<double> slice;
    for (size_t i = lo; i < hi; ++i) slice.push_back(sorted[i].second);
    const double q = tail ? TailQ(slice.size()) : 0.5;
    per_slice.push_back(QuantileOf(std::move(slice), q));
  }
  return Median(per_slice);
}

std::vector<double> Samples::SliceRates(int64_t start_ns, int64_t end_ns,
                                        int64_t slice_ns) const {
  const int64_t n = slice_ns > 0 ? (end_ns - start_ns) / slice_ns : 0;
  std::vector<double> counts(static_cast<size_t>(std::max<int64_t>(n, 0)), 0.0);
  for (const auto& [t, v] : v_) {
    if (t < start_ns) continue;
    const int64_t s = (t - start_ns) / slice_ns;
    if (s < n) counts[static_cast<size_t>(s)] += 1;
  }
  for (double& c : counts) c *= 1e9 / static_cast<double>(slice_ns);
  return counts;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name, int64_t parent) {
  if (parent < 0 && !t_open_spans.empty()) parent = t_open_spans.back();
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = NowNs();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

void Tracer::Durations(const std::string& name, Samples* total,
                       Samples* self) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || name != s.name) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (total != nullptr) total->Add(dur);
    if (self != nullptr) {
      self->Add(std::max(0.0, dur - static_cast<double>(child_ns[i]) / 1e3));
    }
  }
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Daemon counters.

namespace {

std::string LineStarting(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      return text.substr(pos, end - pos);
    }
    pos = end + 1;
  }
  return "";
}

bool Field(const std::string& line, const std::string& key, uint64_t* out) {
  const std::string needle = " " + key + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

}  // namespace

bool DaemonCounters::Parse(const std::string& summary, DaemonCounters* out) {
  DaemonCounters c;
  const std::string head = LineStarting(summary, "replica ");
  const std::string stats = LineStarting(summary, "stats:");
  const std::string sched = LineStarting(summary, "sched:");
  const std::string net = LineStarting(summary, "net:");
  const std::string cache = LineStarting(summary, "serve_cache:");
  const size_t dbvv_pos = head.find(" dbvv=");
  if (dbvv_pos == std::string::npos) return false;
  const size_t dbvv_end = head.find(' ', dbvv_pos + 1);
  c.dbvv = head.substr(dbvv_pos + 6, dbvv_end == std::string::npos
                                         ? std::string::npos
                                         : dbvv_end - dbvv_pos - 6);
  bool ok = Field(stats, "updates", &c.updates) &&
       Field(stats, "reads", &c.reads) &&
       Field(stats, "prop_served", &c.prop_served) &&
       Field(stats, "current_replies", &c.current_replies) &&
       Field(stats, "items_shipped", &c.items_shipped) &&
       Field(stats, "items_adopted", &c.items_adopted) &&
       Field(stats, "conflicts", &c.conflicts);
  ok = ok && Field(sched, "tasks", &c.tasks) &&
       Field(sched, "fast_path", &c.fast_path) &&
       Field(sched, "queue_peak", &c.queue_peak) &&
       Field(sched, "opt_read_hits", &c.opt_read_hits);
  ok = ok && Field(net, "calls", &c.calls) && Field(net, "opened", &c.opened) &&
       Field(net, "reconnects", &c.reconnects) &&
       Field(net, "backoff_skips", &c.backoff_skips) &&
       Field(net, "bytes_sent", &c.bytes_sent) &&
       Field(net, "bytes_received", &c.bytes_received);
  ok = ok && Field(cache, "hits", &c.cache_hits) &&
       Field(cache, "misses", &c.cache_misses);
  if (ok) *out = c;
  return ok;
}

DaemonCounters DaemonCounters::Since(const DaemonCounters& b) const {
  DaemonCounters d = *this;
  d.updates -= b.updates;
  d.reads -= b.reads;
  d.prop_served -= b.prop_served;
  d.current_replies -= b.current_replies;
  d.items_shipped -= b.items_shipped;
  d.items_adopted -= b.items_adopted;
  d.conflicts -= b.conflicts;
  d.tasks -= b.tasks;
  d.fast_path -= b.fast_path;
  d.opt_read_hits -= b.opt_read_hits;
  d.calls -= b.calls;
  d.opened -= b.opened;
  d.reconnects -= b.reconnects;
  d.backoff_skips -= b.backoff_skips;
  d.bytes_sent -= b.bytes_sent;
  d.bytes_received -= b.bytes_received;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  return d;
}

DaemonCounters& DaemonCounters::operator+=(const DaemonCounters& o) {
  updates += o.updates;
  reads += o.reads;
  prop_served += o.prop_served;
  current_replies += o.current_replies;
  items_shipped += o.items_shipped;
  items_adopted += o.items_adopted;
  conflicts += o.conflicts;
  tasks += o.tasks;
  fast_path += o.fast_path;
  queue_peak = std::max(queue_peak, o.queue_peak);
  opt_read_hits += o.opt_read_hits;
  calls += o.calls;
  opened += o.opened;
  reconnects += o.reconnects;
  backoff_skips += o.backoff_skips;
  bytes_sent += o.bytes_sent;
  bytes_received += o.bytes_received;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  return *this;
}

bool ProcStatus::Read(pid_t pid, ProcStatus* out) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  if (!in) return false;
  ProcStatus p;
  std::string line;
  while (std::getline(in, line)) {
    const auto value = [&line] {
      return std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
    };
    if (line.rfind("Threads:", 0) == 0) p.threads = value();
    if (line.rfind("VmSize:", 0) == 0) p.vm_size_kb = value();
    if (line.rfind("VmHWM:", 0) == 0) p.vm_hwm_kb = value();
  }
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  const size_t comm_end = text.rfind(')');
  if (comm_end != std::string::npos) {
    // After "pid (comm)": state is field 3; utime and stime are 14 and 15.
    std::istringstream fields(text.substr(comm_end + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    p.cpu_us = static_cast<double>(utime + stime) * 1e6 /
               static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  *out = p;
  return p.threads > 0;
}

// ---------------------------------------------------------------------------
// Cluster.

namespace {

/// Reserves `n` distinct loopback ports by holding them all bound until
/// every one is picked.
std::vector<uint16_t> PickFreePorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace

void PinSelf(int cpu, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (int c : cpus) CPU_SET(c, &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Cluster::Cluster(const RunConfig& run, const ClusterOptions& opts,
                 int instance)
    : run_(run), opts_(opts) {
  dir_ = run.workdir + "/cluster" + std::to_string(instance);
  RemoveTree(dir_);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create " + dir_;
    return;
  }
  ports_ = PickFreePorts(static_cast<size_t>(kNodes));
  if (ports_.size() != static_cast<size_t>(kNodes)) {
    error_ = "cannot reserve loopback ports";
    return;
  }
  const std::vector<int>& cpus = run.cpus;
  const auto cpu_of = [&cpus](int slot) {
    return cpus.empty() ? -1 : cpus[static_cast<size_t>(slot) % cpus.size()];
  };
  placement_ = "driver:cpu" + std::to_string(cpu_of(0));
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::string> args = {
        run.daemon,
        "--id=" + std::to_string(i),
        "--nodes=" + std::to_string(kNodes),
        "--port=" + std::to_string(ports_[static_cast<size_t>(i)]),
        "--shards=" + std::to_string(kShards),
        "--ae-interval-ms=" + std::to_string(opts.ae_interval_ms)};
    for (int j = 0; j < kNodes; ++j) {
      if (j == i) continue;
      args.push_back("--peer=" + std::to_string(j) + ":" +
                     std::to_string(ports_[static_cast<size_t>(j)]));
    }
    std::string data_dir;
    if (opts.durable) {
      data_dir = dir_ + "/data" + std::to_string(i);
      std::filesystem::create_directories(data_dir, ec);
      args.push_back("--data-dir=" + data_dir);
    }
    data_dirs_.push_back(data_dir);
    const int cpu = cpu_of(1 + i);
    placement_ += " d" + std::to_string(i) + ":cpu" + std::to_string(cpu);
    const std::string log = dir_ + "/daemon" + std::to_string(i) + ".log";

    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      error_ = "fork failed";
      return;
    }
    if (pid == 0) {
      // Child: die with the driver, sit on its own CPU, log to a file.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        ::sched_setaffinity(0, sizeof(set), &set);
      }
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
  }

  epidemic::net::TcpTransport::Options topts;
  topts.backoff_initial_micros = 2 * 1000;
  topts.backoff_max_micros = 20 * 1000;
  for (int s = 0; s < opts.client_slots; ++s) {
    transports_.push_back(std::make_unique<epidemic::net::TcpTransport>(
        static_cast<size_t>(kNodes), topts));
    clients_.emplace_back();
    for (int i = 0; i < kNodes; ++i) {
      transports_.back()->SetPeerPort(static_cast<epidemic::NodeId>(i),
                                      ports_[static_cast<size_t>(i)]);
      clients_.back().emplace_back(transports_.back().get(),
                                   static_cast<epidemic::NodeId>(i));
    }
  }
  // Readiness doubles as connection warm-up: every slot's connection to
  // every daemon is open before the caller times anything.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (int s = 0; s < opts.client_slots; ++s) {
    for (int i = 0; i < kNodes; ++i) {
      while (!client(s, i).Stats().ok()) {
        int status = 0;
        if (::waitpid(pids_[static_cast<size_t>(i)], &status, WNOHANG) ==
            pids_[static_cast<size_t>(i)]) {
          pids_[static_cast<size_t>(i)] = -1;
          error_ = "daemon " + std::to_string(i) + " exited at start-up";
          return;
        }
        if (Clock::now() > deadline) {
          error_ = "daemon " + std::to_string(i) + " never became ready";
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
}

Cluster::~Cluster() {
  Shutdown();
  RemoveTree(dir_);
}

void Cluster::Shutdown() {
  // Close client connections first so the daemons' connection threads
  // see EOF, then stop the daemons.
  clients_.clear();
  transports_.clear();
  for (pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
      if (r == pid || r < 0) break;
      if (Clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid = -1;
  }
}

bool Cluster::Counters(std::vector<DaemonCounters>* out) {
  out->clear();
  for (int i = 0; i < kNodes; ++i) {
    auto summary = client(0, i).Stats();
    DaemonCounters c;
    if (!summary.ok() || !DaemonCounters::Parse(*summary, &c)) return false;
    out->push_back(c);
  }
  return true;
}

double ClusterRssMb(const Cluster& c) {
  double kb = 0;
  for (int i = 0; i < kNodes; ++i) {
    ProcStatus p;
    if (ProcStatus::Read(c.pid(i), &p)) kb += static_cast<double>(p.vm_hwm_kb);
  }
  return kb / 1024.0;
}

}  // namespace perfbench
