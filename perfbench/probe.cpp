/// \file probe.cpp
/// perfbench_probe — the in-process half of the mobsrv end-to-end benchmark.
///
///   perfbench_probe load     --socket=P --config=stream|persist --seed=S ...
///       Drives a running mobsrv_serve over ONE Unix-socket connection from
///       one thread: opens every tenant, runs a closed-loop phase of a fixed
///       step count (a fixed window of steps in flight per hot tenant,
///       after a warm-up), an open-loop phase (a
///       fixed offered rate, each request timed from its scheduled send),
///       drains, ends the session (shutdown, or checkpoint + kill), replays
///       sampled tenants through sim::Session and writes a JSON summary.
///   perfbench_probe ladder   --workload=stream|persist|tournament ...
///       Times each layer's public functions in-process on the same
///       generated inputs, recording one span per call (spans of one pump
///       round share its step id), and writes the per-layer metrics.
///   perfbench_probe script   --config=... --seed=S --rounds=R
///       Prints a serve workload's NDJSON input (the stdin-transport rung).
///   perfbench_probe cells    --corpus=DIR
///       Prints the corpus's tournament cell count and summed cell horizons.
///
/// perfbench/run.py builds and drives this binary; perfbench/README.md
/// documents every metric.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "io/args.hpp"
#include "io/json.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/scenario.hpp"
#include "scenario/tournament.hpp"
#include "serve/frames.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/telemetry.hpp"
#include "serve/tenant_table.hpp"
#include "sim/session.hpp"

namespace {

using namespace mobsrv;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[noreturn]] void fail(const std::string& message) { throw std::runtime_error(message); }

// ---------------------------------------------------------------------------
// The serve workloads: who is open, who streams, and what they send. Every
// request coordinate is a pure function of (seed, tenant, step), so the
// socket run, the ladder and the oracle replay see identical batches.
// ---------------------------------------------------------------------------

constexpr int kDim = 2;
constexpr std::size_t kPerStep = 4;  ///< requests per step
constexpr std::size_t kWindow = 8;   ///< closed-loop steps in flight per hot tenant
constexpr std::size_t kFleet = 4;    ///< k for fleet-native strategies
/// The open-loop sender stops sleeping this long before each scheduled round.
constexpr std::uint64_t kSpinNs = 300'000;
/// Snapshot / metrics cadence of serve-persist, in consumed steps.
constexpr std::size_t kPersistEvery = 16384;

struct ServeConfig {
  std::string name;
  std::size_t tenants = 0;  ///< open tenants
  std::size_t lanes = 0;    ///< tenants streaming at once (the hot set)
  std::size_t epoch = 0;    ///< steps a lane gives one tenant before rotating; 0 = never
  std::vector<std::string> algorithms;  ///< cycled over tenant ids
  bool lean = false;
};

ServeConfig serve_config(const std::string& name) {
  if (name == "stream") return {name, 64, 64, 0, {"Lazy", "MtC", "GreedyCenter", "AssignAndChase"}, true};
  if (name == "persist") return {name, 8192, 64, 32, {"Lazy", "MtC"}, false};
  fail("unknown serve config '" + name + "' (stream|persist)");
}

bool fleet_native(const std::string& algorithm) {
  const std::vector<std::string> native = alg::fleet_native_names();
  return std::find(native.begin(), native.end(), algorithm) != native.end();
}

std::string tenant_name(std::size_t tenant) {
  std::string name = "t";
  name += std::to_string(tenant);
  return name;
}

std::string open_line(const ServeConfig& cfg, std::size_t tenant) {
  const std::string& algorithm = cfg.algorithms[tenant % cfg.algorithms.size()];
  std::string line = R"({"type":"open","v":1,"tenant":")" + tenant_name(tenant) +
                     R"(","algorithm":")" + algorithm + R"(","dim":2,"speed":1.5)";
  if (fleet_native(algorithm)) line += ",\"k\":" + std::to_string(kFleet);
  line += "}";
  return line;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void append_number(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// One `req` frame: kPerStep clients, one per quadrant around a drifting
/// hotspot. Coordinates are dyadic, so their shortest decimal form is exact.
void append_req(std::string& out, std::uint64_t seed, std::size_t tenant, std::size_t t) {
  out += R"({"type":"req","tenant":"t)";
  out += std::to_string(tenant);
  out += R"(","batch":[)";
  const double cx = static_cast<double>((tenant * 37 + t) % 512) / 8.0 - 32.0;
  const double cy = static_cast<double>((tenant * 91 + 3 * t) % 512) / 8.0 - 32.0;
  const std::uint64_t base = splitmix(seed ^ splitmix(tenant * 0x100000001b3ULL + t));
  for (std::size_t j = 0; j < kPerStep; ++j) {
    const std::uint64_t h = splitmix(base + j);
    if (j != 0) out += ',';
    out += '[';
    const double sx = (j & 1) ? 1.0 : -1.0;
    const double sy = (j & 2) ? 1.0 : -1.0;
    append_number(out, cx + sx * (1.0 + static_cast<double>(h & 255) / 128.0));
    out += ',';
    append_number(out, cy + sy * (1.0 + static_cast<double>((h >> 8) & 255) / 128.0));
    out += ']';
  }
  out += "]}";
}

std::string req_line(std::uint64_t seed, std::size_t tenant, std::size_t t) {
  std::string line;
  append_req(line, seed, tenant, t);
  return line;
}

/// The hot-set rotation: lane j streams tenants j, j + lanes, j + 2·lanes, …
/// (mod tenants), `epoch` steps each. Tenant ids are congruent to their lane
/// modulo `lanes`, so an outcome names its lane.
class Lanes {
 public:
  explicit Lanes(const ServeConfig& cfg) : cfg_(cfg), round_(cfg.lanes, 0), sent_(cfg.lanes, 0) {}

  /// The tenant lane \p lane sends its next step for.
  std::size_t next(std::size_t lane) {
    if (cfg_.epoch != 0 && sent_[lane] == cfg_.epoch) {
      ++round_[lane];
      sent_[lane] = 0;
    }
    ++sent_[lane];
    return (lane + cfg_.lanes * round_[lane]) % cfg_.tenants;
  }

 private:
  const ServeConfig& cfg_;
  std::vector<std::size_t> round_;
  std::vector<std::size_t> sent_;
};

/// The tenants the oracle replays: one hot tenant per algorithm, chosen by
/// the seed among the first tenants of each lane.
std::vector<std::size_t> sample_tenants(const ServeConfig& cfg, std::uint64_t seed) {
  std::vector<std::size_t> samples;
  const std::size_t algorithms = cfg.algorithms.size();
  for (std::size_t a = 0; a < algorithms; ++a) {
    const std::size_t pick = splitmix(seed * 31 + a) % (cfg.lanes / algorithms);
    samples.push_back(pick * algorithms + a);
  }
  return samples;
}

/// Replays the first \p steps accepted steps of \p tenant in-process through
/// sim::Session, built from the same open frame the server admitted, and
/// returns the total cost. Steps in \p bounced were answered `busy`, never
/// accepted, so the replay skips them as the server did.
double replay_total(const ServeConfig& cfg, std::uint64_t seed, std::size_t tenant,
                    std::size_t steps, const std::vector<std::size_t>& bounced) {
  const serve::TenantSpec spec = serve::parse_client_frame(open_line(cfg, tenant)).open;
  sim::FleetAlgorithmPtr algorithm = alg::make_fleet_algorithm(spec.algorithm, spec.seed);
  sim::RunOptions options;
  options.speed_factor = spec.speed_factor;
  options.policy = spec.policy;
  options.record_positions = false;
  sim::Session session(spec.starts, spec.params, *algorithm, options);
  for (std::size_t t = 0, done = 0; done < steps; ++t) {
    if (std::find(bounced.begin(), bounced.end(), t) != bounced.end()) continue;
    session.push(serve::parse_client_frame(req_line(seed, tenant, t)).batch);
    ++done;
  }
  return session.total_cost();
}

struct ProcSample {
  std::uint64_t syscr = 0;
  std::uint64_t syscw = 0;
};

/// Read and write syscalls so far of process \p pid, from /proc/<pid>/io.
ProcSample read_proc(long pid) {
  ProcSample sample;
  std::ifstream io("/proc/" + std::to_string(pid) + "/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscr:") sample.syscr = value;
    if (key == "syscw:") sample.syscw = value;
  }
  return sample;
}

std::uint64_t percentile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank), values.end());
  return values[rank];
}

std::size_t parse_uint_after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) fail("frame lacks " + std::string(key) + ": " + std::string(line));
  std::size_t value = 0;
  const char* begin = line.data() + at + key.size();
  const auto result = std::from_chars(begin, line.data() + line.size(), value);
  if (result.ec != std::errc()) fail("bad number after " + std::string(key));
  return value;
}

std::string_view value_after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + key.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

// ---------------------------------------------------------------------------
// load: one connection, one thread, non-blocking socket + ppoll.
// ---------------------------------------------------------------------------

class Loader {
 public:
  explicit Loader(const io::Args& args)
      : cfg_(serve_config(args.get_string("config", "stream"))),
        seed_(args.get_uint64("seed", 1)),
        closed_windows_(std::max<std::uint64_t>(1, args.get_uint64("closed-windows", 20))),
        closed_steps_(args.get_uint64("closed-steps", 0) / closed_windows_ * closed_windows_),
        warmup_steps_(args.get_uint64("warmup-steps", 0)),
        open_s_(args.get_double("open", 0.0)),
        rate_(args.get_double("rate", 0.0)),
        end_(args.get_string("end", "shutdown")),
        metrics_out_(args.get_string("metrics-out", "")),
        server_pid_(static_cast<long>(args.get_uint64("server-pid", 0))),
        lanes_(cfg_),
        outstanding_(cfg_.lanes, 0),
        next_send_(cfg_.tenants, 0),
        next_recv_(cfg_.tenants, 0),
        fifo_(cfg_.tenants),
        samples_(sample_tenants(cfg_, seed_)),
        sample_total_(cfg_.tenants) {
    // The open loop sleeps in ppoll until the next scheduled send; the
    // default 50 us timer slack would make the generator itself late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    latencies_.resize(std::max<std::uint64_t>(1, args.get_uint64("open-windows", 100)));
    connect_socket(args.get_string("socket", ""));
  }

  ~Loader() {
    if (fd_ >= 0) ::close(fd_);
  }
  Loader(const Loader&) = delete;
  Loader& operator=(const Loader&) = delete;

  io::Json run() {
    for (std::size_t i = 0; i < cfg_.tenants; ++i) send_line(open_line(cfg_, i));
    wait_until([&] { return opened_ == cfg_.tenants; }, 60.0, "opened frames");
    io::Json closed = io::Json::object();
    if (closed_steps_ > 0) closed = closed_loop();
    io::Json open = io::Json::object();
    if (open_s_ > 0.0) open = open_loop();
    finish();
    io::Json doc = io::Json::object();
    doc.set("opened_all_ns", opened_all_ns_);
    doc.set("closed", std::move(closed));
    doc.set("open", std::move(open));
    doc.set("reqs", reqs_);
    doc.set("outcomes", outcomes_);
    doc.set("busys", busys_);
    doc.set("errors", errors_);
    doc.set("gaps", gaps_);
    doc.set("bye_steps", bye_steps_);
    doc.set("checkpointed_steps", ckpt_steps_);
    doc.set("checkpoints", ckpt_frames_);
    doc.set("oracle", oracle());
    io::Json messages = io::Json::array();
    for (const std::string& message : messages_) messages.push_back(message);
    doc.set("messages", std::move(messages));
    return doc;
  }

 private:
  enum class Phase { kSetup, kClosed, kDrain, kOpen, kEnd };

  void connect_socket(const std::string& path) {
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) fail("bad --socket path");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd_ < 0) fail(std::string("socket: ") + std::strerror(errno));
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (now_ns() > deadline) fail("cannot connect to " + path);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  void send_line(std::string_view line) {
    out_.append(line);
    out_ += '\n';
    ++lines_sent_;
  }

  void send_req(std::size_t tenant) {
    if (is_sample(tenant)) sample_lines_[tenant].push_back({lines_sent_ + 1, next_send_[tenant]});
    append_req(out_, seed_, tenant, next_send_[tenant]++);
    out_ += '\n';
    ++lines_sent_;
    ++reqs_;
  }

  /// Writes what the socket takes, waits up to \p timeout_ns for input or
  /// writability, and handles every complete line that arrived.
  void io(std::uint64_t timeout_ns) {
    flush();
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_off_ < out_.size() ? POLLOUT : 0)), 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1000000000ULL),
                      static_cast<long>(timeout_ns % 1000000000ULL)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) fail(std::string("ppoll: ") + std::strerror(errno));
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) receive();
    flush();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (eof_) return;
      fail(std::string("send: ") + std::strerror(errno));
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
  }

  void receive() {
    char buf[1 << 16];
    for (int chunk = 0; chunk < 1; ++chunk) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) {
        eof_ = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof_ = true;
        break;
      }
      in_.append(buf, static_cast<std::size_t>(n));
      const std::uint64_t now = now_ns();
      std::size_t pos = 0;
      for (std::size_t nl; (nl = in_.find('\n', pos)) != std::string::npos; pos = nl + 1)
        on_line(std::string_view(in_.data() + pos, nl - pos), now);
      in_.erase(0, pos);
    }
  }

  template <class Done>
  void wait_until(Done done, double seconds, const char* what) {
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    while (!done()) {
      if (eof_) fail(std::string("server closed the connection while waiting for ") + what);
      if (now_ns() > deadline) fail(std::string("timed out waiting for ") + what);
      io(5'000'000);
    }
  }

  void note(const std::string& message) {
    if (messages_.size() < 8) messages_.push_back(message);
  }

  void on_line(std::string_view line, std::uint64_t now) {
    constexpr std::string_view kPrefix = R"({"type":")";
    if (line.substr(0, kPrefix.size()) != kPrefix) {
      note("unparseable frame: " + std::string(line.substr(0, 120)));
      ++errors_;
      return;
    }
    const std::string_view type = line.substr(kPrefix.size(), line.find('"', kPrefix.size()) - kPrefix.size());
    if (type == "outcome") {
      on_outcome(line, now);
    } else if (type == "opened") {
      if (++opened_ == cfg_.tenants) opened_all_ns_ = now;
    } else if (type == "busy") {
      ++busys_;
      const std::size_t tenant = parse_uint_after(line, R"("tenant":"t)");
      const std::size_t at = parse_uint_after(line, R"("line":)");
      auto& queue = fifo_[tenant];
      const auto it = std::find_if(queue.begin(), queue.end(),
                                   [at](const Sent& sent) { return sent.line == at; });
      if (it != queue.end()) queue.erase(it);
      if (outstanding_[tenant % cfg_.lanes] > 0) --outstanding_[tenant % cfg_.lanes];
      if (is_sample(tenant))
        for (const Sent& sent : sample_lines_[tenant])
          if (sent.line == at) bounced_[tenant].push_back(sent.scheduled);
      if (phase_ == Phase::kOpen) ++open_done_;
      note("busy: " + std::string(line));
    } else if (type == "error") {
      ++errors_;
      note(std::string(line));
    } else if (type == "checkpointed") {
      ++ckpt_frames_;
      ckpt_steps_ = parse_uint_after(line, R"("steps":)");
    } else if (type == "metrics") {
      metrics_line_ = std::string(line);
    } else if (type == "bye") {
      bye_steps_ = parse_uint_after(line, R"("steps":)");
    } else if (type == "closed") {
      ++errors_;
      note("tenant closed: " + std::string(line.substr(0, 200)));
    }
  }

  void on_outcome(std::string_view line, std::uint64_t now) {
    const std::size_t tenant = parse_uint_after(line, R"("tenant":"t)");
    const std::size_t t = parse_uint_after(line, R"(,"t":)");
    if (tenant >= cfg_.tenants) fail("outcome for unknown tenant");
    if (t != next_recv_[tenant]) {
      ++gaps_;
      note("gap: tenant t" + std::to_string(tenant) + " expected t=" +
           std::to_string(next_recv_[tenant]) + " got t=" + std::to_string(t));
    }
    next_recv_[tenant] = t + 1;
    ++outcomes_;
    if (is_sample(tenant)) sample_total_[tenant] = std::string(value_after(line, R"("total":)"));
    const std::size_t lane = tenant % cfg_.lanes;
    if (outstanding_[lane] > 0) --outstanding_[lane];
    if (phase_ == Phase::kClosed) {
      if (counting_) {
        ++closed_outcomes_;
        if (closed_outcomes_ % (closed_steps_ / closed_windows_) == 0) {
          const std::size_t w = closed_outcomes_ / (closed_steps_ / closed_windows_) - 1;
          if (w < closed_windows_) window_end_[w] = now;
        }
        if (closed_outcomes_ == closed_steps_) {
          phase_ = Phase::kDrain;  // stop refilling; what is in flight drains
          return;
        }
      }
      refill(lane);
    } else if (phase_ == Phase::kOpen) {
      auto& queue = fifo_[tenant];
      if (queue.empty()) fail("open-loop outcome with no scheduled request");
      const std::uint64_t scheduled = queue.front().scheduled;
      latencies_[(scheduled - open_start_) * latencies_.size() / (open_last_ - open_start_ + 1)].push_back(
          now - scheduled);
      queue.pop_front();
      ++open_done_;
    }
  }

  void refill(std::size_t lane) {
    while (outstanding_[lane] < kWindow) {
      send_req(lanes_.next(lane));
      ++outstanding_[lane];
    }
  }

  io::Json closed_loop() {
    // Warm-up: the loop runs, nothing is counted until warmup_steps_ outcomes.
    phase_ = Phase::kClosed;
    const std::uint64_t deadline = now_ns() + 150'000'000'000ULL;
    for (std::size_t lane = 0; lane < cfg_.lanes; ++lane) refill(lane);
    const std::uint64_t warm_target = outcomes_ + warmup_steps_;
    while (outcomes_ < warm_target) {
      if (eof_) fail("server closed the connection during the warm-up");
      if (now_ns() > deadline) fail("closed loop timed out");
      io(5'000'000);
    }
    const ProcSample before = read_proc(server_pid_);
    closed_start_ = now_ns();
    counting_ = true;
    while (closed_outcomes_ < closed_steps_) {
      if (eof_) fail("server closed the connection during the closed loop");
      if (now_ns() > deadline) fail("closed loop timed out");
      io(5'000'000);
    }
    const ProcSample after = read_proc(server_pid_);
    const std::uint64_t steps = closed_outcomes_;
    wait_until(
        [&] { return std::all_of(outstanding_.begin(), outstanding_.end(), [](std::size_t n) { return n == 0; }); },
        30.0, "the closed loop to drain");
    io::Json doc = io::Json::object();
    doc.set("steps", steps);
    doc.set("seconds", static_cast<double>(window_end_.back() - closed_start_) / 1e9);
    io::Json windows = io::Json::array();
    for (std::size_t w = 0; w < closed_windows_; ++w) {
      const std::uint64_t begin = w == 0 ? closed_start_ : window_end_[w - 1];
      windows.push_back(static_cast<double>(closed_steps_ / closed_windows_) * 1e9 /
                        static_cast<double>(window_end_[w] - begin));
    }
    doc.set("window_steps_per_s", std::move(windows));
    doc.set("server_syscr", after.syscr - before.syscr);
    doc.set("server_syscw", after.syscw - before.syscw);
    return doc;
  }

  io::Json open_loop() {
    const std::uint64_t total = static_cast<std::uint64_t>(rate_ * open_s_);
    if (total == 0) fail("--open needs --rate > 0");
    // Requests arrive in rounds, as in the paper's model: every hot lane
    // sends one step at each round's scheduled time.
    const double round_ns = 1e9 * static_cast<double>(cfg_.lanes) / rate_;
    std::vector<std::vector<std::uint64_t>> lags(latencies_.size());
    phase_ = Phase::kOpen;
    const std::uint64_t start = now_ns() + 1'000'000;
    const auto scheduled = [&](std::uint64_t i) {
      return start + static_cast<std::uint64_t>(static_cast<double>(i / cfg_.lanes) * round_ns);
    };
    const std::uint64_t last = scheduled(total - 1);
    open_start_ = start;
    open_last_ = last;
    std::uint64_t sent = 0;
    for (;;) {
      if (eof_) fail("server closed the connection during the open loop");
      const std::uint64_t now = now_ns();
      while (sent < total && scheduled(sent) <= now) {
        const std::size_t tenant = lanes_.next(sent % cfg_.lanes);
        fifo_[tenant].push_back({lines_sent_ + 1, scheduled(sent)});
        lags[(scheduled(sent) - start) * lags.size() / (last - start + 1)].push_back(now - scheduled(sent));
        send_req(tenant);
        ++sent;
      }
      if (sent == total && open_done_ == total) break;
      if (sent == total && now > last + 10'000'000'000ULL) break;  // drain timeout
      // Sleep until shortly before the next send, then poll without
      // sleeping: a wake-up from ppoll can itself be late by more than the
      // gap between rounds.
      const std::uint64_t until = sent < total ? std::max<std::uint64_t>(scheduled(sent), now) - now : 5'000'000;
      io(until > kSpinNs ? until - kSpinNs : 0);
    }
    io::Json p50 = io::Json::array();
    io::Json p99 = io::Json::array();
    for (std::vector<std::uint64_t>& window : latencies_) {
      p50.push_back(percentile(window, 0.50));
      p99.push_back(percentile(window, 0.99));
    }
    std::vector<std::uint64_t> all_lags;
    io::Json lag_p99 = io::Json::array();
    for (std::vector<std::uint64_t>& window : lags) {
      all_lags.insert(all_lags.end(), window.begin(), window.end());
      lag_p99.push_back(percentile(window, 0.99));
    }
    io::Json doc = io::Json::object();
    doc.set("window_lag_p99_ns", std::move(lag_p99));
    doc.set("sent", sent);
    doc.set("missing", sent - open_done_);
    doc.set("window_p50_ns", std::move(p50));
    doc.set("window_p99_ns", std::move(p99));
    doc.set("lag_p99_ns", percentile(all_lags, 0.99));
    for (auto& queue : fifo_) queue.clear();
    return doc;
  }

  void finish() {
    phase_ = Phase::kEnd;
    if (!metrics_out_.empty()) {
      send_line(R"({"type":"metrics"})");
      wait_until([&] { return !metrics_line_.empty(); }, 60.0, "the metrics frame");
      std::ofstream(metrics_out_, std::ios::binary) << metrics_line_ << '\n';
    }
    if (end_ == "shutdown") {
      send_line(R"({"type":"shutdown"})");
      wait_until([&] { return eof_; }, 60.0, "bye and EOF");
      return;
    }
    if (end_ == "checkpoint-kill") {
      const std::size_t frames = ckpt_frames_;
      send_line(R"({"type":"checkpoint"})");
      wait_until([&] { return ckpt_frames_ > frames && ckpt_steps_ == outcomes_; }, 60.0,
                 "a checkpointed frame covering every outcome");
    } else if (end_ != "kill") {
      fail("unknown --end '" + end_ + "'");
    }
    send_line(R"({"type":"kill"})");
    wait_until([&] { return out_.empty(); }, 10.0, "the kill frame to leave");
    wait_until([&] { return eof_; }, 30.0, "the killed server to close");
  }

  io::Json oracle() {
    io::Json doc = io::Json::object();
    io::Json checked = io::Json::array();
    std::size_t mismatches = 0;
    for (const std::size_t tenant : samples_) {
      const std::size_t steps = next_recv_[tenant];
      if (steps == 0) continue;
      const double replayed = replay_total(cfg_, seed_, tenant, steps, bounced_[tenant]);
      const std::string& seen = sample_total_[tenant];
      double served = 0.0;
      std::from_chars(seen.data(), seen.data() + seen.size(), served);
      const bool same = std::memcmp(&served, &replayed, sizeof(double)) == 0;
      if (!same) {
        ++mismatches;
        std::string message = "oracle: tenant " + tenant_name(tenant) + " served total " + seen +
                              " but replay gives ";
        append_number(message, replayed);
        note(message);
      }
      io::Json row = io::Json::object();
      row.set("tenant", tenant_name(tenant));
      row.set("steps", steps);
      row.set("total", seen);
      checked.push_back(std::move(row));
    }
    doc.set("checked", std::move(checked));
    doc.set("mismatches", mismatches);
    return doc;
  }

  /// A sent `req`: its input line, and its scheduled time (open-loop FIFO)
  /// or its step index (sampled tenants' send log).
  struct Sent {
    std::uint64_t line = 0;
    std::uint64_t scheduled = 0;
  };

  [[nodiscard]] bool is_sample(std::size_t tenant) const {
    return std::find(samples_.begin(), samples_.end(), tenant) != samples_.end();
  }

  ServeConfig cfg_;
  std::uint64_t seed_;
  /// The closed loop's measured outcomes, cut into closed_windows_ equal
  /// windows (closed_steps_ is a multiple of it); run.py takes a quartile of
  /// the windows' rates.
  std::uint64_t closed_windows_;
  std::uint64_t closed_steps_;
  std::uint64_t warmup_steps_;
  double open_s_;
  double rate_;
  std::string end_;
  std::string metrics_out_;
  long server_pid_;
  Lanes lanes_;
  std::vector<std::size_t> outstanding_;  ///< per lane
  std::vector<std::size_t> next_send_;    ///< per tenant
  std::vector<std::size_t> next_recv_;    ///< per tenant
  std::vector<std::deque<Sent>> fifo_;    ///< open-loop schedule, per tenant
  std::vector<std::size_t> samples_;
  std::vector<std::string> sample_total_;
  std::vector<std::vector<Sent>> sample_lines_ = std::vector<std::vector<Sent>>(cfg_.tenants);
  std::vector<std::vector<std::size_t>> bounced_ = std::vector<std::vector<std::size_t>>(cfg_.tenants);
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  bool eof_ = false;
  Phase phase_ = Phase::kSetup;
  std::uint64_t lines_sent_ = 0;
  std::uint64_t reqs_ = 0;
  std::uint64_t outcomes_ = 0;
  std::uint64_t busys_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t gaps_ = 0;
  std::size_t opened_ = 0;
  std::uint64_t opened_all_ns_ = 0;
  bool counting_ = false;
  std::uint64_t closed_start_ = 0;
  std::uint64_t closed_outcomes_ = 0;
  std::vector<std::uint64_t> window_end_ = std::vector<std::uint64_t>(closed_windows_, 0);
  std::uint64_t open_start_ = 0;
  std::uint64_t open_last_ = 0;
  std::uint64_t open_done_ = 0;
  std::vector<std::vector<std::uint64_t>> latencies_;  ///< per window of the schedule
  std::size_t ckpt_frames_ = 0;
  std::uint64_t ckpt_steps_ = 0;
  std::uint64_t bye_steps_ = 0;
  std::string metrics_line_;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Spans: one per call into a layer's public function. Aggregates cover every
// call; the span list keeps the first kSpanCap for the span file.
// ---------------------------------------------------------------------------

enum Layer : int {
  kRound,
  kParse,
  kFind,
  kPush,
  kMuxRound,
  kEncode,
  kSessionPush,
  kAdmit,
  kSnapshotBase,
  kSnapshotDelta,
  kSnapshotRead,
  kMetricsWrite,
  kServiceRun,
  kScenarioLoad,
  kMaterialize,
  kDrain,
  kTournament,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "ladder.round",
    "serve.parse_client_frame",
    "serve.TenantTable.find",
    "sim.Instance.push_step",
    "core.SessionMultiplexer.step_capturing",
    "serve.outcome_frame",
    "sim.Session.push",
    "serve.TenantTable.admit",
    "serve.write_snapshot_base",
    "serve.append_snapshot_delta",
    "serve.read_snapshot",
    "serve.ServeTelemetry.snapshot_ndjson",
    "serve.Service.run",
    "scenario.load",
    "scenario.materialize",
    "core.SessionMultiplexer.drain",
    "scenario.run_tournament",
};

constexpr std::size_t kSpanCap = 200000;

class Tracer {
 public:
  struct Span {
    std::uint64_t id;
    std::uint64_t step;
    std::uint64_t parent;
    int layer;
    std::uint64_t start;
    std::uint64_t end;
  };

  /// RAII span: opened by Tracer::open, recorded when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int layer, std::uint64_t step, std::uint64_t parent)
        : tracer_(tracer), layer_(layer), step_(step), parent_(parent) {
      if (tracer_ != nullptr) {
        id_ = ++tracer_->next_id_;
        start_ = now_ns();
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->record({id_, step_, parent_, layer_, start_, now_ns()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    int layer_;
    std::uint64_t step_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    std::uint64_t start_ = 0;
  };

  /// A disabled tracer reads no clock and records nothing.
  Scope open(int layer, std::uint64_t step, std::uint64_t parent = 0) {
    return Scope(enabled_ ? this : nullptr, layer, step, parent);
  }

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  [[nodiscard]] std::uint64_t total_ns(int layer) const { return total_[layer]; }
  [[nodiscard]] double mean_ns(int layer) const {
    return count_[layer] ? static_cast<double>(total_[layer]) / static_cast<double>(count_[layer]) : 0.0;
  }

  void reset_totals(int layer) {
    count_[layer] = 0;
    total_[layer] = 0;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    std::string line;
    for (const Span& span : spans_) {
      line.clear();
      line += R"({"id":)" + std::to_string(span.id) + R"(,"step":)" + std::to_string(span.step) +
              R"(,"parent":)" + std::to_string(span.parent) + R"(,"name":")" +
              kLayerNames[span.layer] + R"(","start_ns":)" + std::to_string(span.start - epoch_) +
              R"(,"dur_ns":)" + std::to_string(span.end - span.start) + "}\n";
      out << line;
    }
  }

 private:
  void record(const Span& span) {
    ++count_[span.layer];
    total_[span.layer] += span.end - span.start;
    if (spans_.size() < kSpanCap) spans_.push_back(span);
  }

  bool enabled_ = true;
  std::uint64_t next_id_ = 0;
  std::uint64_t epoch_ = now_ns();
  std::array<std::uint64_t, kLayerCount> count_{};
  std::array<std::uint64_t, kLayerCount> total_{};
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// ladder: the serve rungs.
// ---------------------------------------------------------------------------

/// A recorded serve input: the open frames, then pump rounds of one `req`
/// per hot lane (the closed loop's per-tenant content and rotation).
struct ServeInput {
  ServeConfig cfg;
  std::uint64_t seed = 0;
  std::vector<std::string> opens;
  std::vector<std::vector<std::string>> rounds;
  std::size_t steps = 0;
};

ServeInput make_serve_input(const ServeConfig& cfg, std::uint64_t seed, std::size_t rounds) {
  ServeInput input{cfg, seed, {}, {}, 0};
  for (std::size_t i = 0; i < cfg.tenants; ++i) input.opens.push_back(open_line(cfg, i));
  Lanes lanes(input.cfg);
  std::vector<std::size_t> next(cfg.tenants, 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::string> lines;
    for (std::size_t lane = 0; lane < cfg.lanes; ++lane) {
      const std::size_t tenant = lanes.next(lane);
      lines.push_back(req_line(seed, tenant, next[tenant]++));
    }
    input.steps += lines.size();
    input.rounds.push_back(std::move(lines));
  }
  return input;
}

/// The service's own pipeline, call by call: parse each `req`, find its
/// tenant, append the batch, one multiplexer round, then encode each
/// outcome. Returns the wall time of each round.
std::vector<std::uint64_t> run_pipeline(const ServeInput& input, unsigned threads, Tracer& tracer,
                                        std::uint64_t* bytes_out) {
  par::ThreadPool pool(threads);
  core::SessionMultiplexer mux(pool);
  mux.set_timing_enabled(false);
  serve::TenantTable table;
  for (const std::string& line : input.opens) table.admit(serve::parse_client_frame(line).open, mux);
  std::vector<double> prev_move(input.cfg.tenants, 0.0);
  std::vector<double> prev_service(input.cfg.tenants, 0.0);
  std::vector<core::SessionMultiplexer::SlotError> errors;
  std::vector<serve::Tenant*> touched;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> round_ns;
  round_ns.reserve(input.rounds.size());
  for (std::size_t r = 0; r < input.rounds.size(); ++r) {
    const std::uint64_t start = now_ns();
    const Tracer::Scope round = tracer.open(kRound, r);
    touched.clear();
    for (const std::string& line : input.rounds[r]) {
      serve::ClientFrame frame;
      {
        const Tracer::Scope span = tracer.open(kParse, r, round.id());
        frame = serve::parse_client_frame(line);
      }
      serve::Tenant* tenant = nullptr;
      {
        const Tracer::Scope span = tracer.open(kFind, r, round.id());
        tenant = table.find(frame.tenant);
      }
      {
        const Tracer::Scope span = tracer.open(kPush, r, round.id());
        tenant->workload->push_step(frame.batch);
        mux.poke(tenant->slot);
      }
      touched.push_back(tenant);
    }
    {
      const Tracer::Scope span = tracer.open(kMuxRound, r, round.id());
      errors.clear();
      mux.step_capturing(1, errors);
    }
    if (!errors.empty()) fail("ladder: session error: " + errors.front().message);
    for (serve::Tenant* tenant : touched) {
      const core::SessionStats stats = mux.stats(tenant->slot);
      std::string frame;
      {
        const Tracer::Scope span = tracer.open(kEncode, r, round.id());
        frame = serve::outcome_frame(tenant->spec.tenant, stats.steps - 1,
                                     stats.move_cost - prev_move[tenant->slot],
                                     stats.service_cost - prev_service[tenant->slot], stats,
                                     input.cfg.lean);
      }
      prev_move[tenant->slot] = stats.move_cost;
      prev_service[tenant->slot] = stats.service_cost;
      bytes += frame.size() + 1;
    }
    round_ns.push_back(now_ns() - start);
  }
  if (bytes_out != nullptr) *bytes_out = bytes;
  return round_ns;
}

struct MuxPass {
  std::uint64_t step_ns = 0;  ///< summed wall time of the step_capturing calls
  std::uint64_t saves = 0;
  std::uint64_t save_bytes = 0;
};

/// The multiplexer alone on pre-parsed batches: append, poke, one round per
/// recorded round; only step_capturing is timed. With \p snapshot_path set
/// it also saves like serve-persist (base first, then deltas of the dirty
/// slots every kPersistEvery steps) and, at the end, times the telemetry
/// file render and the snapshot read.
MuxPass run_mux_pass(const ServeInput& input,
                     const std::vector<std::vector<std::pair<std::size_t, sim::RequestBatch>>>& batches,
                     unsigned threads, Tracer& tracer, const std::string& snapshot_path,
                     io::Json* extra) {
  par::ThreadPool pool(threads);
  core::SessionMultiplexer mux(pool);
  mux.set_timing_enabled(false);
  serve::TenantTable table;
  std::vector<serve::TenantSpec> specs;
  for (const std::string& line : input.opens) {
    specs.push_back(serve::parse_client_frame(line).open);
    table.admit(specs.back(), mux);
  }
  MuxPass pass;
  std::vector<core::SessionMultiplexer::SlotError> errors;
  serve::SnapshotWriteOptions write_options;
  write_options.durable = false;
  const std::size_t every = std::max<std::size_t>(1, kPersistEvery / input.cfg.lanes);
  for (std::size_t r = 0; r < batches.size(); ++r) {
    for (const auto& [slot, batch] : batches[r]) {
      table.find_slot(slot)->workload->push_step(batch);
      mux.poke(slot);
    }
    const std::uint64_t t0 = now_ns();
    errors.clear();
    mux.step_capturing(1, errors);
    pass.step_ns += now_ns() - t0;
    if (!errors.empty()) fail("ladder: session error: " + errors.front().message);
    if (snapshot_path.empty() || (r + 1) % every != 0) continue;
    serve::SnapshotSegment segment;
    if (pass.saves == 0) {
      for (std::size_t slot = 0; slot < specs.size(); ++slot) {
        segment.opened.push_back(specs[slot]);
        segment.opened_slots.push_back(slot);
        segment.record_slots.push_back(slot);
        segment.records.push_back(mux.checkpoint_slot(slot));
      }
      const Tracer::Scope span = tracer.open(kSnapshotBase, r);
      pass.save_bytes += serve::write_snapshot_base(snapshot_path, segment, write_options);
    } else {
      for (const std::size_t slot : mux.dirty_slots()) {
        segment.record_slots.push_back(slot);
        segment.records.push_back(mux.checkpoint_slot(slot));
      }
      const Tracer::Scope span = tracer.open(kSnapshotDelta, r);
      pass.save_bytes += serve::append_snapshot_delta(snapshot_path, segment, write_options);
    }
    mux.mark_saved();
    ++pass.saves;
  }
  if (extra != nullptr) {
    for (int i = 0; i < 3 && pass.saves > 0; ++i) {
      const Tracer::Scope span = tracer.open(kSnapshotRead, batches.size());
      const serve::ServiceSnapshot snapshot = serve::read_snapshot(snapshot_path);
      if (snapshot.tenants.size() != specs.size()) fail("ladder: snapshot lost tenants");
    }
    serve::ServeTelemetry telemetry(false);
    for (std::size_t slot = 0; slot < specs.size(); ++slot) telemetry.tenant_row(slot, specs[slot].tenant);
    std::size_t bytes = 0;
    for (int i = 0; i < 3; ++i) {
      const Tracer::Scope span = tracer.open(kMetricsWrite, batches.size());
      bytes = telemetry.snapshot_ndjson(mux, mux.snapshot()).size();
    }
    extra->set("telemetry.metrics_bytes", static_cast<double>(bytes));
  }
  return pass;
}

/// Serves a list of chunks; in_avail() drops to 0 at every chunk end, the
/// way a socket runs dry between client bursts, so Service::run pumps there.
class ChunkedInBuf : public std::streambuf {
 public:
  explicit ChunkedInBuf(std::vector<std::string> chunks) : chunks_(std::move(chunks)) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    while (next_ < chunks_.size()) {
      std::string& chunk = chunks_[next_++];
      if (chunk.empty()) continue;
      setg(chunk.data(), chunk.data(), chunk.data() + chunk.size());
      return traits_type::to_int_type(*gptr());
    }
    return traits_type::eof();
  }

 private:
  std::vector<std::string> chunks_;
  std::size_t next_ = 0;
};

/// Counts the bytes written to it and keeps nothing, except that it keeps
/// the last line starting with \p keep_prefix.
class SinkBuf : public std::streambuf {
 public:
  explicit SinkBuf(std::string keep_prefix) : keep_prefix_(std::move(keep_prefix)) {}
  [[nodiscard]] const std::string& kept() const noexcept { return kept_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) put(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c == '\n') {
      if (!keep_prefix_.empty() && line_.compare(0, keep_prefix_.size(), keep_prefix_) == 0)
        kept_ = line_;
      line_.clear();
    } else if (!keep_prefix_.empty() && (line_.size() < keep_prefix_.size() ||
                                         line_.compare(0, keep_prefix_.size(), keep_prefix_) == 0)) {
      line_ += c;
    }
  }
  std::string keep_prefix_;
  std::string line_;
  std::string kept_;
};

serve::ServiceOptions service_options(const ServeConfig& cfg, const std::string& run_dir, bool lean) {
  serve::ServiceOptions options;
  options.threads = 2;
  options.max_inflight = 512;
  options.lean = lean;
  options.durable = false;
  if (cfg.name == "persist") {
    options.snapshot_path = run_dir + "/ladder-service.snap";
    options.checkpoint_every = kPersistEvery;
    options.metrics_path = run_dir + "/ladder-service.metrics";
    options.metrics_every = kPersistEvery;
  }
  return options;
}

struct ServiceRun {
  std::uint64_t wall_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t ingest_p99_ns = 0;
};

/// In-process Service::run over the recorded input, in chunks of kWindow
/// rounds (a closed-loop burst). The opens go through a first run() so only
/// the request stream is timed. A trailing `metrics` frame supplies the
/// ingest-latency p99.
ServiceRun run_service(const ServeInput& input, const std::string& run_dir, bool lean,
                       Tracer& tracer) {
  serve::Service service(service_options(input.cfg, run_dir, lean));
  {
    std::string opens;
    for (const std::string& line : input.opens) opens += line + '\n';
    ChunkedInBuf buf({std::move(opens)});
    std::istream in(&buf);
    SinkBuf sink("");
    std::ostream out(&sink);
    service.run(in, out);
  }
  std::vector<std::string> chunks;
  for (std::size_t r = 0; r < input.rounds.size(); r += kWindow) {
    std::string chunk;
    for (std::size_t k = r; k < std::min(r + kWindow, input.rounds.size()); ++k)
      for (const std::string& line : input.rounds[k]) chunk += line + '\n';
    chunks.push_back(std::move(chunk));
  }
  chunks.push_back("{\"type\":\"metrics\"}\n");
  ChunkedInBuf buf(std::move(chunks));
  std::istream in(&buf);
  SinkBuf sink(R"({"type":"metrics")");
  std::ostream out(&sink);
  ServiceRun run;
  const std::uint64_t start = now_ns();
  {
    const Tracer::Scope span = tracer.open(kServiceRun, 0);
    service.run(in, out);
  }
  run.wall_ns = now_ns() - start;
  if (service.mux().totals().steps != input.steps) fail("ladder: Service::run lost steps");
  run.rounds = service.mux().step_latency_histogram().count();
  if (!sink.kept().empty()) {
    const io::Json metrics = io::Json::parse(sink.kept());
    for (const io::Json& metric : metrics.at("metrics").as_array())
      if (metric.at("name").as_string() == "serve.ingest_latency_ns")
        run.ingest_p99_ns = static_cast<std::uint64_t>(metric.at("p99").as_double());
  }
  return run;
}

// ---------------------------------------------------------------------------
// ladder: the engine and scenario rungs.
// ---------------------------------------------------------------------------

const std::vector<std::string>& roster() {
  static const std::vector<std::string> names = alg::fleet_algorithm_names();
  return names;
}

struct Corpus {
  std::vector<scenario::Scenario> scenarios;
  std::vector<std::filesystem::path> dirs;
  std::vector<trace::TraceFile> files;
};

/// The players of one scenario, as run_tournament picks them.
std::vector<std::string> players(const scenario::Scenario& sc) {
  if (!sc.fleet || sc.fleet->size <= 1) return roster();
  std::vector<std::string> native;
  for (const std::string& name : roster())
    if (fleet_native(name)) native.push_back(name);
  return native;
}

Corpus load_corpus(const std::vector<std::filesystem::path>& paths, Tracer& tracer) {
  Corpus corpus;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Tracer::Scope span = tracer.open(kScenarioLoad, i);
    corpus.scenarios.push_back(scenario::load(paths[i]));
    corpus.dirs.push_back(paths[i].parent_path());
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Tracer::Scope span = tracer.open(kMaterialize, i);
    corpus.files.push_back(scenario::materialize(corpus.scenarios[i], corpus.dirs[i]));
  }
  return corpus;
}

struct DrainPass {
  std::uint64_t ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t cells = 0;
  std::uint64_t chunks = 0;
};

/// The tournament's engine work alone: every chunk of 8 scenarios' cells
/// added to one multiplexer and drained, as run_tournament does.
DrainPass run_drains(const Corpus& corpus, unsigned threads, Tracer& tracer) {
  par::ThreadPool pool(threads);
  DrainPass pass;
  constexpr std::size_t kChunk = 8;
  for (std::size_t begin = 0; begin < corpus.files.size(); begin += kChunk) {
    core::SessionMultiplexer mux(pool);
    for (std::size_t s = begin; s < std::min(begin + kChunk, corpus.files.size()); ++s) {
      const scenario::Scenario& sc = corpus.scenarios[s];
      const auto workload = std::make_shared<const sim::Instance>(corpus.files[s].instance);
      const std::size_t k = sc.fleet ? sc.fleet->size : 1;
      std::vector<sim::Point> starts;
      if (k > 1) starts = ext::spread_starts(*workload, static_cast<int>(k), sc.fleet->spread);
      for (const std::string& algorithm : players(sc)) {
        core::SessionSpec spec;
        spec.workload = workload;
        spec.algorithm = algorithm;
        spec.speed_factor = sc.speed_factor;
        spec.fleet_size = k;
        spec.starts = starts;
        mux.add(std::move(spec));
        pass.steps += workload->horizon();
        ++pass.cells;
      }
    }
    const std::uint64_t t0 = now_ns();
    {
      const Tracer::Scope span = tracer.open(kDrain, pass.chunks);
      mux.drain();
    }
    pass.ns += now_ns() - t0;
    ++pass.chunks;
  }
  return pass;
}

constexpr std::size_t kSessionSteps = 20000;

/// sim::Session::push for each roster name over this workload's batches.
void session_rung(const std::string& workload, const ServeInput& input, const Corpus& corpus,
                  Tracer& tracer, io::Json& metrics) {
  for (const std::string& name : roster()) {
    tracer.reset_totals(kSessionPush);
    const std::size_t k = fleet_native(name) ? kFleet : 1;
    sim::RunOptions options;
    options.speed_factor = 1.5;
    options.policy = sim::SpeedLimitPolicy::kClamp;
    options.record_positions = false;
    if (workload == "tournament") {
      // An even share of the step budget from every scenario.
      const std::size_t share = kSessionSteps / corpus.files.size() + 1;
      for (const trace::TraceFile& file : corpus.files) {
        const sim::Instance& instance = file.instance;
        sim::FleetAlgorithmPtr algorithm = alg::make_fleet_algorithm(name, 0);
        sim::Session session(std::vector<sim::Point>(k, instance.start()), instance.params(),
                             *algorithm, options);
        for (std::size_t t = 0; t < std::min(share, instance.horizon()); ++t) {
          const Tracer::Scope span = tracer.open(kSessionPush, t);
          session.push(instance.step(t));
        }
      }
    } else {
      std::vector<sim::RequestBatch> batches;
      for (std::size_t t = 0; t < kSessionSteps; ++t)
        batches.push_back(serve::parse_client_frame(req_line(input.seed, 0, t)).batch);
      sim::FleetAlgorithmPtr algorithm = alg::make_fleet_algorithm(name, 0);
      sim::Session session(std::vector<sim::Point>(k, sim::Point::zero(kDim)), sim::ModelParams{},
                           *algorithm, options);
      for (std::size_t t = 0; t < batches.size(); ++t) {
        const Tracer::Scope span = tracer.open(kSessionPush, t);
        session.push(batches[t]);
      }
    }
    metrics.set("session.push_ns." + name, tracer.mean_ns(kSessionPush));
  }
}

/// TenantTable::admit and ::find at serve-persist's population.
void tenant_table_rung(Tracer& tracer, io::Json& metrics) {
  const ServeConfig cfg = serve_config("persist");
  std::vector<serve::TenantSpec> specs;
  for (std::size_t i = 0; i < cfg.tenants; ++i)
    specs.push_back(serve::parse_client_frame(open_line(cfg, i)).open);
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  serve::TenantTable table;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Tracer::Scope span = tracer.open(kAdmit, i);
    table.admit(specs[i], mux);
  }
  tracer.reset_totals(kFind);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Tracer::Scope span = tracer.open(kFind, i);
    if (table.find(specs[i].tenant) == nullptr) fail("ladder: admitted tenant not found");
  }
  metrics.set("tenant_table.admit_ns", tracer.mean_ns(kAdmit));
  metrics.set("tenant_table.find_ns", tracer.mean_ns(kFind));
}

double per(std::uint64_t ns, std::uint64_t count) {
  return count ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
}

int ladder(const io::Args& args) {
  const std::string workload = args.get_string("workload", "stream");
  const std::uint64_t seed = args.get_uint64("seed", 1);
  const std::string run_dir = args.get_string("run-dir", ".");
  const std::size_t rounds = args.get_uint64("rounds", 2000);
  const unsigned tn = static_cast<unsigned>(args.get_uint64("threads", 4));
  const std::filesystem::path corpus_dir = args.get_string("corpus", "");
  // The serve rungs run on the traced workload's tenants; the tournament
  // workload has none, so it borrows serve-stream's.
  const ServeConfig cfg = serve_config(workload == "persist" ? "persist" : "stream");
  const unsigned serve_threads = 2;

  Tracer tracer;
  io::Json metrics = io::Json::object();
  const ServeInput input = make_serve_input(cfg, seed, rounds);

  // frames + the pipeline: a warm-up pass, then the same rounds with spans
  // off and on. The overhead is the median over rounds of on/off - 1, which
  // a noisy second on a shared machine cannot swing.
  std::uint64_t bytes_out = 0;
  tracer.set_enabled(false);
  run_pipeline(input, serve_threads, tracer, nullptr);
  const std::vector<std::uint64_t> off = run_pipeline(input, serve_threads, tracer, nullptr);
  tracer.set_enabled(true);
  const std::vector<std::uint64_t> on = run_pipeline(input, serve_threads, tracer, &bytes_out);
  std::vector<double> ratios;
  for (std::size_t r = 0; r < on.size(); ++r)
    ratios.push_back(static_cast<double>(on[r]) / static_cast<double>(std::max<std::uint64_t>(1, off[r])));
  std::nth_element(ratios.begin(), ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2), ratios.end());
  std::uint64_t bytes_in = 0;
  for (const auto& round : input.rounds)
    for (const std::string& line : round) bytes_in += line.size() + 1;
  const double parse_ns = tracer.mean_ns(kParse);
  const double encode_ns = tracer.mean_ns(kEncode);
  metrics.set("frames.parse_ns_per_req", parse_ns);
  metrics.set("frames.encode_ns_per_outcome", encode_ns);
  metrics.set("frames.bytes_in_per_step", per(bytes_in, input.steps));
  metrics.set("frames.bytes_out_per_step", per(bytes_out, input.steps));
  metrics.set("trace.overhead_share", ratios[ratios.size() / 2] - 1.0);

  // The multiplexer alone at 1 and N threads, plus snapshot and telemetry.
  std::vector<std::vector<std::pair<std::size_t, sim::RequestBatch>>> batches;
  for (const auto& round : input.rounds) {
    std::vector<std::pair<std::size_t, sim::RequestBatch>> parsed;
    for (const std::string& line : round) {
      serve::ClientFrame frame = serve::parse_client_frame(line);
      parsed.emplace_back(std::stoul(frame.tenant.substr(1)), std::move(frame.batch));
    }
    batches.push_back(std::move(parsed));
  }
  const MuxPass serve_t1 = run_mux_pass(input, batches, 1, tracer, "", nullptr);
  const MuxPass serve_tn = run_mux_pass(input, batches, serve_threads, tracer,
                                        run_dir + "/ladder.snap", &metrics);
  const double mux_ns = per(serve_tn.step_ns, input.steps);
  metrics.set("snapshot.save_ns",
              per(tracer.total_ns(kSnapshotBase) + tracer.total_ns(kSnapshotDelta), serve_tn.saves));
  metrics.set("snapshot.bytes_per_save", per(serve_tn.save_bytes, serve_tn.saves));
  metrics.set("snapshot.read_ns", tracer.mean_ns(kSnapshotRead));
  metrics.set("telemetry.metrics_write_ns", tracer.mean_ns(kMetricsWrite));

  // Service::run in-process: timed with the workload's own options, then
  // once more with telemetry on for the round count and ingest p99.
  const ServiceRun timed = run_service(input, run_dir, cfg.lean, tracer);
  const ServiceRun observed = run_service(input, run_dir, false, tracer);
  const double service_ns = per(timed.wall_ns, input.steps);
  metrics.set("service.ns_per_step", service_ns);
  metrics.set("service.self_ns_per_step", service_ns - parse_ns - encode_ns - mux_ns);
  metrics.set("service.pump_rounds_per_step", per(observed.rounds, input.steps));
  metrics.set("service.ingest_p99_us", static_cast<double>(observed.ingest_p99_ns) / 1000.0);

  tenant_table_rung(tracer, metrics);

  // The scenario layer and the tournament's engine work.
  Corpus corpus = load_corpus(scenario::list_scenario_files(corpus_dir), tracer);
  std::uint64_t materialized_steps = 0;
  for (const trace::TraceFile& file : corpus.files) materialized_steps += file.instance.horizon();
  metrics.set("scenario.parse_ns_per_file", tracer.mean_ns(kScenarioLoad));
  metrics.set("scenario.materialize_ns_per_step",
              per(tracer.total_ns(kMaterialize), materialized_steps));
  const DrainPass drain_tn = run_drains(corpus, tn, tracer);
  std::uint64_t tournament_ns = 0;
  {
    par::ThreadPool pool(tn);
    const std::uint64_t t0 = now_ns();
    const Tracer::Scope span = tracer.open(kTournament, 0);
    const scenario::TournamentResult result =
        scenario::run_tournament(scenario::list_scenario_files(corpus_dir), pool);
    tournament_ns = now_ns() - t0;
    if (result.cells.size() != drain_tn.cells) fail("ladder: tournament cell count mismatch");
  }
  metrics.set("tournament.self_s",
              static_cast<double>(static_cast<std::int64_t>(tournament_ns) -
                                  static_cast<std::int64_t>(tracer.total_ns(kMaterialize)) -
                                  static_cast<std::int64_t>(drain_tn.ns)) /
                  1e9);

  if (workload == "tournament") {
    const DrainPass drain_t1 = run_drains(corpus, 1, tracer);
    const double t1 = per(drain_t1.ns, drain_t1.steps);
    const double tnv = per(drain_tn.ns, drain_tn.steps);
    metrics.set("mux.ns_per_step_t1", t1);
    metrics.set("mux.ns_per_step_tN", tnv);
    metrics.set("mux.parallel_efficiency", t1 / (static_cast<double>(tn) * tnv));
    metrics.set("mux.sessions_per_round", per(drain_tn.cells, drain_tn.chunks));
  } else {
    const double t1 = per(serve_t1.step_ns, input.steps);
    metrics.set("mux.ns_per_step_t1", t1);
    metrics.set("mux.ns_per_step_tN", mux_ns);
    metrics.set("mux.parallel_efficiency", t1 / (static_cast<double>(serve_threads) * mux_ns));
    metrics.set("mux.sessions_per_round", per(input.steps, input.rounds.size()));
  }

  session_rung(workload, input, corpus, tracer, metrics);

  tracer.write(args.get_string("spans", run_dir + "/spans.ndjson"));
  std::ofstream(args.get_string("out", run_dir + "/ladder.json"), std::ios::binary)
      << metrics.dump() << '\n';
  return 0;
}

int script(const io::Args& args) {
  const ServeInput input = make_serve_input(serve_config(args.get_string("config", "stream")),
                                            args.get_uint64("seed", 1), args.get_uint64("rounds", 1000));
  std::string out;
  for (const std::string& line : input.opens) out += line + '\n';
  for (const auto& round : input.rounds)
    for (const std::string& line : round) out += line + '\n';
  std::cout << out;
  return 0;
}

int cells(const io::Args& args) {
  std::uint64_t count = 0;
  std::uint64_t steps = 0;
  for (const std::filesystem::path& path : scenario::list_scenario_files(args.get_string("corpus", ""))) {
    const scenario::Scenario sc = scenario::load(path);
    const std::size_t horizon = scenario::materialize(sc, path.parent_path()).instance.horizon();
    const std::size_t n = players(sc).size();
    count += n;
    steps += n * horizon;
  }
  io::Json doc = io::Json::object();
  doc.set("cells", count);
  doc.set("cell_steps", steps);
  std::cout << doc.dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const io::Args args(argc, argv);
    const std::string command = args.positionals().empty() ? "" : args.positionals().front();
    if (command == "load") {
      Loader loader(args);
      const io::Json summary = loader.run();
      std::ofstream(args.get_string("out", "load.json"), std::ios::binary) << summary.dump() << '\n';
      return 0;
    }
    if (command == "ladder") return ladder(args);
    if (command == "script") return script(args);
    if (command == "cells") return cells(args);
    std::cerr << "usage: perfbench_probe load|ladder|script|cells [--flags]\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << "\n";
    return 1;
  }
}
