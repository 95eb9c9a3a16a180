/// \file serve_main.cpp
/// mobsrv_serve — live NDJSON ingestion service over the session multiplexer.
///
///   mobsrv_serve [--snapshot=PATH] [--checkpoint-every=N] [--compact-ratio=R]
///                [--resume] [--max-inflight=N] [--default-rate=R] [--threads=N]
///                [--lean] [--metrics-out=PATH] [--metrics-every=N]
///                [--dump-metrics] [--tcp=PORT | --unix=PATH]
///
/// The service reads client frames (one JSON object per line) from stdin —
/// or from a single TCP or Unix-socket connection — routes them to
/// per-tenant sessions inside the SessionMultiplexer, and streams response
/// frames back. docs/SERVICE.md is the wire-protocol reference;
/// docs/CLI.md documents the flags.
///
/// Lifecycle: EOF, a `shutdown` frame, SIGTERM or SIGINT all drain every
/// queued step, save a final snapshot (when --snapshot is set) and emit a
/// `bye` frame. A `kill` frame exits immediately without draining (the
/// crash-test aid); restarting with `--resume` then continues
/// bit-identically from the last periodic snapshot.
#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <streambuf>
#include <string>

#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/contracts.hpp"
#include "fault/plan.hpp"
#include "io/args.hpp"
#include "io/cli.hpp"
#include "serve/service.hpp"

namespace {

using namespace mobsrv;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Installed WITHOUT SA_RESTART: a signal must interrupt the blocking read
/// (or accept) so the service notices the stop flag and drains gracefully.
void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Read side of a connection fd. showmanyc() asks the kernel how many bytes
/// are already buffered (FIONREAD), which is what lets the service batch
/// frame intake during a burst and pump the multiplexer when input pauses.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, buf_, sizeof(buf_));
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

  std::streamsize showmanyc() override {
    int pending = 0;
    if (::ioctl(fd_, FIONREAD, &pending) == 0 && pending > 0) return pending;
    return 0;
  }

 private:
  int fd_;
  char buf_[1 << 16];
};

/// Write side of a connection fd; flushes on sync() (the service flushes
/// whenever it goes back to waiting for input).
class FdOutBuf : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof(buf_)); }

 protected:
  int_type overflow(int_type ch) override {
    if (flush() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush(); }

 private:
  int flush() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    setp(buf_, buf_ + sizeof(buf_));
    return 0;
  }

  int fd_;
  char buf_[1 << 16];
};

void print_usage(std::ostream& os) {
  os << "usage: mobsrv_serve [flags]\n"
        "  --snapshot=PATH        snapshot file; enables checkpointing (final save on\n"
        "                         graceful exit, plus `checkpoint` frames)\n"
        "  --checkpoint-every=N   also save every N consumed steps (0 = off; needs\n"
        "                         --snapshot)\n"
        "  --compact-ratio=R      rewrite a fresh snapshot base once the delta\n"
        "                         segments exceed R x the base size (default 4)\n"
        "  --resume               restore tenants + sessions from --snapshot if the\n"
        "                         file exists, then continue bit-identically\n"
        "  --max-inflight=N       per-tenant unconsumed-step cap before `req` frames\n"
        "                         bounce with `busy` (default 64)\n"
        "  --threads=N            multiplexer worker threads (default 0 = hardware)\n"
        "  --lean                 omit fleet positions from `outcome` frames and skip\n"
        "                         the telemetry clock reads (hot loop stays clock-free)\n"
        "  --metrics-out=PATH     write an NDJSON metrics snapshot to PATH (atomic;\n"
        "                         on graceful exit and on every `metrics` frame)\n"
        "  --metrics-every=N      also snapshot metrics every N consumed steps (0 =\n"
        "                         off; needs --metrics-out)\n"
        "  --default-rate=R       rate limit for tenants whose open frame names none\n"
        "                         (steps per round, fractions ok; 0 = unlimited)\n"
        "  --idle-timeout=N       close a tenant after N input lines with no frames\n"
        "                         from it and no queued work (timeout error frame;\n"
        "                         0 = never, the default)\n"
        "  --no-durable           skip the fsyncs on snapshot/metrics writes (faster,\n"
        "                         but saves only survive crashes, not power loss)\n"
        "  --fault-plan=PATH      torture aid: inject faults per the JSON plan (seeded,\n"
        "                         deterministic; see docs/SERVICE.md)\n"
        "  --dump-metrics         print the metric catalog (one JSON object per line:\n"
        "                         name, type, unit, help) and exit\n"
        "  --tcp=PORT             serve one TCP connection on 127.0.0.1:PORT instead\n"
        "                         of stdin/stdout\n"
        "  --unix=PATH            serve one connection on a Unix socket at PATH\n"
        "  --help                 print this help\n"
        "\n"
        "Frames are NDJSON; see docs/SERVICE.md for the wire protocol.\n";
}

[[noreturn]] void die(const std::string& message) {
  std::exit(mobsrv::io::usage_error("mobsrv_serve", message));
}

int listen_tcp(int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) die(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    die("bind 127.0.0.1:" + std::to_string(port) + ": " + std::strerror(errno));
  if (::listen(listener, 1) != 0) die(std::string("listen: ") + std::strerror(errno));
  return listener;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) die(std::string("socket: ") + std::strerror(errno));
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    die("bind " + path + ": " + std::strerror(errno));
  if (::listen(listener, 1) != 0) die(std::string("listen: ") + std::strerror(errno));
  return listener;
}

/// Blocks for one client, tolerating EINTR unless the stop flag is up.
int accept_one(int listener) {
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR && !g_stop.load(std::memory_order_relaxed)) continue;
    return -1;
  }
}

int exit_code(serve::ExitReason reason) {
  // `kill` is the crash-test aid: a deliberately unclean exit reports as one.
  return reason == serve::ExitReason::kKill ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.has("help")) {
    print_usage(std::cout);
    return 0;
  }
  for (const std::string& name : args.flag_names()) {
    static constexpr const char* kKnown[] = {"snapshot",      "checkpoint-every",
                                             "compact-ratio", "resume",
                                             "max-inflight",  "default-rate",
                                             "threads",       "lean",
                                             "metrics-out",   "metrics-every",
                                             "idle-timeout",  "no-durable",
                                             "fault-plan",    "dump-metrics",
                                             "tcp",           "unix"};
    bool ok = false;
    for (const char* flag : kKnown) ok = ok || name == flag;
    if (!ok) {
      std::cerr << "mobsrv_serve: unknown flag --" << name << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  if (!args.positionals().empty()) die("unexpected argument: " + args.positionals().front());

  if (args.get_bool("dump-metrics", false)) {
    // The runtime metric catalog, NDJSON — tools/check_metrics_docs.py
    // cross-checks it against docs/OBSERVABILITY.md in CI.
    for (const serve::MetricInfo& metric : serve::metric_catalog()) {
      io::Json doc = io::Json::object();
      doc.set("name", metric.name);
      doc.set("type", metric.type);
      doc.set("unit", metric.unit);
      doc.set("help", metric.help);
      std::cout << doc.dump() << '\n';
    }
    return 0;
  }

  serve::ServiceOptions options;
  fault::Injector injector;  // inert unless --fault-plan arms it
  int tcp_port = 0;
  bool resume = false;
  try {
    options.snapshot_path = args.get_string("snapshot", "");
    options.checkpoint_every = static_cast<std::size_t>(args.get_uint64("checkpoint-every", 0));
    options.max_inflight = static_cast<std::size_t>(args.get_uint64("max-inflight", 64));
    options.threads = static_cast<unsigned>(args.get_uint64("threads", 0));
    options.lean = args.get_bool("lean", false);
    options.metrics_path = args.get_string("metrics-out", "");
    options.metrics_every = static_cast<std::size_t>(args.get_uint64("metrics-every", 0));
    options.default_rate = args.get_double("default-rate", 0.0);
    options.compact_ratio = args.get_double("compact-ratio", 4.0);
    options.idle_timeout = static_cast<std::size_t>(args.get_uint64("idle-timeout", 0));
    options.durable = !args.get_bool("no-durable", false);
    resume = args.get_bool("resume", false);
    if (args.has("fault-plan")) {
      // A bad plan is a bad command line: PlanError lands in this catch and
      // exits 2 before the service starts.
      injector = fault::make_injector(fault::load_plan(args.get_string("fault-plan", "")));
      options.faults = &injector;
    }
    if (args.has("tcp")) tcp_port = args.get_int("tcp", 0);
  } catch (const std::exception& error) {
    // A malformed flag value is a usage error (exit 2), not a crash.
    die(error.what());
  }
  options.stop = &g_stop;
  // Every usage error exits 2 here, before the Service starts its pool and
  // sweeps stale .tmp files.
  if (resume && options.snapshot_path.empty()) die("--resume needs --snapshot");
  if (options.checkpoint_every > 0 && options.snapshot_path.empty())
    die("--checkpoint-every needs --snapshot");
  if (options.metrics_every > 0 && options.metrics_path.empty())
    die("--metrics-every needs --metrics-out");
  if (options.max_inflight == 0) die("--max-inflight must be >= 1");
  if (options.default_rate < 0.0) die("--default-rate must be >= 0");
  if (options.compact_ratio <= 0.0) die("--compact-ratio must be > 0");
  if (args.has("tcp") && args.has("unix")) die("--tcp and --unix are mutually exclusive");
  if (args.has("unix") && args.get_string("unix", "").size() >= sizeof(sockaddr_un::sun_path))
    die("--unix path too long: " + args.get_string("unix", ""));

  install_signal_handlers();

  try {
    serve::Service service(options);
    if (resume && std::filesystem::exists(options.snapshot_path)) {
      service.restore(options.snapshot_path);
      std::cerr << "mobsrv_serve: resumed " << service.mux().size() << " tenant(s) from "
                << options.snapshot_path << "\n";
    }

    if (args.has("tcp") || args.has("unix")) {
      const int listener =
          args.has("tcp") ? listen_tcp(tcp_port) : listen_unix(args.get_string("unix", ""));
      const int fd = accept_one(listener);
      if (fd < 0) {
        ::close(listener);
        // SIGTERM while waiting for the client: nothing to drain yet.
        return g_stop.load(std::memory_order_relaxed) ? 0 : 2;
      }
      FdInBuf inbuf(fd);
      FdOutBuf outbuf(fd);
      std::istream in(&inbuf);
      std::ostream out(&outbuf);
      const serve::ExitReason reason = service.run(in, out);
      out.flush();
      ::close(fd);
      ::close(listener);
      if (args.has("unix")) ::unlink(args.get_string("unix", "").c_str());
      return exit_code(reason);
    }

    return exit_code(service.run(std::cin, std::cout));
  } catch (const std::exception& error) {
    std::cerr << "mobsrv_serve: " << error.what() << "\n";
    return 1;
  }
}
