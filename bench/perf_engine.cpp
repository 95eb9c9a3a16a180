/// \file perf_engine.cpp
/// Engine microbenchmarks: the `mobsrv_perf` binary.
///
/// Measures steps/second of each layer of the engine and service:
///   * engine/session_soa      — sim::Session streaming BatchViews over the
///                               flat RequestStore (the current hot path);
///   * engine/run_wrapper      — sim::run(), showing the wrapper adds nothing;
///   * mux/drain               — core::SessionMultiplexer throughput over
///                               many concurrent sessions;
///   * fleet/session           — the unified fleet Session (span-based
///                               FleetStepView, in-place proposals) with a
///                               parked fleet: the k-server loop overhead;
///   * solver/descent_soa      — the convex-descent offline solver on flat
///                               TrajectoryStore buffers with
///                               dimension-specialized kernels and a
///                               zero-allocation iteration loop;
///   * solver/grid_dp          — the 1-D DP oracle (flat request scan,
///                               caller-owned service-cost scratch);
///   * serve/ingest            — the live-ingestion soak: an NDJSON script
///                               (opens, interleaved req frames, shutdown)
///                               pushed end-to-end through serve::Service —
///                               frame parsing, tenant routing, mux stepping
///                               and outcome emission all on the clock.
///   * obs/overhead            — the telemetry overhead gate: the same mux
///                               drain stepped one round at a time with
///                               per-round timing on (lean:0) and off
///                               (lean:1); the acceptance bar is lean:0
///                               within 2% of lean:1.
///   * serve/ingest_p99        — the ingest soak with full telemetry
///                               (lean=false); reports the accept->outcome
///                               ingest-latency p50/p99 from the service's
///                               own serve.ingest_latency_ns histogram.
///   * serve/metrics_render    — --metrics-out cuts over 8192 open tenants
///                               with 512 touched between cuts: the cached
///                               cut (full:0) against the full render
///                               (full:1); `steps` counts tenant rows.
///   * serve/save_boundary     — serve-persist's save boundary through
///                               Service::run: 8192 open tenants with
///                               --snapshot and --metrics-out, 512 of them
///                               stepped per boundary, then the snapshot
///                               delta and the metrics cut; `steps` counts
///                               tenant rows written to the metrics file.
///   * engine/step_latency     — sim::Session with the RunOptions
///                               step_latency hook attached: per-push wall
///                               time from the histogram the engine fills.
///   * mux/soak_1m_uniform     — a frozen copy of the pre-active-set
///                               scheduler at soak population (10^5 smoke,
///                               10^6 full; 1% hot): every round sweeps every
///                               open slot to find the few with work.
///   * mux/soak_1m_active      — the same soak on the intrusive ready list:
///                               parked slots cost nothing, rounds are
///                               O(active). Acceptance: >= 5x the uniform
///                               row's steps/sec. Also reports round-latency
///                               p50/p99 from a bench-side histogram.
///   * mux/soak_1m_ckpt        — the soak with incremental checkpoints: the
///                               dirty slots are encoded and mark_saved()
///                               every few rounds; ckpt_bytes is the encode
///                               throughput and dirty_per_save shows the
///                               save cost tracking progress, not population.
///   * scenario/tournament     — run_tournament over the generated starters
///                               with horizons x4 at 1 and 4 threads; `steps`
///                               counts cell steps, and the 4-thread row
///                               reports parallel_efficiency = t1 / (4 × t4).
/// Each engine benchmark runs at dim 1, 2 and 8; solver benchmarks run at
/// dim 1 and 2 (the paper's embedding dimensions, where e11 lives).
///
///   mobsrv_perf                         # full measurement
///   mobsrv_perf --smoke                 # small workloads, short timings (CI)
///   mobsrv_perf --out=BENCH_perf.json   # also write google-benchmark JSON
///   mobsrv_perf --benchmark_filter=...  # forwarded to google-benchmark
///
/// The per-second `steps` counter is the comparison metric.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/mobsrv.hpp"
#include "fault/injector.hpp"
#include "io/cli.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "scenario/tournament.hpp"
#include "serve/service.hpp"
#include "trace/checkpoint.hpp"

namespace {

using mobsrv::geo::Point;
namespace sim = mobsrv::sim;
namespace core = mobsrv::core;
namespace par = mobsrv::par;
namespace stats = mobsrv::stats;

// ---------------------------------------------------------------------------
// Shared workload generation (identical request streams for every variant).
// ---------------------------------------------------------------------------

sim::Instance make_workload(int dim, std::size_t horizon, std::size_t requests_per_step) {
  stats::Rng rng({0xBE7Cu, static_cast<std::uint64_t>(dim)});
  sim::ModelParams params;
  params.move_cost_weight = 4.0;
  params.max_step = 1.0;
  std::vector<sim::RequestBatch> steps(horizon);
  for (auto& step : steps) {
    step.requests.reserve(requests_per_step);
    for (std::size_t i = 0; i < requests_per_step; ++i) {
      Point v(dim);
      for (int d = 0; d < dim; ++d) v[d] = rng.uniform(-10.0, 10.0);
      step.requests.push_back(v);
    }
  }
  return sim::Instance(Point::zero(dim), params, steps);
}

// ---------------------------------------------------------------------------
// Benchmarks. All report a per-second `steps` counter (engine rounds) and,
// for the engine loops, `requests` (distance evaluations).
// ---------------------------------------------------------------------------

struct Sizes {
  std::size_t horizon;
  std::size_t requests_per_step;
  std::size_t mux_sessions;
  std::size_t mux_horizon;
  std::size_t soak_sessions;
  std::size_t soak_horizon;
};

void set_throughput(benchmark::State& state, const Sizes& sizes) {
  const auto steps = static_cast<std::int64_t>(state.iterations() * sizes.horizon);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(steps) * static_cast<double>(sizes.requests_per_step),
      benchmark::Counter::kIsRate);
}

void BM_SessionSoa(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance = make_workload(dim, sizes.horizon, sizes.requests_per_step);
  sim::RunOptions options;
  options.record_positions = false;  // a streaming tenant keeps no history
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    sim::Session session(instance.start(), instance.params(), lazy, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
}

void BM_RunWrapper(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance = make_workload(dim, sizes.horizon, sizes.requests_per_step);
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    const sim::RunResult result = sim::run(instance, lazy);
    benchmark::DoNotOptimize(result.total_cost);
  }
  set_throughput(state, sizes);
}

void BM_MuxDrain(benchmark::State& state, Sizes sizes) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto workload =
      std::make_shared<const sim::Instance>(make_workload(1, sizes.mux_horizon, 4));
  par::ThreadPool pool(threads);
  for (auto _ : state) {
    core::SessionMultiplexer mux(pool);
    for (std::size_t s = 0; s < sizes.mux_sessions; ++s) {
      core::SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = "Lazy";
      mux.add(std::move(spec));
    }
    mux.drain();
    benchmark::DoNotOptimize(mux.totals().total_cost);
  }
  const auto steps =
      static_cast<double>(state.iterations() * sizes.mux_sessions * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.mux_sessions);
}

// ---------------------------------------------------------------------------
// Fleet engine: the unified fleet Session with a parked fleet, so the
// per-step overhead of the k-server loop is what is measured.
// ---------------------------------------------------------------------------

std::vector<Point> fleet_starts(const sim::Instance& instance, int k) {
  std::vector<Point> starts;
  starts.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    Point p = instance.start();
    p[0] += static_cast<double>(i);
    starts.push_back(p);
  }
  return starts;
}

void BM_FleetSession(benchmark::State& state, Sizes sizes) {
  const auto k = static_cast<int>(state.range(0));
  const sim::Instance instance = make_workload(2, sizes.horizon, sizes.requests_per_step);
  const std::vector<Point> starts = fleet_starts(instance, k);
  sim::RunOptions options;
  options.policy = sim::SpeedLimitPolicy::kClamp;
  options.record_positions = false;
  for (auto _ : state) {
    mobsrv::ext::StaticServers parked;
    sim::Session session(starts, instance.params(), parked, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
}

// ---------------------------------------------------------------------------
// Offline solvers: convex descent on flat TrajectoryStore buffers and the
// 1-D grid DP.
// ---------------------------------------------------------------------------

/// Descent iterations per solve: enough for the step schedule and
/// improvement bookkeeping to matter, small enough that one solve is a
/// reasonable benchmark iteration at e11 scale (T = 512).
constexpr int kDescentIterations = 40;

void set_solver_throughput(benchmark::State& state, const Sizes& sizes, int iters_per_solve) {
  const auto steps = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(sizes.horizon) *
                     static_cast<std::int64_t>(iters_per_solve);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(steps) * static_cast<double>(sizes.requests_per_step),
      benchmark::Counter::kIsRate);
}

void BM_DescentSoa(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance = make_workload(dim, sizes.horizon, sizes.requests_per_step);
  mobsrv::opt::ConvexDescentOptions options;
  options.iterations = kDescentIterations;
  for (auto _ : state)
    benchmark::DoNotOptimize(mobsrv::opt::solve_convex_descent(instance, options).cost);
  set_solver_throughput(state, sizes, kDescentIterations);
}

void BM_GridDp(benchmark::State& state, Sizes sizes) {
  const sim::Instance instance = make_workload(1, sizes.horizon, sizes.requests_per_step);
  for (auto _ : state)
    benchmark::DoNotOptimize(mobsrv::opt::solve_grid_dp_1d(instance).solution.cost);
  const auto steps = static_cast<std::int64_t>(state.iterations() * sizes.horizon);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// Service soak: the whole mobsrv_serve data path on the clock. One NDJSON
// script — tenant opens, interleaved req frames, shutdown — is built once;
// each iteration feeds it through a fresh serve::Service, so the measurement
// covers frame parsing, admission, per-tenant routing, mux stepping and
// outcome-frame emission end to end. Lean output keeps positions off the
// wire, matching a high-throughput deployment.
// ---------------------------------------------------------------------------

std::string make_ingest_script(std::size_t tenants, std::size_t steps_per_tenant, int dim) {
  stats::Rng rng({0x5E47Eu, static_cast<std::uint64_t>(dim)});
  std::ostringstream out;
  for (std::size_t s = 0; s < tenants; ++s)
    out << R"({"type":"open","v":1,"tenant":"t)" << s
        << R"(","algorithm":"Lazy","dim":)" << dim << R"(,"speed":1.5})" << '\n';
  for (std::size_t t = 0; t < steps_per_tenant; ++t) {
    for (std::size_t s = 0; s < tenants; ++s) {
      out << R"({"type":"req","tenant":"t)" << s << R"(","batch":[)";
      for (std::size_t r = 0; r < 4; ++r) {
        if (r > 0) out << ',';
        out << '[';
        for (int d = 0; d < dim; ++d) {
          if (d > 0) out << ',';
          out << rng.uniform(-10.0, 10.0);
        }
        out << ']';
      }
      out << "]}\n";
    }
  }
  out << R"({"type":"shutdown"})" << '\n';
  return out.str();
}

void BM_ServeIngest(benchmark::State& state, Sizes sizes) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const std::string script = make_ingest_script(tenants, sizes.mux_horizon, 2);
  std::uint64_t frames = 0;
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = true;
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    frames += service.lines_seen();
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps =
      static_cast<double>(state.iterations() * tenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["frames"] =
      benchmark::Counter(static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["tenants"] = static_cast<double>(tenants);
}

// ---------------------------------------------------------------------------
// Telemetry rows (PR 7). obs/overhead is the 2% gate behind --lean's
// contract: the identical single-round drain with the per-round clock reads
// on (lean:0) and off (lean:1). Stepping one round at a time maximises the
// relative cost of the two obs::now_ns() calls per round, so the gate is
// conservative. serve/ingest_p99 and engine/step_latency reuse the
// obs::Histogram machinery the service itself runs, so the percentiles in
// BENCH_perf.json come from the production code path, not a bench-side
// timer.
// ---------------------------------------------------------------------------

void BM_ObsOverhead(benchmark::State& state, Sizes sizes) {
  const bool lean = state.range(0) != 0;
  const auto workload =
      std::make_shared<const sim::Instance>(make_workload(1, sizes.mux_horizon, 4));
  par::ThreadPool pool(1);
  for (auto _ : state) {
    core::SessionMultiplexer mux(pool);
    mux.set_timing_enabled(!lean);
    for (std::size_t s = 0; s < sizes.mux_sessions; ++s) {
      core::SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = "Lazy";
      mux.add(std::move(spec));
    }
    while (mux.step(1) > 0) {
    }
    benchmark::DoNotOptimize(mux.totals().total_cost);
  }
  const auto steps =
      static_cast<double>(state.iterations() * sizes.mux_sessions * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.mux_sessions);
}

void BM_ServeIngestP99(benchmark::State& state, Sizes sizes) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const std::string script = make_ingest_script(tenants, sizes.mux_horizon, 2);
  mobsrv::obs::Histogram ingest;
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = false;  // full telemetry: the clocked ingest path
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    ingest.merge(service.telemetry().ingest_latency);
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps =
      static_cast<double>(state.iterations() * tenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  const mobsrv::obs::HistogramSummary summary = ingest.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
  state.counters["tenants"] = static_cast<double>(tenants);
}

// ---------------------------------------------------------------------------
// --metrics-out cuts at serve-persist's shape: 8192 open tenants, 512 of them
// touched between cuts (16384 steps per cut, 32-step epochs on a rotating
// hot set). full:0 is the service's cut (ServeTelemetry::metrics_cut, which
// re-renders only the touched rows); full:1 is the full render of the same
// state. The per-second `steps` counter counts tenant rows written.
// ---------------------------------------------------------------------------

void BM_MetricsRender(benchmark::State& state) {
  constexpr std::size_t kTenants = 8192;
  constexpr std::size_t kTouched = 512;
  constexpr std::size_t kEpoch = 32;
  const bool full = state.range(0) != 0;
  par::ThreadPool pool(1);
  core::SessionMultiplexer mux(pool);
  mobsrv::serve::ServeTelemetry telemetry(/*lean=*/false);
  std::vector<std::shared_ptr<sim::Instance>> workloads;
  for (std::size_t s = 0; s < kTenants; ++s) {
    workloads.push_back(std::make_shared<sim::Instance>(Point::zero(1), sim::ModelParams{},
                                                        sim::RequestStore(1)));
    core::SessionSpec spec;
    spec.workload = workloads.back();
    spec.algorithm = "Lazy";
    spec.tenant = "t" + std::to_string(s);
    const std::size_t slot = mux.add(spec);
    telemetry.tenant_row(slot, spec.tenant);
    telemetry.journal().record(mobsrv::obs::EventType::kOpen, spec.tenant, "Lazy");
  }
  // The first cut renders every row; the row measures the steady state.
  benchmark::DoNotOptimize(telemetry.metrics_cut(mux, mux.totals()).size());
  stats::Rng rng(0x3E7);
  std::size_t hot = 0;
  std::uint64_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < kTouched; ++i, hot = (hot + 1) % kTenants) {
      for (std::size_t t = 0; t < kEpoch; ++t)
        workloads[hot]->push_step(sim::RequestBatch{{Point{rng.uniform(-10.0, 10.0)}}});
      mux.drain(hot);
      mobsrv::serve::TenantTelemetry& row = telemetry.tenant_row(hot, "");
      row.reqs += kEpoch;
      row.outcomes += kEpoch;
      for (std::size_t t = 0; t < kEpoch; ++t) row.ingest_latency.record(20'000 + 1'000 * t);
    }
    state.ResumeTiming();
    if (full) {
      const std::string cut = telemetry.snapshot_ndjson(mux, mux.snapshot());
      benchmark::DoNotOptimize(cut.data());
    } else {
      benchmark::DoNotOptimize(telemetry.metrics_cut(mux, mux.totals()).data());
    }
    benchmark::ClobberMemory();
    rows += kTenants;
  }
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
  state.counters["tenants"] = static_cast<double>(kTenants);
  state.counters["touched"] = static_cast<double>(kTouched);
}

// serve-persist's save boundary, end to end through Service::run: 8192
// open tenants, --snapshot and --metrics-out in a temp dir (non-durable:
// fsync time belongs to the disk). Each iteration streams one step to each
// of the next 512 tenants of a rotating window, then hits EOF, whose
// graceful drain saves the snapshot (a delta, or a base when the chain
// compacts) and writes the metrics cut. The per-second `steps` counter
// counts tenant rows written to the metrics file.
void BM_SaveBoundary(benchmark::State& state) {
  constexpr std::size_t kTenants = 8192;
  constexpr std::size_t kTouched = 512;
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("mobsrv_perf_save_boundary_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  mobsrv::serve::ServiceOptions options;
  options.threads = 1;
  options.durable = false;
  options.snapshot_path = dir / "service.snap";
  options.metrics_path = dir / "service.metrics";
  std::vector<std::string> reqs;
  std::string opens;
  for (std::size_t s = 0; s < kTenants; ++s) {
    const std::string name = "t" + std::to_string(s);
    opens += R"({"type":"open","v":1,"tenant":")" + name +
             R"(","algorithm":"Lazy","dim":1,"speed":1.5})" + "\n";
    reqs.push_back(R"({"type":"req","tenant":")" + name + R"(","batch":[[)" +
                   std::to_string(static_cast<double>(s % 17) - 8.0) + "]]}\n");
  }
  mobsrv::serve::Service service(options);
  {
    std::istringstream in(opens);
    std::ostringstream out;
    service.run(in, out);  // admits every tenant; EOF writes the first base
  }
  std::size_t hot = 0;
  std::uint64_t rows = 0;
  std::string script;
  for (auto _ : state) {
    state.PauseTiming();
    script.clear();
    for (std::size_t i = 0; i < kTouched; ++i, hot = (hot + 1) % kTenants) script += reqs[hot];
    std::istringstream in(script);
    std::ostringstream out;
    state.ResumeTiming();
    if (service.run(in, out) != mobsrv::serve::ExitReason::kEof) state.SkipWithError("bad exit");
    benchmark::DoNotOptimize(out.tellp());
    rows += kTenants;
  }
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
  state.counters["tenants"] = static_cast<double>(kTenants);
  state.counters["touched"] = static_cast<double>(kTouched);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// The PR 10 gate: the fault hooks on the serve hot path (serve.read per
// input line, tenant.step per pump round, plus the persistence sites) must
// be free when no injector is armed. armed:0 runs with options.faults ==
// nullptr (the production default — one pointer test per site); armed:1
// wires an injector holding a rule that can never fire, so every hit pays
// the site lookup and rule walk. perf_diff.py pins armed:0 against the
// committed baseline; the armed:1 row documents the worst-case hook cost.
void BM_FaultHookOverhead(benchmark::State& state, Sizes sizes) {
  const bool armed = state.range(0) != 0;
  constexpr std::size_t kTenants = 8;
  const std::string script = make_ingest_script(kTenants, sizes.mux_horizon, 2);
  mobsrv::fault::Injector injector;
  if (armed) {
    mobsrv::fault::SiteRule rule;
    rule.site = mobsrv::fault::kSiteServeRead;
    rule.nth = std::numeric_limits<std::uint64_t>::max();  // inert: never fires
    injector.add_rule(rule);
  }
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = true;
    options.faults = armed ? &injector : nullptr;
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps = static_cast<double>(state.iterations() * kTenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["armed"] = armed ? 1.0 : 0.0;
}

void BM_EngineStepLatency(benchmark::State& state, Sizes sizes) {
  const sim::Instance instance = make_workload(1, sizes.horizon, sizes.requests_per_step);
  mobsrv::obs::Histogram latency;
  sim::RunOptions options;
  options.record_positions = false;
  options.step_latency = &latency;
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    sim::Session session(instance.start(), instance.params(), lazy, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
  const mobsrv::obs::HistogramSummary summary = latency.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
}

// ---------------------------------------------------------------------------
// Million-session soak (PR 8): sparse activity at population scale. One slot
// in a hundred is hot (soak_horizon pending steps); the other 99% sit open
// with nothing queued — the shape of a live multiplexer where most tenants
// are idle between bursts. Session construction is excluded from the clock
// (PauseTiming) so the rows compare scheduling, not setup.
// ---------------------------------------------------------------------------

constexpr std::size_t kSoakHotStride = 100;  // 1% of the population is hot
constexpr std::size_t kSoakSaveEvery = 32;   // rounds between incremental saves

struct SoakSources {
  sim::Instance hot;
  sim::Instance cold;
};

SoakSources make_soak_sources(std::size_t horizon) {
  // Hot sessions carry the whole soak horizon; cold ones are open with
  // nothing queued — a live multiplexer's idle tenants between bursts.
  // Single-request dim-1 steps keep the per-step engine work small, so the
  // rows measure the scheduler's visit cost, not distance arithmetic.
  return {make_workload(1, horizon, 1), make_workload(1, 0, 1)};
}

/// Every tenant owns its workload object, as in the live service — the
/// sweep's horizon check dereferences per-slot memory, exactly what the
/// pre-refactor scheduler paid on every visit.
std::shared_ptr<const sim::Instance> soak_instance(const SoakSources& sources, std::size_t s) {
  return std::make_shared<const sim::Instance>(s % kSoakHotStride == 0 ? sources.hot
                                                                        : sources.cold);
}

std::size_t soak_steps(const Sizes& sizes) {
  return (sizes.soak_sessions / kSoakHotStride) * sizes.soak_horizon;
}

/// Frozen copy of the pre-refactor scheduler slot: the seed multiplexer kept
/// one of these per session — the full SessionSpec (tenant/algorithm
/// strings, workload pointer, start layout) plus engine and cursor — and
/// every round walked all of them, touching each slot's cachelines just to
/// discover `cursor == horizon`.
struct FrozenMuxSlot {
  core::SessionSpec spec;
  std::unique_ptr<mobsrv::alg::Lazy> algo;
  std::unique_ptr<sim::Session> session;
  std::string error;
  std::size_t cursor = 0;
  bool open = true;
};

std::vector<FrozenMuxSlot> make_frozen_soak(const SoakSources& sources, std::size_t sessions) {
  sim::RunOptions options;
  options.record_positions = false;
  std::vector<FrozenMuxSlot> slots(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    FrozenMuxSlot& slot = slots[s];
    slot.spec.tenant = "t" + std::to_string(s);
    slot.spec.algorithm = "Lazy";
    slot.spec.workload = soak_instance(sources, s);
    slot.algo = std::make_unique<mobsrv::alg::Lazy>();
    slot.session = std::make_unique<sim::Session>(
        slot.spec.workload->start(), slot.spec.workload->params(), *slot.algo, options);
  }
  return slots;
}

/// One pre-refactor round: visit every open slot, advance the ones with
/// pending steps. Returns how many advanced (0 = drained).
std::size_t frozen_uniform_round(std::vector<FrozenMuxSlot>& slots) {
  std::size_t advanced = 0;
  for (FrozenMuxSlot& slot : slots) {
    if (!slot.open || slot.cursor >= slot.spec.workload->horizon()) continue;
    slot.session->push(slot.spec.workload->step(slot.cursor));
    ++slot.cursor;
    ++advanced;
  }
  return advanced;
}

void fill_soak_mux(core::SessionMultiplexer& mux, const SoakSources& sources,
                   std::size_t sessions) {
  for (std::size_t s = 0; s < sessions; ++s) {
    core::SessionSpec spec;
    spec.workload = soak_instance(sources, s);
    spec.algorithm = "Lazy";
    mux.add(std::move(spec));
  }
}

void BM_MuxSoakUniform(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  double total = 0.0;
  std::vector<FrozenMuxSlot> slots;
  for (auto _ : state) {
    state.PauseTiming();
    slots = make_frozen_soak(sources, sizes.soak_sessions);
    state.ResumeTiming();
    while (frozen_uniform_round(slots) > 0) {
    }
    state.PauseTiming();
    for (const FrozenMuxSlot& slot : slots) total += slot.session->total_cost();
    slots.clear();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(total);
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
}

void BM_MuxSoakActive(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  par::ThreadPool pool(1);
  mobsrv::obs::Histogram round_latency;
  double total = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto mux = std::make_unique<core::SessionMultiplexer>(pool);
    fill_soak_mux(*mux, sources, sizes.soak_sessions);
    state.ResumeTiming();
    for (;;) {
      const std::uint64_t start = mobsrv::obs::now_ns();
      const std::size_t live = mux->step(1);
      round_latency.record(mobsrv::obs::now_ns() - start);
      if (live == 0) break;
    }
    state.PauseTiming();
    total += mux->totals().total_cost;
    mux.reset();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(total);
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
  const mobsrv::obs::HistogramSummary summary = round_latency.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
}

void BM_MuxSoakCkpt(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  par::ThreadPool pool(1);
  std::uint64_t bytes = 0, saves = 0, dirty_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto mux = std::make_unique<core::SessionMultiplexer>(pool);
    fill_soak_mux(*mux, sources, sizes.soak_sessions);
    // The base save is taken at admission and stays off the clock — the row
    // measures the incremental steady state, where only hot slots dirty.
    mux->mark_saved();
    std::vector<core::SessionCheckpointRecord> records;
    state.ResumeTiming();
    std::size_t round = 0;
    const auto save_dirty = [&] {
      records.clear();
      for (const std::size_t slot : mux->dirty_slots())
        records.push_back(mux->checkpoint_slot(slot));
      bytes += mobsrv::trace::encode_checkpoint(records).size();
      dirty_records += records.size();
      ++saves;
      mux->mark_saved();
    };
    while (mux->step(1) > 0)
      if (++round % kSoakSaveEvery == 0) save_dirty();
    save_dirty();
    state.PauseTiming();
    mux.reset();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["ckpt_bytes"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
  state.counters["dirty_per_save"] =
      saves == 0 ? 0.0 : static_cast<double>(dirty_records) / static_cast<double>(saves);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
}

// ---------------------------------------------------------------------------
// Scenario layer (PR 9): scenario files parsed + validated per second over
// the starter corpus, rendered to canonical text once up front. The
// per-second `steps` counter counts files, so perf_diff.py gates this row
// like every other.
// ---------------------------------------------------------------------------

void BM_ScenarioParseCorpus(benchmark::State& state) {
  std::vector<std::string> texts;
  for (const mobsrv::scenario::Scenario& sc : mobsrv::scenario::starter_corpus())
    texts.push_back(mobsrv::scenario::canonical_text(sc));
  std::size_t parsed = 0;
  for (auto _ : state) {
    for (const std::string& text : texts) {
      const mobsrv::scenario::Scenario sc = mobsrv::scenario::parse(text, "<perf>");
      benchmark::DoNotOptimize(sc.seed);
      ++parsed;
    }
  }
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(parsed), benchmark::Counter::kIsRate);
  state.counters["files"] = static_cast<double>(texts.size());
}

// ---------------------------------------------------------------------------
// run_tournament end to end: the generated starters (the CSV importer
// examples need their data files and are left out) with horizons x4 and
// the full roster, on one pool per row. `steps` counts cell steps (the
// horizons summed over every played cell). A threads:N > 1 row first times
// one tournament on a 1-thread pool and reports parallel_efficiency =
// t1 / (N × tN), measured on run_tournament itself: window, materialisation
// and harvest included.
// ---------------------------------------------------------------------------

void BM_Tournament(benchmark::State& state) {
  namespace scn = mobsrv::scenario;
  const auto threads = static_cast<unsigned>(state.range(0));
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("mobsrv_perf_tournament_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (scn::Scenario sc : scn::starter_corpus()) {
    if (!sc.params.file.empty()) continue;
    sc.params.horizon *= 4;
    std::ofstream(dir / (sc.name + ".json")) << scn::canonical_text(sc) << "\n";
  }
  const std::vector<std::filesystem::path> files = scn::list_scenario_files(dir);
  std::map<std::string, std::size_t> horizons;
  for (const std::filesystem::path& file : files) {
    const scn::Scenario sc = scn::load(file);
    horizons[sc.name] = scn::materialize(sc, dir).instance.horizon();
  }
  const auto timed = [&files](par::ThreadPool& pool, scn::TournamentResult& result) {
    const std::uint64_t begin = mobsrv::obs::now_ns();
    result = scn::run_tournament(files, pool);
    return static_cast<double>(mobsrv::obs::now_ns() - begin);
  };

  scn::TournamentResult result;
  double t1_ns = 0.0;
  if (threads > 1) {
    par::ThreadPool serial(1);
    t1_ns = timed(serial, result);
  }
  par::ThreadPool pool(threads);
  double wall_ns = 0.0;
  for (auto _ : state) {
    wall_ns += timed(pool, result);
    benchmark::DoNotOptimize(result.leaderboard.data());
  }
  std::size_t cell_steps = 0;
  for (const scn::TournamentCell& cell : result.cells) cell_steps += horizons.at(cell.scenario);
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cell_steps), benchmark::Counter::kIsRate);
  state.counters["cells"] = static_cast<double>(result.cells.size());
  if (threads > 1 && state.iterations() > 0) {
    const double tn_ns = wall_ns / static_cast<double>(state.iterations());
    state.counters["parallel_efficiency"] = t1_ns / (static_cast<double>(threads) * tn_ns);
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

void print_usage(std::ostream& os) {
  os << "usage: mobsrv_perf [--smoke] [--out=PATH] [--benchmark_*...]\n"
        "  --smoke      small workloads + short timings (CI smoke artifact)\n"
        "  --out=PATH   write google-benchmark JSON to PATH\n";
}

}  // namespace

int main(int argc, char** argv) {
  const mobsrv::io::Args args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(std::cout);
    return 0;
  }
  // The shared exit discipline: unknown flags, stray positionals and
  // malformed values ("--smoke=maybe") all exit 2 with a message.
  bool smoke = false;
  std::string out_path;
  try {
    mobsrv::io::require_known_flags(args, {"smoke", "out", "benchmark*"});
    mobsrv::io::require_no_positionals(args);
    smoke = args.get_bool("smoke", false);
    out_path = args.get_string("out", "");
  } catch (const mobsrv::ContractViolation& error) {
    return mobsrv::io::usage_error("mobsrv_perf", error.what(), print_usage);
  }
  std::vector<std::string> flags;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) flags.emplace_back(argv[i]);
  if (!out_path.empty()) {
    flags.push_back("--benchmark_out=" + out_path);
    flags.push_back("--benchmark_out_format=json");
  }

  // Full runs size the hot loop well past L2 so the engine rows measure
  // memory bandwidth, not a cache accident; smoke runs just prove the binary
  // and its JSON artifact end-to-end.
  const Sizes sizes =
      smoke ? Sizes{64, 16, 256, 16, 100'000, 256} : Sizes{512, 64, 2048, 64, 1'000'000, 1024};
  const double min_time = smoke ? 0.02 : 0.25;

  for (const int dim : {1, 2, 8}) {
    benchmark::RegisterBenchmark("engine/session_soa", BM_SessionSoa, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("engine/run_wrapper", BM_RunWrapper, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
  }
  for (const int k : {4, 16}) {
    benchmark::RegisterBenchmark("fleet/session", BM_FleetSession, sizes)
        ->Arg(k)
        ->ArgName("k")
        ->MinTime(min_time);
  }
  for (const int dim : {1, 2}) {
    benchmark::RegisterBenchmark("solver/descent_soa", BM_DescentSoa, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
  }
  benchmark::RegisterBenchmark("solver/grid_dp", BM_GridDp, sizes)->MinTime(min_time);
  for (const int threads : {1, 4}) {
    benchmark::RegisterBenchmark("mux/drain", BM_MuxDrain, sizes)
        ->Arg(threads)
        ->ArgName("threads")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  for (const int tenants : {1, 32}) {
    benchmark::RegisterBenchmark("serve/ingest", BM_ServeIngest, sizes)
        ->Arg(tenants)
        ->ArgName("tenants")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  for (const int lean : {0, 1}) {
    benchmark::RegisterBenchmark("obs/overhead", BM_ObsOverhead, sizes)
        ->Arg(lean)
        ->ArgName("lean")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark("serve/ingest_p99", BM_ServeIngestP99, sizes)
      ->Arg(8)
      ->ArgName("tenants")
      ->MinTime(min_time)
      ->UseRealTime();
  for (const int full : {0, 1}) {
    benchmark::RegisterBenchmark("serve/metrics_render", BM_MetricsRender)
        ->Arg(full)
        ->ArgName("full")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark("serve/save_boundary", BM_SaveBoundary)
      ->MinTime(min_time)
      ->UseRealTime();
  for (const int armed : {0, 1}) {
    benchmark::RegisterBenchmark("serve/fault_hook_overhead", BM_FaultHookOverhead, sizes)
        ->Arg(armed)
        ->ArgName("armed")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark("engine/step_latency", BM_EngineStepLatency, sizes)
      ->Arg(1)
      ->ArgName("dim")
      ->MinTime(min_time);
  benchmark::RegisterBenchmark("mux/soak_1m_uniform", BM_MuxSoakUniform, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("mux/soak_1m_active", BM_MuxSoakActive, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("mux/soak_1m_ckpt", BM_MuxSoakCkpt, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("scenario/parse_corpus", BM_ScenarioParseCorpus)
      ->MinTime(min_time);
  for (const int threads : {1, 4}) {
    benchmark::RegisterBenchmark("scenario/tournament", BM_Tournament)
        ->Arg(threads)
        ->ArgName("threads")
        ->MinTime(min_time)
        ->UseRealTime();
  }

  std::vector<char*> bench_argv{argv[0]};
  for (std::string& flag : flags) bench_argv.push_back(flag.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
