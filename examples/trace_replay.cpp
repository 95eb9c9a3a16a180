// Record a workload to disk, read it back, replay it against two
// algorithms, and compare their costs — the full life of a trace file.
//
//   $ ./trace_replay [--scenario=drifting-hotspot] [--seed=7] [--out=demo.jsonl]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/mobsrv.hpp"

int main(int argc, char** argv) {
  using namespace mobsrv;
  const io::Args args(argc, argv);
  const std::string scenario = args.get_string("scenario", "drifting-hotspot");
  const auto seed = args.get_uint64("seed", 7);
  const std::string out = args.get_string("out", "trace_replay_demo.jsonl");

  // 1. Build a starter scenario and record the paper's algorithm on it.
  //    Everything — instance, parameters, the run's exact costs — lands in
  //    one serializable TraceFile.
  trace::TraceFile recorded = scenario::starter_trace(scenario, seed, 0.25);
  recorded.runs.push_back(trace::record_run(recorded.instance, "MtC", seed, 1.5));
  trace::write_trace(out, recorded);
  std::cout << "recorded '" << scenario << "' (T = " << recorded.instance.horizon() << ") with "
            << recorded.runs.size() << " run -> " << out << "\n";

  // 2. Read it back (any codec sniffs) and verify the recorded run replays
  //    bit-identically: same engine + same instance = exactly equal costs.
  const trace::TraceFile loaded = trace::read_trace(out);
  const trace::ReplayReport verify = trace::replay(loaded);
  for (const trace::ReplayOutcome& o : verify.outcomes)
    std::cout << "replay " << o.algorithm << ": recorded " << o.recorded_total << ", replayed "
              << o.replayed_total << " -> " << (o.match ? "bit-identical" : "MISMATCH!") << "\n";

  // 3. Re-run the stored workload with a different algorithm and compare —
  //    traces decouple workloads from the strategies that run on them.
  const sim::RunResult mtc = trace::run_on_trace(loaded, "MtC", seed, 1.5);
  const sim::RunResult lazy = trace::run_on_trace(loaded, "Lazy", seed, 1.5);
  std::cout << "\non the stored workload (speed factor 1.5):\n"
            << "  MtC  total cost : " << mtc.total_cost << " (move " << mtc.move_cost
            << " + service " << mtc.service_cost << ")\n"
            << "  Lazy total cost : " << lazy.total_cost << " (move " << lazy.move_cost
            << " + service " << lazy.service_cost << ")\n"
            << "  winner          : " << (mtc.total_cost < lazy.total_cost ? "MtC" : "Lazy")
            << " by a factor " << std::max(mtc.total_cost, lazy.total_cost) /
                                      std::min(mtc.total_cost, lazy.total_cost)
            << "\n";

  std::remove(out.c_str());
  return verify.all_match() ? 0 : 1;
}
