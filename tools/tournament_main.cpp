/// \file tournament_main.cpp
/// mobsrv_tournament — rank every fleet algorithm over a scenario corpus.
///
/// Loads and validates a directory of scenario files (src/scenario/), runs
/// every rostered algorithm on every scenario as time-sliced pool tasks, and
/// prints an Elo leaderboard — markdown by default, the full
/// machine-readable report with --json. The output is byte-identical
/// at any --threads/--chunk value, so CI can diff two runs to assert
/// determinism. Exit codes follow docs/CLI.md: 0 success, 1 runtime
/// failure (unreadable corpus, malformed scenario), 2 usage error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "io/args.hpp"
#include "io/cli.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/tournament.hpp"

namespace {

using namespace mobsrv;

void print_usage(std::ostream& out) {
  out << "usage: mobsrv_tournament --corpus=DIR [options]\n"
         "\n"
         "Runs every rostered fleet algorithm over every scenario file of a\n"
         "corpus directory and prints an Elo-style leaderboard.\n"
         "\n"
         "options:\n"
         "  --corpus=DIR        directory of *.json scenario files (required)\n"
         "  --only=a,b          run only the named scenarios\n"
         "  --algorithms=a,b    roster (default: every registered fleet algorithm)\n"
         "  --chunk=N           scenarios whose cells are still running (default 8)\n"
         "  --threads=N         worker threads (default: hardware concurrency)\n"
         "  --seed=N            algorithm seed; workloads keep their file seeds (default 0)\n"
         "  --json              print the full JSON report instead of markdown\n"
         "  --out=PATH          also write the JSON report to PATH\n"
         "  --help              show this help\n";
}

int run(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(std::cout);
    return 0;
  }
  io::require_known_flags(
      args, {"corpus", "only", "algorithms", "chunk", "threads", "seed", "json", "out"});
  io::require_no_positionals(args);
  if (!args.has("corpus")) throw ContractViolation("missing required flag --corpus=DIR");

  scenario::TournamentOptions options;
  options.only = io::split_list(args.get_string("only", ""));
  options.algorithms = io::split_list(args.get_string("algorithms", ""));
  options.seed = args.get_uint64("seed", 0);
  const int chunk = args.get_int("chunk", 8);
  if (chunk < 1) throw ContractViolation("flag --chunk expects a positive integer");
  options.chunk = static_cast<std::size_t>(chunk);
  const int threads = args.get_int("threads", 0);
  if (threads < 0) throw ContractViolation("flag --threads expects a non-negative integer");
  const std::string corpus = args.get_string("corpus", "");
  const bool as_json = args.get_bool("json", false);
  const std::string out_path = args.get_string("out", "");

  par::ThreadPool pool(static_cast<unsigned>(threads));
  const scenario::TournamentResult result = scenario::run_tournament(corpus, pool, options);
  const std::string report = scenario::tournament_to_json(result).dump() + "\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw std::runtime_error(out_path + ": cannot open for writing");
    out << report;
    if (!out) throw std::runtime_error(out_path + ": write failed");
  }

  if (as_json) {
    std::cout << report;
  } else {
    std::cout << "tournament: " << result.scenarios.size() << " scenarios x "
              << result.algorithms.size() << " algorithms (seed " << result.seed << ")\n\n"
              << scenario::leaderboard_markdown(result);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return io::run_cli("mobsrv_tournament", print_usage, [&] { return run(argc, argv); });
}
