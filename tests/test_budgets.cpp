// Allocation budgets: heap allocations counted per unit of work, a gate
// that host noise cannot move. This binary is the only one that replaces
// the global operator new and delete: the counting versions below see every
// allocation of every thread in the process.
//
// A budget is a ratchet: a change that lowers a count lowers its budget,
// and raising one is a gate change.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "serve/service.hpp"
#include "stats/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The array, nothrow and sized forms of libstdc++ forward to these two.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mobsrv {
namespace {

constexpr std::size_t kTenants = 32;
constexpr std::size_t kPerStep = 4;

/// Allocations per served step: lean MtC tenants in d = 2, kPerStep
/// requests per step. It reads 0.008 at one thread (the amortised growth of
/// the workloads and the output) and 0.074 at two (each 32-tenant round
/// hands two tasks to the pool). Before the DOM-free `req` scanner and
/// `outcome` writer it read 25.0, so one extra heap copy per step fails it.
constexpr double kServedStepBudget = 0.25;

/// Serves its chunks one at a time and reports nothing buffered at each
/// chunk's end, as a socket does when a client waits for its replies: the
/// service pumps after every chunk.
class ChunkBuf : public std::streambuf {
 public:
  explicit ChunkBuf(std::vector<std::string> chunks) : chunks_(std::move(chunks)) {}

 protected:
  int_type underflow() override {
    if (next_ == chunks_.size()) return traits_type::eof();
    std::string& chunk = chunks_[next_++];
    setg(chunk.data(), chunk.data(), chunk.data() + chunk.size());
    return traits_type::to_int_type(chunk.front());
  }

 private:
  std::vector<std::string> chunks_;
  std::size_t next_ = 0;
};

/// The open frames, then one chunk per round: a `req` for every tenant.
std::vector<std::string> served_input(std::size_t rounds) {
  stats::Rng rng(17);
  std::vector<std::string> chunks(1);
  for (std::size_t i = 0; i < kTenants; ++i)
    chunks[0] += R"({"type":"open","v":1,"tenant":"t)" + std::to_string(i) +
                 R"(","algorithm":"MtC","dim":2})" + "\n";
  for (std::size_t r = 0; r < rounds; ++r) {
    std::string& chunk = chunks.emplace_back();
    for (std::size_t i = 0; i < kTenants; ++i) {
      chunk += R"({"type":"req","tenant":"t)" + std::to_string(i) + R"(","batch":[)";
      for (std::size_t j = 0; j < kPerStep; ++j) {
        chunk += j == 0 ? "[" : ",[";
        io::append_double(chunk, rng.uniform(-4.0, 4.0));
        chunk += ',';
        io::append_double(chunk, rng.uniform(-4.0, 4.0));
        chunk += ']';
      }
      chunk += "]}\n";
    }
  }
  return chunks;
}

/// Allocations made by a whole Service::run over \p rounds rounds, from
/// construction to destruction.
std::uint64_t allocations_to_serve(std::size_t rounds, unsigned threads) {
  ChunkBuf buf(served_input(rounds));
  std::istream in(&buf);
  std::ostringstream out;
  serve::ServiceOptions options;
  options.threads = threads;
  options.lean = true;
  const std::uint64_t before = g_allocations.load();
  {
    serve::Service service(options);
    EXPECT_EQ(service.run(in, out), serve::ExitReason::kEof);
    EXPECT_EQ(service.mux().totals().steps, rounds * kTenants);
  }
  return g_allocations.load() - before;
}

/// Set-up, the first rounds' buffer growth and the drain are the same in
/// both runs, so the difference is what the extra rounds cost.
double allocations_per_served_step(unsigned threads) {
  constexpr std::size_t kRounds = 256;
  const std::uint64_t base = allocations_to_serve(kRounds, threads);
  const std::uint64_t doubled = allocations_to_serve(2 * kRounds, threads);
  return static_cast<double>(doubled - base) / static_cast<double>(kRounds * kTenants);
}

TEST(AllocationBudget, ServedLeanMtcStep) {
  for (const unsigned threads : {1u, 2u}) {
    const double per_step = allocations_per_served_step(threads);
    std::cout << "threads " << threads << ": " << per_step << " allocations per served step\n";
    EXPECT_LE(per_step, kServedStepBudget) << "threads " << threads;
  }
}

}  // namespace
}  // namespace mobsrv
