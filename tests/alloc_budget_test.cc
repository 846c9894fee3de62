// Allocation budgets for the two steady states that rewrite warm storage
// instead of building new objects: a scan worker moving from site to site,
// and an engine serving request after request on one keep-alive
// connection. This executable replaces the global operator new (as
// perfbench/alloc_hook.cc does) to count heap allocations, so it stands
// alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/client.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace h2r {
namespace {

/// Heap allocations per scanned site of a faulted+wiretap scan of the
/// 1/1000 epoch-2 subsample (82 sites) on one worker, after a first scan
/// has filled the process-wide tables. Measured: 27.8 on seed 1, about 11
/// of it per-scan cost (the worker's fresh scratch growing, its partial
/// report, the merge); a warm worker's site costs about 16. The margin
/// covers standard-library differences, not a return of per-site objects:
/// a Target built per site alone costs about 66.
constexpr double kScanSiteBudget = 35;

TEST(AllocBudget, WarmFaultedScanStaysUnderItsPerSiteBudget) {
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 1, 1000);
  corpus::ScanOptions opts;
  opts.threads = 1;
  opts.fault_injection = true;
  opts.wiretap_metrics = true;
  (void)corpus::scan_population(pop, opts);  // fills process-wide tables
  const std::uint64_t before = g_allocs.load();
  const corpus::ScanReport report = corpus::scan_population(pop, opts);
  const double per_site = static_cast<double>(g_allocs.load() - before) /
                          static_cast<double>(pop.sites.size());
  EXPECT_GT(report.responding_sites, 0u);
  EXPECT_LT(per_site, kScanSiteBudget);
}

/// Runs one lockstep round between @p client and @p server, counting only
/// the allocations the engine's own calls make.
bool engine_round(core::ClientConnection& client, server::Http2Server& server,
                  std::uint64_t& engine_allocs) {
  Bytes c2s = client.take_output();
  std::uint64_t at = g_allocs.load();
  if (!c2s.empty()) server.receive(c2s);
  Bytes s2c = server.take_output();
  engine_allocs += g_allocs.load() - at;
  if (!s2c.empty()) client.receive(s2c);
  const bool moved = !c2s.empty() || !s2c.empty();
  client.recycle(std::move(c2s));
  at = g_allocs.load();
  server.recycle(std::move(s2c));
  engine_allocs += g_allocs.load() - at;
  return moved;
}

TEST(AllocBudget, WarmKeepAliveEngineServesRequestsWithoutAllocating) {
  core::ClientOptions opts;
  opts.keep = core::ClientOptions::Keep::kCompletions;
  core::ClientConnection client(opts);
  server::Http2Server server(server::profile_by_key("nginx"),
                             server::Site::standard_testbed_site());
  std::uint64_t engine_allocs = 0;
  const auto serve = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const std::uint32_t id = client.send_request("/");
      while (engine_round(client, server, engine_allocs)) {
      }
      ASSERT_TRUE(client.stream_complete(id));
    }
  };
  serve(200);  // warm: HPACK tables, stream nodes, buffers
  engine_allocs = 0;
  serve(1000);
  EXPECT_TRUE(server.alive());
  EXPECT_EQ(engine_allocs, 0u);
}

}  // namespace
}  // namespace h2r
