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
#include "corpus/site_task.h"
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
/// has filled the process-wide tables. Measured: 13.1 on seed 1, nearly
/// all of it per-scan cost (the worker's fresh scratch growing, its partial
/// report, the merge). The margin covers standard-library growth policies,
/// not a return of per-site costs: the same scan read 27.8 while probe
/// error text, probe options and probe results still allocated per site.
constexpr double kScanSiteBudget = 18;

/// Heap allocations per site of a warm scan worker: one SiteScratch scans
/// the 1/1000 faulted+wiretap specs once, then scans them again into the
/// same partial report, so the report's map entries exist already.
/// Measured: 1.61 on seed 1, the client's header-list and payload slots
/// still growing to the largest blocks they hold (more warm-up passes take
/// it to 0.66 and 0.40) plus the report's sample vectors. The margin stays
/// under one allocation per site, which is what any one per-site cost
/// returning would add: the same worker read 16.5 while probe error text,
/// probe options and probe results allocated.
constexpr double kWarmWorkerSiteBudget = 2.5;

TEST(AllocBudget, WarmScanWorkerStaysUnderItsPerSiteBudget) {
  const corpus::Population pop =
      corpus::generate_population(corpus::Epoch::kExp2, 1, 1000);
  corpus::ScanOptions opts;
  opts.threads = 1;
  opts.fault_injection = true;
  opts.wiretap_metrics = true;
  corpus::SiteScratch scratch;
  corpus::ScanReport report;
  for (const corpus::SiteSpec& spec : pop.sites) {
    corpus::scan_site(spec, opts, report, scratch);
  }
  const std::size_t responding = report.responding_sites;
  const std::uint64_t before = g_allocs.load();
  for (const corpus::SiteSpec& spec : pop.sites) {
    corpus::scan_site(spec, opts, report, scratch);
  }
  const double per_site = static_cast<double>(g_allocs.load() - before) /
                          static_cast<double>(pop.sites.size());
  EXPECT_EQ(report.responding_sites, 2 * responding);
  EXPECT_LT(per_site, kWarmWorkerSiteBudget);
}

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
