// Histogram buckets/percentiles, registry epoch semantics, and the
// cross-run accounting regression: counters (including the process-global
// bulk-copy audit) used to accumulate across repeated System runs in one
// process, so the second run reported cumulative numbers.
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/base/buffer.h"
#include "mermaid/base/stats.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid {
namespace {

TEST(Histogram, EmptyAndSingleValue) {
  base::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0.0);

  h.Add(1.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1.0);
  // Estimate is clamped to observed min/max, so a single value is exact.
  EXPECT_EQ(h.Percentile(0), 1.0);
  EXPECT_EQ(h.Percentile(50), 1.0);
  EXPECT_EQ(h.Percentile(100), 1.0);
}

TEST(Histogram, BucketsBracketTheirValues) {
  EXPECT_EQ(base::Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(base::Histogram::BucketOf(-3.5), 0);
  EXPECT_EQ(base::Histogram::BucketOf(1.0), 22);
  EXPECT_DOUBLE_EQ(base::Histogram::BucketLow(22), 1.0);
  for (double v : {0.005, 0.7, 1.0, 3.0, 42.0, 5000.0}) {
    const int b = base::Histogram::BucketOf(v);
    ASSERT_GE(b, 1);
    ASSERT_LT(b, base::Histogram::kBuckets);
    EXPECT_GE(v, base::Histogram::BucketLow(b)) << v;
    EXPECT_LT(v, base::Histogram::BucketHigh(b)) << v;
  }
}

TEST(Histogram, PercentilesAreMonotoneAndHalfOctaveAccurate) {
  base::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100);
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  const double p99 = h.Percentile(99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Half-octave buckets keep the estimate within ~sqrt(2) of the truth.
  EXPECT_GT(p50, 50 / 1.5);
  EXPECT_LT(p50, 50 * 1.5);
  EXPECT_GT(p90, 90 / 1.5);
  EXPECT_LT(p90, 90 * 1.5);
}

TEST(Histogram, MergeCombinesExactCountSumMinMax) {
  base::Histogram a, b;
  for (int i = 0; i < 10; ++i) a.Add(2.0);
  for (int i = 0; i < 5; ++i) b.Add(8.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 15);
  EXPECT_DOUBLE_EQ(a.sum(), 10 * 2.0 + 5 * 8.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  EXPECT_EQ(a.buckets()[base::Histogram::BucketOf(2.0)], 10);
  EXPECT_EQ(a.buckets()[base::Histogram::BucketOf(8.0)], 5);
}

TEST(StatsRegistry, EpochBaselineReportsRunLocalDeltas) {
  base::StatsRegistry r;
  r.Inc("a", 5);
  r.BeginEpoch();
  r.Inc("a", 3);
  r.Inc("b", 2);
  EXPECT_EQ(r.Count("a"), 8) << "totals keep history";
  EXPECT_EQ(r.CountSinceEpoch("a"), 3) << "epoch view is run-local";
  EXPECT_EQ(r.CountSinceEpoch("b"), 2);
  const auto since = r.CountersSinceEpoch();
  EXPECT_EQ(since.size(), 2u);
  EXPECT_EQ(since.at("a"), 3);
  EXPECT_EQ(since.at("b"), 2);

  const std::uint64_t before = r.epoch();
  r.Clear();
  EXPECT_EQ(r.epoch(), before + 1);
  EXPECT_EQ(r.Count("a"), 0);
  EXPECT_TRUE(r.Counters().empty());
}

// A zero bump still creates the counter: reports list a touched counter
// even when nothing was added to it.
TEST(StatsRegistry, IncByZeroCreatesAListedCounter) {
  base::StatsRegistry r;
  r.Inc("stats_test.zero", 0);
  const auto counters = r.Counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("stats_test.zero"), 0);
  EXPECT_EQ(r.ToString(), "stats_test.zero: 0\n");
}

// Every view is sorted by name, whatever order the names were first
// touched in, and lists only names touched in this registry (not names
// some other registry in the process has used).
TEST(StatsRegistry, ViewsAreNameSortedAndListOnlyOwnNames) {
  base::StatsRegistry other;
  other.Inc("stats_test.other_counter");
  other.Sample("stats_test.other_dist", 1.0);
  other.Hist("stats_test.other_hist", 1.0);

  base::StatsRegistry r;
  for (const char* name : {"stats_test.m", "stats_test.b", "stats_test.z",
                           "stats_test.a"}) {
    r.Inc(name, 2);
  }
  r.Sample("stats_test.d2", 4.0);
  r.Sample("stats_test.d1", 2.0);
  r.Hist("stats_test.h2", 8.0);
  r.Hist("stats_test.h1", 1.0);

  std::vector<std::string> counters, dists, hists;
  for (const auto& [name, v] : r.Counters()) counters.push_back(name);
  for (const auto& [name, d] : r.Dists()) dists.push_back(name);
  for (const auto& [name, h] : r.Hists()) hists.push_back(name);
  EXPECT_EQ(counters, (std::vector<std::string>{"stats_test.a", "stats_test.b",
                                                "stats_test.m",
                                                "stats_test.z"}));
  EXPECT_EQ(dists,
            (std::vector<std::string>{"stats_test.d1", "stats_test.d2"}));
  EXPECT_EQ(hists,
            (std::vector<std::string>{"stats_test.h1", "stats_test.h2"}));
  EXPECT_EQ(r.Count("stats_test.other_counter"), 0);
  EXPECT_EQ(r.DistCopy("stats_test.other_dist").count(), 0);
  EXPECT_EQ(r.HistCopy("stats_test.other_hist").count(), 0);
  EXPECT_EQ(r.ToString(),
            "stats_test.a: 2\n"
            "stats_test.b: 2\n"
            "stats_test.m: 2\n"
            "stats_test.z: 2\n"
            "stats_test.d1: count=1 mean=2 min=2 max=2\n"
            "stats_test.d2: count=1 mean=4 min=4 max=4\n"
            "stats_test.h1: count=1 mean=1 p50=1 p90=1 p99=1 max=1\n"
            "stats_test.h2: count=1 mean=8 p50=8 p90=8 p99=8 max=8\n");
}

TEST(StatsRegistry, MergeSumsCountersAndMergesHistsAndDistsByName) {
  base::StatsRegistry a, b;
  a.Inc("stats_test.shared", 3);
  a.Inc("stats_test.only_a", 1);
  a.Sample("stats_test.dist", 1.0);
  a.Hist("stats_test.hist", 2.0);
  b.Inc("stats_test.shared", 4);
  b.Inc("stats_test.only_b", 0);
  b.Sample("stats_test.dist", 5.0);
  b.Hist("stats_test.hist", 8.0);
  b.Hist("stats_test.hist", 8.0);

  base::StatsRegistry merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.Counters(),
            (std::map<std::string, std::int64_t>{{"stats_test.only_a", 1},
                                                 {"stats_test.only_b", 0},
                                                 {"stats_test.shared", 7}}));
  const base::Distribution d = merged.DistCopy("stats_test.dist");
  EXPECT_EQ(d.count(), 2);
  EXPECT_DOUBLE_EQ(d.sum(), 6.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  const base::Histogram h = merged.HistCopy("stats_test.hist");
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_EQ(h.buckets()[base::Histogram::BucketOf(8.0)], 2);
  // The sources are untouched.
  EXPECT_EQ(a.Count("stats_test.shared"), 3);
  EXPECT_EQ(b.HistCopy("stats_test.hist").count(), 2);
}

TEST(StatsRegistry, ClearForgetsEverythingAndBumpsEpoch) {
  base::StatsRegistry r;
  r.Inc("stats_test.c", 5);
  r.Sample("stats_test.d", 1.0);
  r.Hist("stats_test.h", 1.0);
  r.BeginEpoch();
  const std::uint64_t before = r.epoch();
  r.Clear();
  EXPECT_EQ(r.epoch(), before + 1);
  EXPECT_TRUE(r.Counters().empty());
  EXPECT_TRUE(r.Dists().empty());
  EXPECT_TRUE(r.Hists().empty());
  EXPECT_TRUE(r.CountersSinceEpoch().empty());
  EXPECT_EQ(r.ToString(), "");
  // The epoch baseline went too: a fresh bump counts in full.
  r.Inc("stats_test.c", 2);
  EXPECT_EQ(r.CountSinceEpoch("stats_test.c"), 2);
}

// CountersSinceEpoch drops a zero delta only for a name that had a value
// at BeginEpoch; a name first touched afterwards stays listed even at 0.
TEST(StatsRegistry, CountersSinceEpochDropsZeroDeltasOfBaselinedNames) {
  base::StatsRegistry r;
  r.Inc("stats_test.idle", 4);
  r.Inc("stats_test.moved", 1);
  r.BeginEpoch();
  r.Inc("stats_test.moved", 2);
  r.Inc("stats_test.fresh_zero", 0);
  r.Inc("stats_test.idle", 0);
  EXPECT_EQ(r.CountersSinceEpoch(),
            (std::map<std::string, std::int64_t>{
                {"stats_test.fresh_zero", 0}, {"stats_test.moved", 2}}));
  EXPECT_EQ(r.CountSinceEpoch("stats_test.idle"), 0);
  EXPECT_EQ(r.CountSinceEpoch("stats_test.never"), 0);
}

// The real-time runtime bumps one registry from several OS threads, and
// an endpoint interns its per-class keys on first use from whichever
// thread sends first: interning and bumping must be safe to race.
TEST(StatsRegistry, ConcurrentInterningAndBumpsAgree) {
  base::StatsRegistry r;
  constexpr int kThreads = 4;
  constexpr int kRounds = 512;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kRounds; ++i) {
        const base::StatKey key("stats_test.race." + std::to_string(i % 8));
        r.Inc(key);
        r.Hist("stats_test.race_hist", 1.0);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto counters = r.Counters();
  ASSERT_EQ(counters.size(), 8u);
  for (const auto& [name, v] : counters) {
    EXPECT_EQ(v, kThreads * kRounds / 8) << name;
  }
  EXPECT_EQ(r.HistCopy("stats_test.race_hist").count(), kThreads * kRounds);
}

struct RunResult {
  std::map<std::string, std::int64_t> counters;
  std::int64_t bulk_copies = 0;
  std::string gathered;
  std::string report;
};

// One deterministic heterogeneous run: host 1 (Firefly) writes two pages,
// host 0 (Sun) reads them back (with conversion). Identical every time the
// process runs it — any difference between two runs is leaked global state.
RunResult RunOnce() {
  base::BulkCopyReset();  // run-local copy accounting
  sim::Engine eng;
  dsm::SystemConfig cfg;
  cfg.region_bytes = 1u << 20;
  cfg.page_bytes_override = 8192;
  std::vector<const arch::ArchProfile*> hosts{&arch::Sun3Profile(),
                                              &arch::FireflyProfile()};
  dsm::System sys(eng, cfg, hosts);
  sys.Start();
  const dsm::GlobalAddr page_b = 8192;
  sys.SpawnThread(1, "writer", [&](dsm::Host& h) {
    dsm::GlobalAddr a = sys.Alloc(h.id(), arch::TypeRegistry::kInt, 4096);
    std::vector<std::int32_t> fill(2048, 7);
    h.WriteBlock<std::int32_t>(a, fill.data(), fill.size());
    h.WriteBlock<std::int32_t>(a + page_b, fill.data(), fill.size());
    sys.sync(1).V(1);
  });
  sys.SpawnThread(0, "reader", [&](dsm::Host& h) {
    sys.sync(0).SemInit(1, 0);
    sys.sync(0).P(1);
    h.Touch(0, dsm::Access::kRead);
    h.Touch(page_b, dsm::Access::kRead);
  });
  eng.Run();
  RunResult r;
  r.counters = sys.GatherStats().Counters();
  r.gathered = sys.GatherStats().ToString();
  r.bulk_copies = base::BulkCopyCount();
  r.report = sys.ReportStats();
  return r;
}

TEST(StatsEpoch, SecondSystemRunReportsRunLocalNumbers) {
  const RunResult r1 = RunOnce();
  const RunResult r2 = RunOnce();
  ASSERT_FALSE(r1.counters.empty());
  EXPECT_GT(r1.counters.at("dsm.read_faults"), 0);
  // The regression: before reset/epoch semantics, run 2's counters (and the
  // process-global bulk-copy audit) included run 1's numbers.
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_GT(r1.bulk_copies, 0);
  EXPECT_EQ(r1.bulk_copies, r2.bulk_copies);
}

// Captured from RunOnce before stat keys were interned.
const char* const kPinnedGathered =
    "dsm.bytes_in: 24576\n"
    "dsm.bytes_out: 24576\n"
    "dsm.conversions: 3\n"
    "dsm.convert_cache_misses: 3\n"
    "dsm.converted_elements: 6144\n"
    "dsm.pages_in: 3\n"
    "dsm.pages_served: 3\n"
    "dsm.read_faults: 2\n"
    "dsm.upgrades: 1\n"
    "dsm.vm_faults: 4\n"
    "dsm.write_faults: 2\n"
    "frag.messages_delivered: 13\n"
    "net.bytes_sent: 25389\n"
    "net.packets_sent: 29\n"
    "reqrep.notifies_handled: 1\n"
    "reqrep.notifies_sent: 2\n"
    "reqrep.replies_sent: 6\n"
    "reqrep.requests_handled: 6\n"
    "reqrep.requests_sent: 6\n"
    "reqrep.tx_bytes.alloc: 39\n"
    "reqrep.tx_bytes.confirm: 54\n"
    "reqrep.tx_bytes.read_req: 16536\n"
    "reqrep.tx_bytes.sync: 38\n"
    "reqrep.tx_bytes.type_set: 31\n"
    "reqrep.tx_bytes.write_req: 8256\n"
    "reqrep.tx_msgs.alloc: 2\n"
    "reqrep.tx_msgs.confirm: 2\n"
    "reqrep.tx_msgs.read_req: 4\n"
    "reqrep.tx_msgs.sync: 2\n"
    "reqrep.tx_msgs.type_set: 2\n"
    "reqrep.tx_msgs.write_req: 2\n"
    "dsm.convert_ms: count=3 mean=14.5271 min=10.8954 max=16.343\n"
    "dsm.fault_delay_ms: count=4 mean=42.4293 min=8.5 max=55.1418\n"
    "dsm.fault_handling_r_ms: count=2 mean=1.98 min=1.98 max=1.98\n"
    "dsm.fault_handling_w_ms: count=2 mean=6.7 min=6.7 max=6.7\n"
    "dsm.convert_time_ms: count=3 mean=14.5271 p50=16.343 p90=16.343 p99=16.343 max=16.343\n"
    "dsm.fault_hops: count=4 mean=1.5 p50=2 p90=2 p99=2 max=2\n"
    "dsm.fault_service_ms: count=4 mean=42.4293 p50=53.8174 p90=53.8174 p99=53.8174 max=55.1418\n"
    "dsm.vm_fault_hops: count=4 mean=1.5 p50=2 p90=2 p99=2 max=2\n"
    "dsm.vm_fault_rtts: count=4 mean=0.75 p50=1 p90=1 p99=1 max=1\n"
    "reqrep.rtt_ms: count=6 mean=20.4638 p50=9.51366 p90=34.7188 p99=34.7188 max=34.7188\n";

const char* const kPinnedReport =
    "host   arch         rd-flt   wr-flt  pages-in      KB-in    served   conv\n"
    "0      SUN3              2        0         2         16         1      2\n"
    "1      FIREFLY           0        2         1          8         2      1\n"
    "network: 29 packets, 24 KB, 0 dropped\n"
    "reqrep: 0 retransmits, 0 call timeouts, 0 ms backoff, 0 grants revoked\n"
    "convert-cache: 0 hits, 3 misses, 0 evictions\n"
    "frag: 13 messages delivered, 0 partials expired\n"
    "wire alloc                   2 msgs           39 bytes\n"
    "wire type_set                2 msgs           31 bytes\n"
    "wire read_req                4 msgs        16536 bytes\n"
    "wire write_req               2 msgs         8256 bytes\n"
    "wire confirm                 2 msgs           54 bytes\n"
    "wire sync                    2 msgs           38 bytes\n"
    "hist dsm.fault_service_ms   n=4 mean=42.43 p50=53.82 p90=53.82 p99=53.82 max=55.14\n"
    "hist reqrep.rtt_ms          n=6 mean=20.46 p50=9.51 p90=34.72 p99=34.72 max=34.72\n"
    "hist dsm.convert_time_ms    n=3 mean=14.53 p50=16.34 p90=16.34 p99=16.34 max=16.34\n"
    "hist dsm.fault_hops         n=4 mean=1.50 p50=2.00 p90=2.00 p99=2.00 max=2.00\n"
    "hist dsm.vm_fault_hops      n=4 mean=1.50 p50=2.00 p90=2.00 p99=2.00 max=2.00\n"
    "hist dsm.vm_fault_rtts      n=4 mean=0.75 p50=1.00 p90=1.00 p99=1.00 max=1.00\n"
    "engine: switches=71 fast_resumes=33 procs=9 chans_live=3 chans_created=15\n";

// The whole reporting surface of one small deterministic run, pinned as
// literal text: every counter, distribution and histogram name and value
// in GatherStats, and the ReportStats table. A change to how stats are
// stored or keyed must leave both byte-identical.
TEST(StatsEpoch, GatheredAndReportedTextIsPinned) {
  const RunResult r = RunOnce();
  EXPECT_EQ(r.gathered, kPinnedGathered);
  EXPECT_EQ(r.report, kPinnedReport);
}

TEST(StatsEpoch, FaultLatencyHistogramsSurfaceInReport) {
  const RunResult r = RunOnce();
  EXPECT_NE(r.report.find("hist dsm.fault_service_ms"), std::string::npos)
      << r.report;
  EXPECT_NE(r.report.find("hist reqrep.rtt_ms"), std::string::npos);
  EXPECT_NE(r.report.find("hist dsm.convert_time_ms"), std::string::npos);
}

TEST(StatsEpoch, ResetStatsClearsEverythingIncludingBulkCopyAudit) {
  base::BulkCopyReset();
  sim::Engine eng;
  dsm::SystemConfig cfg;
  cfg.region_bytes = 1u << 20;
  cfg.page_bytes_override = 8192;
  std::vector<const arch::ArchProfile*> hosts{&arch::Sun3Profile(),
                                              &arch::Sun3Profile()};
  dsm::System sys(eng, cfg, hosts);
  sys.Start();
  sys.SpawnThread(1, "writer", [&](dsm::Host& h) {
    dsm::GlobalAddr a = sys.Alloc(h.id(), arch::TypeRegistry::kInt, 2048);
    std::vector<std::int32_t> fill(2048, 1);
    h.WriteBlock<std::int32_t>(a, fill.data(), fill.size());
  });
  sys.SpawnThread(0, "reader", [&](dsm::Host& h) {
    sys.sync(0).SemInit(1, 0);  // exercise the sync path too
    h.Touch(0, dsm::Access::kRead);
  });
  eng.Run();
  ASSERT_FALSE(sys.GatherStats().Counters().empty());

  sys.ResetStats();
  EXPECT_TRUE(sys.GatherStats().Counters().empty());
  EXPECT_EQ(base::BulkCopyCount(), 0);
  EXPECT_EQ(sys.tracer().total_recorded(), 0u);
}

}  // namespace
}  // namespace mermaid
