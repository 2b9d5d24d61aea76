// Directory scale-out: the sharded distributed-manager placement.
//
// Covers the two placements behind dsm::Directory (fixed and consistent-hash
// sharded): pinned ring maps, stride de-aliasing, the full protocol over the
// ring, and a chaos scenario under 30% loss with a crash of the
// shard-heaviest host, run twice to prove the stack is still deterministic.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/base/rng.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

#include "digest.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

void ExpectQuiescent(System& sys) {
  const auto q = sys.CheckQuiescent();
  EXPECT_EQ(q.busy_entries, 0u) << "manager entries still busy at quiescence";
  EXPECT_EQ(q.pending_transfers, 0u) << "transfers still queued at quiescence";
}

SystemConfig DirConfig(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  cfg.page_bytes_override = 1024;
  cfg.referee_check_access = true;
  cfg.net.seed = seed;
  return cfg;
}

// FNV-1a of "m0,m1,...," where m_p = BaseManagerOf(p) in decimal.
std::uint64_t PlacementDigest(const Placement& pl) {
  std::string s;
  for (PageNum p = 0; p < pl.num_pages(); ++p) {
    s += std::to_string(pl.BaseManagerOf(p));
    s += ',';
  }
  return testutil::Fnv1a(s);
}

// The ring is a pure function of (num_hosts, shards): it must keep mapping
// every page to the same base manager it always did. The digests were taken
// from the per-host ring the shared Placement replaced; PagesOf must
// partition the pages into ascending per-host runs that agree with
// BaseManagerOf.
TEST(DirScale, PlacementReproducesPinnedShardMaps) {
  struct Case {
    SystemConfig::DirectoryMode mode;
    std::uint32_t shards;
    std::uint16_t hosts;
    PageNum pages;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {SystemConfig::DirectoryMode::kSharded, 8, 64, 4096,
       0x49778ee06cb68752ull},
      // The perfbench fleet_zipf / bench_directory fleet.
      {SystemConfig::DirectoryMode::kSharded, 32, 256, 16384,
       0x976a4c34cdeb1b7eull},
      // The DirChaos config (8 is the default shards per host).
      {SystemConfig::DirectoryMode::kSharded, 8, 8, 64,
       0x988ed7b4b1cb369bull},
  };
  for (const Case& c : cases) {
    SystemConfig cfg;
    cfg.directory_mode = c.mode;
    cfg.directory_shards_per_host = c.shards;
    const Placement pl(cfg, c.hosts, c.pages);
    ASSERT_EQ(pl.num_hosts(), c.hosts);
    ASSERT_EQ(pl.num_pages(), c.pages);
    EXPECT_EQ(PlacementDigest(pl), c.digest)
        << c.hosts << " hosts x " << c.shards << " shards x " << c.pages
        << " pages";
    std::vector<int> seen(c.pages, 0);
    for (net::HostId h = 0; h < c.hosts; ++h) {
      const auto pages = pl.PagesOf(h);
      for (std::size_t i = 0; i < pages.size(); ++i) {
        ASSERT_LT(pages[i], c.pages);
        if (i > 0) {
          ASSERT_LT(pages[i - 1], pages[i]) << "host " << h;
        }
        ASSERT_EQ(pl.BaseManagerOf(pages[i]), h) << "page " << pages[i];
        ++seen[pages[i]];
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(c.pages))
        << "PagesOf must list every page exactly once";
  }
}

// The motivating pathology: pages touched at stride N/4 alias onto
// gcd-many managers under p % N (4 hosts carry everything), while the
// hashed ring spreads the same page set across most of the fleet.
TEST(DirScale, ShardedRingBreaksStrideAliasing) {
  SystemConfig cfg;
  constexpr std::uint16_t kHosts = 64;
  constexpr PageNum kPages = 64 * 256;
  constexpr PageNum kStride = kHosts / 4;  // 16
  const Placement fixed(cfg, kHosts, kPages);
  cfg.directory_mode = SystemConfig::DirectoryMode::kSharded;
  const Placement sharded(cfg, kHosts, kPages);

  std::set<net::HostId> fixed_mgrs, sharded_mgrs;
  for (PageNum p = 0; p < kPages; p += kStride) {
    fixed_mgrs.insert(fixed.BaseManagerOf(p));
    sharded_mgrs.insert(sharded.BaseManagerOf(p));
  }
  EXPECT_EQ(fixed_mgrs.size(), 4u) << "p % N must alias stride-N/4 pages";
  EXPECT_GE(sharded_mgrs.size(), 32u)
      << "the ring must spread the strided set across the fleet";

  // Whole-region balance: no host's shard load may dwarf the mean.
  std::vector<std::uint32_t> load(kHosts, 0);
  for (PageNum p = 0; p < kPages; ++p) ++load[sharded.BaseManagerOf(p)];
  const std::uint32_t mean = kPages / kHosts;
  for (std::uint16_t h = 0; h < kHosts; ++h) {
    EXPECT_LE(load[h], 6 * mean) << "host " << h << " melts under its shards";
  }
}

// Sharded end-to-end: the full protocol runs against ring placement —
// values converge, the referee stays clean, nothing is left busy.
TEST(DirScale, ShardedEndToEndConverges) {
  sim::Engine eng;
  SystemConfig cfg = DirConfig(71001);
  cfg.directory_mode = SystemConfig::DirectoryMode::kSharded;
  constexpr int kHosts = 4;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile(), &arch::FireflyProfile()});
  sys.Start();

  static constexpr int kCells = 16;
  std::atomic<std::int64_t> stamp{1};
  std::atomic<bool> monotone{true};
  std::vector<std::vector<std::int64_t>> seen(
      kHosts, std::vector<std::int64_t>(kCells, 0));
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kCells * 17);
    h.Write<std::int64_t>(0, 0);
    sys.sync(0).SemInit(1, 0);
    for (int i = 0; i < kHosts; ++i) {
      sys.SpawnThread(i, "rnd" + std::to_string(i), [&, i](Host& hh) {
        base::Rng rng(71001 * 977 + i);
        for (int k = 0; k < 24; ++k) {
          const int cell = static_cast<int>(rng.NextBelow(kCells));
          const GlobalAddr addr = 8ull * 17 * cell;
          if (rng.NextBool(0.4)) {
            hh.Write<std::int64_t>(addr, stamp.fetch_add(1));
          } else {
            const std::int64_t v = hh.Read<std::int64_t>(addr);
            if (v < seen[i][cell]) monotone = false;
            seen[i][cell] = std::max(seen[i][cell], v);
          }
          hh.Compute(rng.NextBelow(300));
        }
        sys.sync(i).V(1);
      });
    }
    for (int i = 0; i < kHosts; ++i) sys.sync(0).P(1);
    auto final_values = std::make_shared<std::vector<std::int64_t>>(kCells);
    for (int cell = 0; cell < kCells; ++cell) {
      (*final_values)[cell] = h.Read<std::int64_t>(8ull * 17 * cell);
    }
    for (int i = 1; i < kHosts; ++i) {
      sys.SpawnThread(i, "check" + std::to_string(i),
                      [&sys, i, final_values](Host& hh) {
                        for (int cell = 0; cell < kCells; ++cell) {
                          EXPECT_EQ(hh.Read<std::int64_t>(8ull * 17 * cell),
                                    (*final_values)[cell])
                              << "host " << i << " cell " << cell;
                        }
                        sys.sync(i).V(1);
                      });
    }
    for (int i = 1; i < kHosts; ++i) sys.sync(0).P(1);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  EXPECT_TRUE(monotone.load());
  ExpectQuiescent(sys);
}

// A host's page table makes a chunk only for pages it manages (the Host
// constructor seeds those) or touches, not for the whole region. 64 hosts
// on the ring, 4,096 1-KB pages: each worker stamps its own hot pages and
// re-reads a zipf-skewed sample of the hot set, which is strided over the
// region. Then a host crashes and restarts, and its rebuild queries every
// survivor's claims: that scan reads the tables without growing them.
TEST(DirScale, PageTableChunksTrackManagedAndTouchedPages) {
  constexpr int kHosts = 64;
  constexpr PageNum kPages = 64 * kHosts;
  constexpr int kHot = 256;
  constexpr int kRounds = 3;
  constexpr int kReads = 4;
  constexpr net::HostId kVictim = 17;
  const auto hot_page = [](int j) { return static_cast<PageNum>(15 * j + 7); };

  sim::Engine eng;
  SystemConfig cfg = DirConfig(74001);
  cfg.region_bytes = static_cast<std::uint64_t>(kPages) * 1024;
  cfg.directory_mode = SystemConfig::DirectoryMode::kSharded;
  cfg.crash_recovery = true;
  cfg.lost_page_policy = SystemConfig::LostPagePolicy::kReinitZero;
  System sys(eng, cfg,
             std::vector<const arch::ArchProfile*>(kHosts,
                                                   &arch::FireflyProfile()));
  ASSERT_EQ(sys.page_bytes(), 1024u);
  sys.Start();

  std::vector<std::set<PageNum>> touched(kHosts);
  std::vector<std::size_t> settled(kHosts), after_recovery(kHosts);
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kInt, cfg.region_bytes / 4);
    sys.sync(0).SemInit(1, 0);
    for (int w = 1; w < kHosts; ++w) {
      sys.SpawnThread(w, "zipf" + std::to_string(w), [&, w](Host& hh) {
        base::Rng rng(74001 * 977 + w);
        for (int r = 0; r < kRounds; ++r) {
          for (int j = w - 1; j < kHot; j += kHosts - 1) {
            touched[w].insert(hot_page(j));
            hh.Write<std::int32_t>(1024ull * hot_page(j), r * 1000 + j);
          }
          for (int k = 0; k < kReads; ++k) {
            const double u = rng.NextDouble();
            const PageNum p = hot_page(static_cast<int>(u * u * kHot));
            touched[w].insert(p);
            (void)hh.Read<std::int32_t>(1024ull * p);
          }
        }
        sys.sync(w).V(1);
      });
    }
    for (int w = 1; w < kHosts; ++w) sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));  // confirm drain
    for (int i = 0; i < kHosts; ++i) {
      settled[i] = sys.host(i).PageChunksInUse();
    }
    sys.CrashAndRestartHost(kVictim, Seconds(1));
    h.runtime().Delay(Seconds(10));  // restart + rebuild
    for (int i = 0; i < kHosts; ++i) {
      after_recovery[i] = sys.host(i).PageChunksInUse();
    }
  });
  eng.Run();
  auto& st = sys.GatherStats();
  ASSERT_EQ(st.Count("dsm.crashes"), 1);
  ASSERT_EQ(st.HistCopy("dsm.recovery_ms").count(), 1);

  const Placement placement(cfg, kHosts, kPages);
  for (int i = 0; i < kHosts; ++i) {
    std::set<PageNum> chunks;
    for (PageNum p : placement.PagesOf(i)) {
      chunks.insert(p / PageTable::kChunkPages);
    }
    for (PageNum p : touched[i]) chunks.insert(p / PageTable::kChunkPages);
    EXPECT_LE(settled[i], chunks.size()) << "host " << i;
    if (i != kVictim) {
      EXPECT_EQ(after_recovery[i], settled[i])
          << "host " << i << ": the recovery query made chunks";
    }
  }
  ExpectQuiescent(sys);
}

// ---------------------------------------------------------------------------
// Chaos on the sharded directory: crash recovery, 30% loss, zipf-skewed
// access, and a crash of the shard-heaviest host mid-run. The scenario runs
// twice and must produce byte-identical results and stats — the whole stack
// stays deterministic under chaos.

struct ChaosOutcome {
  std::vector<std::int64_t> finals;
  std::int64_t crashes = 0;
  std::int64_t dropped = 0;
  bool monotone = true;
};

ChaosOutcome RunDirChaos(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  cfg.page_bytes_override = 1024;
  cfg.referee_check_access = true;
  cfg.net.seed = seed;
  cfg.net.loss_probability = 0.30;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 300;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  cfg.directory_mode = SystemConfig::DirectoryMode::kSharded;
  cfg.crash_recovery = true;
  cfg.lost_page_policy = SystemConfig::LostPagePolicy::kReinitZero;

  constexpr int kHosts = 8;
  constexpr int kCells = 24;
  constexpr int kOps = 16;
  constexpr PageNum kPages = 64;

  // The crash victim is the shard-heaviest host (most base-managed pages)
  // among hosts 1..N-1 — host 0 carries the sync server.
  const Placement placement(cfg, kHosts, kPages);
  std::vector<std::uint32_t> load(kHosts, 0);
  for (PageNum p = 0; p < kPages; ++p) ++load[placement.BaseManagerOf(p)];
  net::HostId victim = 1;
  for (net::HostId h = 2; h < kHosts; ++h) {
    if (load[h] > load[victim]) victim = h;
  }

  sim::Engine eng;
  std::vector<const arch::ArchProfile*> profiles;
  for (int i = 0; i < kHosts; ++i) {
    profiles.push_back(i % 2 == 0 ? &arch::Sun3Profile()
                                  : &arch::FireflyProfile());
  }
  System sys(eng, cfg, profiles);
  sys.Start();

  ChaosOutcome out;
  out.finals.resize(kCells, -1);
  std::atomic<std::int64_t> stamp{1};
  std::atomic<bool> monotone{true};
  std::vector<std::vector<std::int64_t>> seen(
      kHosts, std::vector<std::int64_t>(kCells, 0));

  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kCells * 17);
    h.Write<std::int64_t>(0, 0);
    sys.sync(0).SemInit(1, 0);
    for (int i = 0; i < kHosts; ++i) {
      if (i == victim) continue;  // its threads would die with the crash
      sys.SpawnThread(i, "zipf" + std::to_string(i), [&, i](Host& hh) {
        base::Rng rng(seed * 977 + i);
        for (int k = 0; k < kOps; ++k) {
          // Zipf-ish skew: u^2 biases hard toward cell 0 — the hot pages
          // concentrate on a few managers.
          const double u = rng.NextBelow(1000) / 1000.0;
          const int cell = static_cast<int>(kCells * u * u * 0.999);
          const GlobalAddr addr = 8ull * 17 * cell;
          if (rng.NextBool(0.4)) {
            hh.Write<std::int64_t>(addr, stamp.fetch_add(1));
          } else {
            const std::int64_t v = hh.Read<std::int64_t>(addr);
            if (v < seen[i][cell]) monotone = false;
            seen[i][cell] = std::max(seen[i][cell], v);
          }
          hh.Compute(rng.NextBelow(300));
        }
        sys.sync(i).V(1);
      });
    }
    h.runtime().Delay(Milliseconds(50));  // crash lands mid-workload
    sys.CrashAndRestartHost(victim, Seconds(2));
    for (int i = 0; i < kHosts; ++i) {
      if (i != victim) sys.sync(0).P(1);
    }
    h.runtime().Delay(Seconds(4));  // restart + recovery drain
    for (int cell = 0; cell < kCells; ++cell) {
      out.finals[cell] = h.Read<std::int64_t>(8ull * 17 * cell);
    }
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  out.monotone = monotone.load();
  auto& st = sys.GatherStats();
  out.crashes = st.Count("dsm.crashes");
  out.dropped = st.Count("net.packets_dropped");
  EXPECT_EQ(out.crashes, 1);
  EXPECT_GT(out.dropped, 0);
  ExpectQuiescent(sys);
  return out;
}

TEST(DirChaos, ZipfSkewSurvivesHotShardCrash) {
  const ChaosOutcome a = RunDirChaos(73001);
  EXPECT_TRUE(a.monotone) << "a host observed a stale stamp";
  const ChaosOutcome b = RunDirChaos(73001);
  EXPECT_EQ(a.finals, b.finals) << "chaos run is not deterministic";
  EXPECT_EQ(a.dropped, b.dropped);
}

}  // namespace
}  // namespace mermaid::dsm
