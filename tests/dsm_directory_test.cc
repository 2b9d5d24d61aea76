// Directory scale-out: sharded and dynamic distributed managers.
//
// Covers the three placements behind dsm::Directory (fixed, consistent-hash
// sharded, Li-style dynamic with migration), the kOpMgrMigrate handshake
// under concurrent faults, hot-page majority voting, and the recovery
// interplay: forward pointers surviving a crash of the base manager, and
// reclaim of entries whose adopted manager died. The chaos scenario turns
// every knob on at once under 30% loss with a crash of the shard-heaviest
// host, and runs twice to prove the whole stack is still deterministic.
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
      {SystemConfig::DirectoryMode::kDynamic, 8, 8, 64,
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
  // Sharded placement migrates nothing — the dynamic machinery must be cold.
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.mgr_migrations"), 0);
  ExpectQuiescent(sys);
}

// Pure Li dynamic managers (hot-page voting off): every remote writer's
// commit pulls the page's management to it, so a chain of writers leaves a
// forward chain behind and reads still resolve through it.
TEST(DirScale, DynamicMigratesManagementToWriter) {
  sim::Engine eng;
  SystemConfig cfg = DirConfig(71002);
  cfg.directory_mode = SystemConfig::DirectoryMode::kDynamic;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 16);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "writer1", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 10);
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Milliseconds(200));  // let the async migration land
    sys.SpawnThread(2, "writer2", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 20);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Milliseconds(200));
    seen = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  EXPECT_EQ(seen, 20);
  auto& st = sys.GatherStats();
  // At least one of the two remote writes committed against a manager that
  // was not the writer itself, so management moved at least once.
  EXPECT_GE(st.Count("dsm.mgr_migrations"), 1);
  EXPECT_EQ(st.Count("dsm.mgr_migrations"), st.Count("dsm.mgr_migrate_adopted"));
  ExpectQuiescent(sys);
}

// Hot-page detector: only a *dominant* writer (Boyer–Moore vote reaching the
// threshold) pulls management; a page ping-ponged once doesn't move.
TEST(DirScale, HotPageVoteMigratesToDominantWriter) {
  sim::Engine eng;
  SystemConfig cfg = DirConfig(71003);
  cfg.directory_mode = SystemConfig::DirectoryMode::kDynamic;
  cfg.hot_page_migration = true;
  cfg.hot_page_threshold = 4;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 16);
    sys.sync(0).SemInit(1, 0);
    sys.sync(0).SemInit(2, 0);
    sys.sync(0).SemInit(3, 0);
    // Host 1 writes the page 6 times; host 2's interleaved reads downgrade
    // it each round so every write is a fresh manager commit (a vote).
    sys.SpawnThread(1, "hot-writer", [&, a](Host& hh) {
      for (int k = 1; k <= 6; ++k) {
        hh.Write<std::int64_t>(a, k);
        sys.sync(1).V(1);
        sys.sync(1).P(2);
      }
      sys.sync(1).V(3);
    });
    sys.SpawnThread(2, "reader", [&, a](Host& hh) {
      for (int k = 1; k <= 6; ++k) {
        sys.sync(2).P(1);
        EXPECT_EQ(hh.Read<std::int64_t>(a), k);
        sys.sync(2).V(2);
      }
    });
    sys.sync(0).P(3);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  auto& st = sys.GatherStats();
  EXPECT_GE(st.Count("dsm.mgr_migrations"), 1)
      << "six dominant-writer commits must trip a threshold-4 vote";
  ExpectQuiescent(sys);
}

// Migration racing live faults: three unsynchronized writers hammer the
// same page while its management keeps moving. Parked requests must be
// re-dispatched to the new manager (never dropped, never double-granted):
// per-host stamp monotonicity plus final convergence proves it.
TEST(DirScale, MigrateMidFaultCompletes) {
  sim::Engine eng;
  SystemConfig cfg = DirConfig(71004);
  cfg.directory_mode = SystemConfig::DirectoryMode::kDynamic;
  constexpr int kHosts = 3;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::atomic<std::int64_t> stamp{1};
  std::atomic<bool> monotone{true};
  std::vector<std::int64_t> seen(kHosts, 0);
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 16);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    for (int i = 0; i < kHosts; ++i) {
      sys.SpawnThread(i, "hammer" + std::to_string(i), [&, i, a](Host& hh) {
        base::Rng rng(71004 * 977 + i);
        for (int k = 0; k < 30; ++k) {
          if (rng.NextBool(0.5)) {
            hh.Write<std::int64_t>(a, stamp.fetch_add(1));
          } else {
            const std::int64_t v = hh.Read<std::int64_t>(a);
            if (v < seen[i]) monotone = false;
            seen[i] = std::max(seen[i], v);
          }
          hh.Compute(rng.NextBelow(120));
        }
        sys.sync(i).V(1);
      });
    }
    for (int i = 0; i < kHosts; ++i) sys.sync(0).P(1);
    auto final_value = std::make_shared<std::int64_t>(h.Read<std::int64_t>(a));
    for (int i = 1; i < kHosts; ++i) {
      sys.SpawnThread(i, "check" + std::to_string(i),
                      [&sys, a, final_value, i](Host& hh) {
                        EXPECT_EQ(hh.Read<std::int64_t>(a), *final_value)
                            << "host " << i;
                        sys.sync(i).V(1);
                      });
    }
    for (int i = 1; i < kHosts; ++i) sys.sync(0).P(1);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  EXPECT_TRUE(monotone.load()) << "a host observed a stale stamp";
  auto& st = sys.GatherStats();
  EXPECT_GE(st.Count("dsm.mgr_migrations"), 1);
  ExpectQuiescent(sys);
}

// Find a page in [0, pages) whose base manager is 1 or 2 under `cfg`
// (host 0 runs the sync server and must not be crashed).
PageNum PickPageManagedBy(const SystemConfig& cfg, std::uint16_t num_hosts,
                          PageNum pages, net::HostId want) {
  const Placement placement(cfg, num_hosts, pages);
  for (PageNum p = 0; p < pages; ++p) {
    if (placement.BaseManagerOf(p) == want) return p;
  }
  ADD_FAILURE() << "no page managed by host " << want;
  return 0;
}

SystemConfig DirRecoveryConfig(std::uint64_t seed) {
  SystemConfig cfg = DirConfig(seed);
  cfg.directory_mode = SystemConfig::DirectoryMode::kDynamic;
  cfg.crash_recovery = true;
  cfg.lost_page_policy = SystemConfig::LostPagePolicy::kReinitZero;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 30;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  return cfg;
}

// The *base* manager of a migrated page crashes. Its restart rebuilds from
// survivor claims; the live adopted manager's claim must re-establish a
// forward pointer (dsm.recovery_forwards) instead of a competing entry,
// and reads through the base keep resolving.
TEST(DirRecovery, ForwardSurvivesCrashOfBaseManager) {
  SystemConfig cfg = DirRecoveryConfig(72001);
  constexpr PageNum kPages = 64;
  const PageNum p = PickPageManagedBy(cfg, 3, kPages, /*want=*/1);
  const net::HostId base_mgr = 1, writer = 2;

  sim::Engine eng;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kPages * 128);  // whole region
    const GlobalAddr a = 1024ull * p;
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(writer, "writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);  // pulls management base_mgr -> writer
      sys.sync(writer).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Milliseconds(300));  // migration handshake completes
    sys.CrashAndRestartHost(base_mgr, Seconds(1));
    h.runtime().Delay(Seconds(3));  // restart + rebuild
    seen = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(3));
  });
  eng.Run();
  EXPECT_EQ(seen, 42);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.mgr_migrations"), 1);
  EXPECT_GE(st.Count("dsm.recovery_forwards"), 1)
      << "the rebuilt base must forward to the live adopted manager";
  ExpectQuiescent(sys);
}

// The *adopted* manager of a migrated page crashes. The base (holding a
// now-dangling forward pointer) must reclaim the entry via a targeted
// recovery query and promote the surviving read copy — the reader sees the
// pre-crash value, not zeroes.
TEST(DirRecovery, ReclaimAfterAdoptedManagerDeath) {
  SystemConfig cfg = DirRecoveryConfig(72002);
  constexpr PageNum kPages = 64;
  const PageNum p = PickPageManagedBy(cfg, 3, kPages, /*want=*/1);
  const net::HostId base_mgr = 1, writer = 2;
  (void)base_mgr;

  sim::Engine eng;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t pre = -1, post = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kPages * 128);
    const GlobalAddr a = 1024ull * p;
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(writer, "doomed-writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 7);  // management migrates to the writer
      sys.sync(writer).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Milliseconds(300));
    pre = h.Read<std::int64_t>(a);  // host 0 keeps a surviving read copy
    sys.CrashAndRestartHost(writer, Seconds(2));
    h.runtime().Delay(Milliseconds(200));
    // Fault while the adopted manager is down: the base sees its forward
    // point at a dead host and reclaims the entry from survivor claims.
    sys.SpawnThread(0, "reader", [&, a](Host& hh) {
      post = hh.Read<std::int64_t>(a);
      sys.sync(0).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));
  });
  eng.Run();
  EXPECT_EQ(pre, 7);
  EXPECT_EQ(post, 7) << "the surviving copy must be promoted, not reinitialized";
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.mgr_reclaims_run"), 1);
  ExpectQuiescent(sys);
}

// The *adopted* manager of a migrated page crashes while a write grant it
// issued is still in flight: the requester is stuck invalidating a copy
// (the holder's ack is lost until 4 s) and its confirm to the adopted
// manager is lost until 6 s. The base's reclaim must adopt the claimed
// grant as a busy entry its janitor watches, so that a confirm probe or a
// lease expiry unsticks the entry; the written value survives either way.
// Today it is the lease: the requester answers each probe by replaying its
// confirm to the manager recorded at grant time, the crashed one.
TEST(DirRecovery, ReclaimAdoptsClaimedInflightGrant) {
  SystemConfig cfg = DirRecoveryConfig(72003);
  cfg.grant_lease = Seconds(10);
  constexpr PageNum kPages = 64;
  const PageNum p = PickPageManagedBy(cfg, 5, kPages, /*want=*/1);
  const net::HostId base_mgr = 1, adopted = 2, requester = 3, holder = 4;
  net::FaultPlan plan;
  net::FaultPlan::DropRule ack;  // copy holder -> requester
  ack.src = holder;
  ack.dst = requester;
  ack.until = Seconds(4);
  plan.drops.push_back(ack);
  net::FaultPlan::DropRule confirm;  // requester -> adopted manager
  confirm.src = requester;
  confirm.dst = adopted;
  confirm.until = Seconds(6);
  plan.drops.push_back(confirm);

  sim::Engine eng;
  System sys(eng, cfg,
             {&arch::FireflyProfile(), &arch::FireflyProfile(),
              &arch::FireflyProfile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.network().SetFaultPlan(plan);
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kPages * 128);  // whole region
    const GlobalAddr a = 1024ull * p;
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(adopted, "first-writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 7);  // management migrates 1 -> 2
      sys.sync(adopted).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Milliseconds(300));  // migration handshake completes
    sys.SpawnThread(holder, "reader", [&, a](Host& hh) {
      EXPECT_EQ(hh.Read<std::int64_t>(a), 7);  // the copy to invalidate
      sys.sync(holder).V(1);
    });
    sys.sync(0).P(1);
    sys.SpawnThread(requester, "writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);
      sys.sync(requester).V(1);
    });
    h.runtime().Delay(Milliseconds(500));  // grant provably in flight
    sys.CrashAndRestartHost(adopted, Seconds(1));
    sys.sync(0).P(1);
    seen = h.Read<std::int64_t>(a);  // queued behind the adopted grant
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  EXPECT_EQ(seen, 42);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.mgr_reclaims_run"), 1);
  const auto& base = sys.host(base_mgr).stats();
  EXPECT_GE(base.Count("dsm.recovery_inflight_adopted"), 1);
  EXPECT_GE(base.Count("dsm.confirm_probes"), 1)
      << "the janitor must watch the adopted grant";
  ExpectQuiescent(sys);
}

// ---------------------------------------------------------------------------
// Chaos with every directory knob on: dynamic directory + hot-page voting
// + crash recovery, 30% loss, zipf-skewed access, and a crash of the
// shard-heaviest host mid-run. The scenario runs twice and must produce
// byte-identical results and stats — the whole stack stays deterministic
// under chaos.

struct ChaosOutcome {
  std::vector<std::int64_t> finals;
  std::int64_t migrations = 0;
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
  cfg.directory_mode = SystemConfig::DirectoryMode::kDynamic;
  cfg.hot_page_migration = true;
  cfg.hot_page_threshold = 4;
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
          // concentrate on a few managers, which is the scenario the
          // dynamic directory exists for.
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
  out.migrations = st.Count("dsm.mgr_migrations");
  out.crashes = st.Count("dsm.crashes");
  out.dropped = st.Count("net.packets_dropped");
  EXPECT_EQ(out.crashes, 1);
  EXPECT_GT(out.dropped, 0);
  ExpectQuiescent(sys);
  return out;
}

TEST(DirChaos, AllKnobsZipfSkewSurvivesHotShardCrash) {
  const ChaosOutcome a = RunDirChaos(73001);
  EXPECT_TRUE(a.monotone) << "a host observed a stale stamp";
  const ChaosOutcome b = RunDirChaos(73001);
  EXPECT_EQ(a.finals, b.finals) << "chaos run is not deterministic";
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.dropped, b.dropped);
}

// Knobs-off guard: with directory_mode at its default none of the scale-out
// machinery may leave a trace — no migrations, no forwards, no reclaims, no
// extra wire classes. (Bit-identity of Tables 2–4 rides on this.)
TEST(DirScale, KnobsOffLeaveNoTrace) {
  sim::Engine eng;
  SystemConfig cfg = DirConfig(71005);  // directory_mode = kFixed
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 32);
    sys.sync(0).SemInit(1, 0);
    for (int i = 1; i <= 2; ++i) {
      sys.SpawnThread(i, "w" + std::to_string(i), [&, a, i](Host& hh) {
        for (int k = 0; k < 8; ++k) {
          hh.Write<std::int64_t>(a + 8 * k, i * 100 + k);
        }
        sys.sync(i).V(1);
      });
      sys.sync(0).P(1);
    }
    EXPECT_EQ(h.Read<std::int64_t>(a), 200);
    h.runtime().Delay(Seconds(2));
  });
  eng.Run();
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.mgr_migrations"), 0);
  EXPECT_EQ(st.Count("dsm.mgr_forwards"), 0);
  EXPECT_EQ(st.Count("dsm.mgr_reclaims"), 0);
  EXPECT_EQ(st.Count("dsm.mgr_redirects_sent"), 0);
  std::int64_t migrate_msgs = 0;
  for (std::uint16_t h = 0; h < sys.num_hosts(); ++h) {
    migrate_msgs +=
        sys.host(h).endpoint().stats().Count("reqrep.tx_msgs.mgr_migrate");
  }
  EXPECT_EQ(migrate_msgs, 0) << "kOpMgrMigrate must never appear knobs-off";
  ExpectQuiescent(sys);
}

}  // namespace
}  // namespace mermaid::dsm
