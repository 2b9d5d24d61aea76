// Chaos tests: the full protocol stack under scripted failure injection.
//
// Each scenario drives the system through a correlated failure (sustained
// heavy loss, a network partition that heals, a paused host, a grant whose
// requester goes dark) and asserts three things: every workload terminates,
// the coherence referee stays clean, and at quiescence no manager entry is
// still busy and no transfer is still queued. The network RNG is seeded, so
// every run samples the same interleaving — a passing chaos test is a
// regression test, not a coin flip.
#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/base/rng.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

// Loss-hardened configuration shared by the chaos scenarios: short call
// timeout with many attempts, a fast janitor, and early confirm probes so
// the recovery machinery actually runs inside the test window.
SystemConfig ChaosConfig(std::uint64_t seed, double loss) {
  SystemConfig cfg;
  cfg.region_bytes = 256 * 1024;
  cfg.referee_check_access = true;
  cfg.net.seed = seed;
  cfg.net.loss_probability = loss;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 300;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  return cfg;
}

void ExpectQuiescent(System& sys) {
  const auto q = sys.CheckQuiescent();
  EXPECT_EQ(q.busy_entries, 0u) << "manager entries still busy at quiescence";
  EXPECT_EQ(q.pending_transfers, 0u) << "transfers still queued at quiescence";
}

// Message-passing litmus under sustained 30% loss: retransmission and
// confirm recovery must preserve sequential consistency, not just liveness.
TEST(Chaos, LitmusMessagePassingUnderHeavyLoss) {
  for (int offset = 0; offset <= 30; offset += 10) {
    sim::Engine eng;
    System sys(eng, ChaosConfig(9000 + offset, 0.30),
               {&arch::Sun3Profile(), &arch::FireflyProfile(),
                &arch::FireflyProfile()});
    sys.Start();
    int r1 = -1, r2 = -1;
    sys.SpawnThread(0, "master", [&](Host& h) {
      GlobalAddr x = sys.Alloc(0, Reg::kInt, 1);
      GlobalAddr y = sys.Alloc(0, Reg::kLong, 1);
      h.Write<std::int32_t>(x, 0);
      h.Write<std::int64_t>(y, 0);
      sys.sync(0).SemInit(1, 0);
      sys.SpawnThread(1, "writer", [&, x, y](Host& hh) {
        hh.Compute(100.0 * offset);
        hh.Write<std::int32_t>(x, 1);
        hh.Write<std::int64_t>(y, 1);
        sys.sync(1).V(1);
      });
      sys.SpawnThread(2, "reader", [&, x, y](Host& hh) {
        hh.Compute(3000.0);
        r1 = static_cast<int>(hh.Read<std::int64_t>(y));
        r2 = hh.Read<std::int32_t>(x);
        sys.sync(2).V(1);
      });
      sys.sync(0).P(1);
      sys.sync(0).P(1);
      h.runtime().Delay(Seconds(5));  // let lost confirms replay via probes
    });
    eng.Run();
    EXPECT_FALSE(r1 == 1 && r2 == 0) << "SC violation at offset " << offset;
    ExpectQuiescent(sys);
  }
}

// Random-ops stress under 30% loss with duplication and reordering injected
// on top: unsynchronized reads/writes with per-(host, cell) stamp
// monotonicity and final convergence, referee checking every access.
class ChaosStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosStress, RandomOpsSurviveLossDupAndReorder) {
  const std::uint64_t seed = GetParam();
  sim::Engine eng;
  SystemConfig cfg = ChaosConfig(seed, 0.30);
  constexpr int kHosts = 3;
  std::vector<const arch::ArchProfile*> profiles;
  for (int i = 0; i < kHosts; ++i) {
    profiles.push_back(i % 2 == 0 ? &arch::Sun3Profile()
                                  : &arch::FireflyProfile());
  }
  System sys(eng, cfg, profiles);
  net::FaultPlan plan;
  plan.duplicate_probability = 0.10;
  plan.reorder_probability = 0.10;
  sys.network().SetFaultPlan(plan);
  sys.Start();

  static constexpr int kCells = 16;
  static constexpr int kOps = 20;
  std::atomic<std::int64_t> stamp_counter{1};
  std::vector<std::vector<std::int64_t>> seen(
      kHosts, std::vector<std::int64_t>(kCells, 0));
  std::atomic<bool> monotone{true};

  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kCells * 17);
    h.Write<std::int64_t>(0, 0);
    sys.sync(0).SemInit(1, 0);
    for (int i = 0; i < kHosts; ++i) {
      sys.SpawnThread(i, "rnd" + std::to_string(i), [&, i](Host& hh) {
        base::Rng rng(seed * 977 + i);
        for (int k = 0; k < kOps; ++k) {
          const int cell = static_cast<int>(rng.NextBelow(kCells));
          const GlobalAddr addr = 8ull * 17 * cell;
          if (rng.NextBool(0.4)) {
            hh.Write<std::int64_t>(addr, stamp_counter.fetch_add(1));
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
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  EXPECT_TRUE(monotone.load()) << "a host observed a stale stamp";
  auto& st = sys.GatherStats();
  EXPECT_GT(st.Count("net.packets_dropped"), 0);
  EXPECT_GT(st.Count("net.dup_injected"), 0);
  ExpectQuiescent(sys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosStress, ::testing::Values(1111, 2222));

// A host that owns hot data is partitioned away; writers stall against the
// unreachable owner, the manager's probe machinery revokes the stuck grant,
// and once the partition heals everything completes and reconverges. Also
// exercises the fenced-reply path: the pre-heal grant is disowned, so the
// late owner reply must be discarded and the fault retried.
TEST(Chaos, PartitionHealsAndProtocolRecovers) {
  sim::Engine eng;
  SystemConfig cfg = ChaosConfig(4242, 0.0);
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::Sun3Profile()});
  net::FaultPlan plan;
  net::FaultPlan::Partition part;
  part.group = {2};
  part.from = Seconds(1);
  part.until = Seconds(5);
  plan.partitions.push_back(part);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  std::atomic<bool> writer_done{false};
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    // Host 2 takes ownership of the page before the partition hits.
    sys.SpawnThread(2, "owner", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    // Host 1 write-faults into the partition window; the owner fetch cannot
    // complete until the heal at 5s.
    sys.SpawnThread(1, "writer", [&, a](Host& hh) {
      hh.runtime().Delay(Seconds(2));
      hh.Write<std::int64_t>(a, 77);
      writer_done = true;
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    EXPECT_EQ(h.Read<std::int64_t>(a), 77);
    h.runtime().Delay(Seconds(3));
  });
  eng.Run();
  EXPECT_TRUE(writer_done.load());
  auto& st = sys.GatherStats();
  EXPECT_GT(st.Count("net.partition_dropped"), 0);
  ExpectQuiescent(sys);
}

// A paused host neither sends nor receives; a write against a page it owns
// blocks for the whole outage and completes right after the resume.
TEST(Chaos, PausedHostResumesAndWritersCatchUp) {
  sim::Engine eng;
  SystemConfig cfg = ChaosConfig(31337, 0.0);
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  std::atomic<bool> went_down{false};
  std::atomic<bool> came_back{false};
  net::FaultPlan plan;
  net::FaultPlan::Outage outage;
  outage.host = 1;
  outage.from = Seconds(1);
  outage.until = Seconds(4);
  outage.on_down = [&] { went_down = true; };
  outage.on_restart = [&] { came_back = true; };
  plan.outages.push_back(outage);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  SimTime write_completed_at = 0;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "owner", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 5);  // host 1 becomes owner pre-outage
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(2));  // mid-outage
    EXPECT_TRUE(sys.network().HostDown(1, h.runtime().Now()));
    h.Write<std::int64_t>(a, 6);  // owner fetch stalls until the resume
    write_completed_at = h.runtime().Now();
    EXPECT_EQ(h.Read<std::int64_t>(a), 6);
    h.runtime().Delay(Seconds(3));
  });
  eng.Run();
  EXPECT_TRUE(went_down.load());
  EXPECT_TRUE(came_back.load());
  EXPECT_GE(write_completed_at, Seconds(4));
  EXPECT_GT(sys.GatherStats().Count("net.outage_dropped"), 0);
  ExpectQuiescent(sys);
}

// Grant-lease recovery, directed: every manager->requester packet is dropped
// for 20s, so the requester can neither receive its grant nor answer confirm
// probes. The lease must expire, the revoked entry must be re-grantable (the
// manager's own retained copy is re-animated for its write), and after the
// drop rule lifts the starved requester must still complete.
TEST(Chaos, GrantLeaseExpiryUnsticksBusyEntry) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 256 * 1024;
  cfg.referee_check_access = true;
  cfg.net.seed = 77;
  cfg.call_timeout = Milliseconds(100);
  cfg.call_max_attempts = 6;  // one Call lasts well under the lease
  cfg.janitor_period = Milliseconds(200);
  cfg.confirm_probe_after = Milliseconds(500);
  cfg.grant_lease = Seconds(10);
  cfg.fault_retry_limit = 20;  // the requester burns rounds while starved
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  net::FaultPlan plan;
  net::FaultPlan::DropRule rule;
  rule.src = 0;
  rule.dst = 1;
  rule.until = Seconds(20);
  plan.drops.push_back(rule);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  std::atomic<bool> starved_writer_done{false};
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "starved", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 1);  // grant issued, reply dropped for 20s
      starved_writer_done = true;
      sys.sync(1).V(1);
    });
    // Mid-starvation (after the lease expired) the manager's own write must
    // go through instead of deadlocking behind the dead grant.
    h.runtime().Delay(Seconds(12));
    h.Write<std::int64_t>(a, 2);
    sys.sync(0).P(1);
    // Convergence after the rule lifts.
    auto final_value = std::make_shared<std::int64_t>(h.Read<std::int64_t>(a));
    sys.SpawnThread(1, "check", [&sys, a, final_value](Host& hh) {
      EXPECT_EQ(hh.Read<std::int64_t>(a), *final_value);
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(3));
  });
  eng.Run();
  EXPECT_TRUE(starved_writer_done.load());
  auto& st = sys.GatherStats();
  // Exact janitor oracle: the starved requester's grants draw a probe on
  // each 200 ms tick while the manager's messages to it are dropped, and one
  // lease expires, so a change in which entries a tick visits, or when,
  // moves these counts.
  EXPECT_EQ(st.Count("dsm.grant_lease_expired"), 1);
  EXPECT_EQ(st.Count("dsm.grants_revoked"), 3);
  EXPECT_EQ(st.Count("dsm.confirm_probes"), 96);
  EXPECT_GT(st.Count("net.rule_dropped"), 0);
  ExpectQuiescent(sys);
}

// sync::Client P/V under 35% loss: the semaphore stays a correct mutex —
// duplicate-suppressed exactly-once server ops, no lost wakeups.
TEST(Chaos, SyncMutexHoldsUnderHeavyLoss) {
  sim::Engine eng;
  System sys(eng, ChaosConfig(555, 0.35),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  std::atomic<int> in_cs{0};
  std::atomic<bool> exclusive{true};
  std::atomic<int> entries{0};
  sys.SpawnThread(0, "master", [&](Host&) {
    sys.sync(0).SemInit(3, 1);  // mutex
    sys.sync(0).SemInit(4, 0);  // done
    for (int i = 1; i <= 2; ++i) {
      sys.SpawnThread(i, "worker" + std::to_string(i), [&, i](Host& hh) {
        for (int k = 0; k < 10; ++k) {
          sys.sync(i).P(3);
          if (in_cs.fetch_add(1) != 0) exclusive = false;
          ++entries;
          hh.Compute(200);
          in_cs.fetch_sub(1);
          sys.sync(i).V(3);
        }
        sys.sync(i).V(4);
      });
    }
    sys.sync(0).P(4);
    sys.sync(0).P(4);
  });
  eng.Run();
  EXPECT_TRUE(exclusive.load()) << "two threads inside the critical section";
  EXPECT_EQ(entries.load(), 20);
}

// CentralClient read/write under 35% loss: every write lands exactly once
// and reads return the last written value.
TEST(Chaos, CentralServerReadWriteUnderHeavyLoss) {
  sim::Engine eng;
  System sys(eng, ChaosConfig(808, 0.35),
             {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();
  sys.SpawnThread(0, "master", [&](Host&) {
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "remote", [&](Host& hh) {
      CentralClient& cc = sys.central(hh.id());
      for (int i = 0; i < 16; ++i) {
        cc.Write<std::int64_t>(8ull * i, 1000 + i);
      }
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(cc.Read<std::int64_t>(8ull * i), 1000 + i);
      }
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
  });
  eng.Run();
  EXPECT_EQ(sys.central_server().stats().Count("central.writes"), 16);
}


// Multi-page VM faults under sustained 30% loss: the smallest-page policy
// makes every Sun VM fault acquire a group of DSM pages one by one, and the
// mixed reads and writes must keep per-cell stamp monotonicity and
// converge, with nothing stuck at quiescence. Seeded, so a pass is a
// regression test, not a coin flip.
TEST(Chaos, MultiPageVmFaultsSurviveHeavyLoss) {
  const std::uint64_t seed = 7777;
  sim::Engine eng;
  SystemConfig cfg = ChaosConfig(seed, 0.30);
  cfg.page_policy = PageSizePolicy::kSmallest;
  constexpr int kHosts = 3;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  static constexpr int kCells = 16;
  static constexpr int kOps = 20;
  std::atomic<std::int64_t> stamp_counter{1};
  std::vector<std::vector<std::int64_t>> seen(
      kHosts, std::vector<std::int64_t>(kCells, 0));
  std::atomic<bool> monotone{true};

  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.Alloc(0, Reg::kLong, kCells * 17);
    h.Write<std::int64_t>(0, 0);
    sys.sync(0).SemInit(1, 0);
    for (int i = 0; i < kHosts; ++i) {
      sys.SpawnThread(i, "rnd" + std::to_string(i), [&, i](Host& hh) {
        base::Rng rng(seed * 977 + i);
        for (int k = 0; k < kOps; ++k) {
          const int cell = static_cast<int>(rng.NextBelow(kCells));
          const GlobalAddr addr = 8ull * 17 * cell;
          if (rng.NextBool(0.4)) {
            hh.Write<std::int64_t>(addr, stamp_counter.fetch_add(1));
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
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  EXPECT_TRUE(monotone.load()) << "a host observed a stale stamp";
  auto& st = sys.GatherStats();
  EXPECT_GT(st.Count("net.packets_dropped"), 0);
  // The Sun host's VM faults genuinely spanned several DSM pages each.
  auto& sun = sys.host(0).stats();
  EXPECT_GT(sun.Count("dsm.read_faults") + sun.Count("dsm.write_faults"),
            sun.Count("dsm.vm_faults"));
  ExpectQuiescent(sys);
}

}  // namespace
}  // namespace mermaid::dsm
