// Crash-stop recovery: amnesia restarts, incarnation fencing, and
// manager-state reconstruction under scripted crashes.
//
// Each scenario kills a host mid-protocol (manager mid-transfer, the owner
// of a dirty page, a requester mid-fault, a semaphore holder), restarts it
// with empty state, and asserts the survivors converge: workloads
// terminate, the coherence referee stays clean through the crash and the
// rebuild, and at quiescence no manager entry is busy and no transfer is
// queued. The network RNG is seeded, so a passing run is a regression
// test, not a coin flip.
#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

// Crash-hardened configuration: fixed 1 KB pages (so page->manager mapping
// is known to the tests), recovery on, short call timeout with enough
// attempts to ride out a 2-3 s downtime, and a fast janitor so orphaned
// grants are probed away inside the test window.
SystemConfig RecoveryConfig(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.region_bytes = 256 * 1024;
  cfg.page_bytes_override = 1024;
  cfg.referee_check_access = true;
  cfg.crash_recovery = true;
  cfg.net.seed = seed;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 30;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  return cfg;
}

void ExpectQuiescent(System& sys) {
  const auto q = sys.CheckQuiescent();
  EXPECT_EQ(q.busy_entries, 0u) << "manager entries still busy at quiescence";
  EXPECT_EQ(q.pending_transfers, 0u) << "transfers still queued at quiescence";
}

// The manager of a page dies while a read fault against that page is in
// flight. The requester's call rides retransmits through the downtime, the
// restarted manager rebuilds owner/copyset from the live hosts' claims
// (the writer still owns the page at its post-write version), and the
// fault then completes with the written value.
TEST(Recovery, ManagerCrashMidTransferRebuildsState) {
  sim::Engine eng;
  System sys(eng, RecoveryConfig(61001),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr base = sys.Alloc(0, Reg::kLong, 384);  // pages 0..2
    const GlobalAddr a = base + 1024;                 // page 1: manager = host 1
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(2, "owner", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    // Reader faults against page 1 while its manager is being killed.
    sys.SpawnThread(0, "reader", [&, a](Host& hh) {
      seen = hh.Read<std::int64_t>(a);
      sys.sync(0).V(1);
    });
    h.runtime().Delay(Milliseconds(2));
    sys.CrashAndRestartHost(1, Seconds(2));
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  EXPECT_EQ(seen, 42);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.recovery_queries"), 1);
  EXPECT_GE(st.Count("dsm.recovery_claims"), 1);
  EXPECT_EQ(st.Count("dsm.recovery_pages_lost"), 0);
  ExpectQuiescent(sys);
}

// The sole owner of a dirty page dies: every copy of the data is gone.
// Under the kReinitZero policy the manager re-initializes the page to
// zeroes (counted, never silent) and a later read observes 0, not garbage
// or a wedged protocol.
TEST(Recovery, DirtyOwnerCrashReinitializesLostPage) {
  sim::Engine eng;
  SystemConfig cfg = RecoveryConfig(61002);
  cfg.lost_page_policy = SystemConfig::LostPagePolicy::kReinitZero;
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);  // page 0: manager = host 0
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "dirty-owner", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 7);  // sole copy of the data
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    sys.CrashAndRestartHost(1, Seconds(3));
    sys.SpawnThread(2, "reader", [&, a](Host& hh) {
      hh.runtime().Delay(Milliseconds(500));  // fault while host 1 is down
      seen = hh.Read<std::int64_t>(a);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));
  });
  eng.Run();
  EXPECT_EQ(seen, 0) << "a lost page must re-read as zeroes, not garbage";
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.recovery_pages_lost"), 1);
  EXPECT_GE(st.Count("dsm.owner_lost_detected") +
                st.Count("dsm.owner_lost_reports"),
            1);
  ExpectQuiescent(sys);
}

// Owner crash after multi-page reads, with survivors: host 1 owns a
// 12-page array, the Sun host's large VM faults have fetched read copies of
// all of it, and host 2 is reading when host 1 dies. Every page has a surviving copy,
// so recovery must promote host 0 (live-manager heals for pages it does
// not manage, rebuild promotion for host 1's own pages) and no data may be
// lost or reinitialized.
TEST(Recovery, MultiPageReadCopiesSurviveOwnerCrash) {
  constexpr int kPages = 12;
  sim::Engine eng;
  SystemConfig cfg = RecoveryConfig(61003);
  System sys(eng, cfg,
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::vector<std::int64_t> host2_seen(kPages, -1);
  std::vector<std::int64_t> host0_seen(kPages, -1);
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr base = sys.Alloc(0, Reg::kLong, kPages * 128);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(1, "writer", [&, base](Host& hh) {
      for (int p = 0; p < kPages; ++p) {
        hh.Write<std::int64_t>(base + 1024ull * p, 100 + p);
      }
      sys.sync(1).V(1);
    });
    sys.sync(0).P(1);
    // The Sun host's 8 KB VM faults sweep up the 1 KB DSM pages in groups,
    // leaving host 0 with read copies of the whole array.
    for (int p = 0; p < kPages; ++p) {
      host0_seen[p] = h.Read<std::int64_t>(base + 1024ull * p);
    }
    sys.SpawnThread(2, "reader", [&, base](Host& hh) {
      for (int p = 0; p < kPages; ++p) {
        host2_seen[p] = hh.Read<std::int64_t>(base + 1024ull * p);
      }
      sys.sync(2).V(1);
    });
    h.runtime().Delay(Milliseconds(5));
    sys.CrashAndRestartHost(1, Seconds(2));
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));
  });
  eng.Run();
  for (int p = 0; p < kPages; ++p) {
    EXPECT_EQ(host0_seen[p], 100 + p) << "pre-crash read, page " << p;
    EXPECT_EQ(host2_seen[p], 100 + p)
        << "surviving copy lost across the crash, page " << p;
  }
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.recovery_promotions"), 1);
  EXPECT_EQ(st.Count("dsm.recovery_pages_lost"), 0);
  ExpectQuiescent(sys);
}

// The same host crashes twice, with writes landing between the crashes.
// Each restart must rebuild from the then-current claims; the second
// incarnation's state must not resurrect anything from the first life.
TEST(Recovery, DoubleCrashConverges) {
  sim::Engine eng;
  System sys(eng, RecoveryConfig(61004),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr base = sys.Alloc(0, Reg::kLong, 384);
    const GlobalAddr a = base + 1024;  // page 1: manager = host 1
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(2, "writer1", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 1);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    sys.CrashAndRestartHost(1, Seconds(1));
    h.runtime().Delay(Seconds(3));  // restart + rebuild complete
    sys.SpawnThread(2, "writer2", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 2);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    sys.CrashAndRestartHost(1, Seconds(1));
    h.runtime().Delay(Seconds(3));
    seen = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(5));
  });
  eng.Run();
  EXPECT_EQ(seen, 2);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 2);
  EXPECT_GE(st.Count("dsm.recovery_queries"), 2);
  EXPECT_EQ(st.Count("dsm.recovery_pages_lost"), 0);
  ExpectQuiescent(sys);
}

// A requester dies in the middle of its own write fault (the owner's data
// reply is firewalled so the fault is provably in flight). Its woken fault
// waiter and abandoned call must be fenced against the new incarnation,
// the manager's orphaned grant must be probed away, and the refaulting
// thread must complete the write after the restart.
TEST(Recovery, RequesterCrashMidFaultFencesZombieOps) {
  sim::Engine eng;
  System sys(eng, RecoveryConfig(61005),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  net::FaultPlan plan;
  net::FaultPlan::DropRule rule;  // owner host 2 -> requester host 1
  rule.src = 2;
  rule.dst = 1;
  rule.until = Seconds(1);
  plan.drops.push_back(rule);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  std::atomic<bool> writer_done{false};
  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, Reg::kLong, 1);  // page 0: manager = host 0
    h.Write<std::int64_t>(a, 0);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(2, "owner", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);
      sys.sync(2).V(1);
    });
    sys.sync(0).P(1);
    sys.SpawnThread(1, "doomed-writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 77);  // stalls against the drop rule
      writer_done = true;
      sys.sync(1).V(1);
    });
    h.runtime().Delay(Milliseconds(500));  // fault provably in flight
    sys.CrashAndRestartHost(1, Seconds(2));
    sys.sync(0).P(1);
    seen = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(5));
  });
  eng.Run();
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(seen, 77);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("reqrep.fenced_zombie_calls") +
                st.Count("dsm.fenced_transfers"),
            1)
      << "the pre-crash in-flight op must be fenced, not silently reused";
  EXPECT_EQ(st.Count("dsm.recovery_pages_lost"), 0);
  ExpectQuiescent(sys);
}

// A writer holds a decoded grant in flight across its manager's crash and
// restart: host 3's invalidation ack to the writer is lost until 4 s, and
// every message from the writer to the manager (its rebuild claim, then its
// confirm) is lost from 0.5 s, after its grant request, until 6 s. The
// rebuilt manager adopts the claimed grant as busy once the claim gets
// through; the confirm it was sent is long gone, so its janitor must probe
// the writer, whose replayed confirm commits the write.
TEST(Recovery, RebuiltManagerProbesAdoptedInflightGrant) {
  sim::Engine eng;
  System sys(eng, RecoveryConfig(61007),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile(), &arch::FireflyProfile()});
  net::FaultPlan plan;
  net::FaultPlan::DropRule ack;  // copy holder 3 -> writer 2
  ack.src = 3;
  ack.dst = 2;
  ack.until = Seconds(4);
  plan.drops.push_back(ack);
  net::FaultPlan::DropRule confirm;  // writer 2 -> manager 1
  confirm.src = 2;
  confirm.dst = 1;
  confirm.from = Milliseconds(500);
  confirm.until = Seconds(6);
  plan.drops.push_back(confirm);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  std::int64_t seen = -1;
  sys.SpawnThread(0, "master", [&](Host& h) {
    GlobalAddr base = sys.Alloc(0, Reg::kLong, 384);  // pages 0..2
    const GlobalAddr a = base + 1024;  // page 1: manager = host 1
    h.Write<std::int64_t>(a, 7);
    sys.sync(0).SemInit(1, 0);
    sys.SpawnThread(3, "reader", [&, a](Host& hh) {
      EXPECT_EQ(hh.Read<std::int64_t>(a), 7);  // the copy to invalidate
      sys.sync(3).V(1);
    });
    sys.sync(0).P(1);
    sys.SpawnThread(2, "writer", [&, a](Host& hh) {
      hh.Write<std::int64_t>(a, 42);
      sys.sync(2).V(1);
    });
    h.runtime().Delay(Milliseconds(500));  // grant provably in flight
    sys.CrashAndRestartHost(1, Seconds(2));
    sys.sync(0).P(1);
    seen = h.Read<std::int64_t>(a);
    h.runtime().Delay(Seconds(5));  // confirm/probe drain before quiescence
  });
  eng.Run();
  EXPECT_EQ(seen, 42);
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("dsm.crashes"), 1);
  EXPECT_GE(st.Count("dsm.recovery_inflight_adopted"), 1);
  EXPECT_GE(sys.host(1).stats().Count("dsm.confirm_probes"), 1);
  EXPECT_EQ(st.Count("dsm.recovery_pages_lost"), 0);
  ExpectQuiescent(sys);
}

// A semaphore holder crashes inside its critical section. The sync server
// must break the dead incarnation's hold and hand the grant to the parked
// live waiter instead of leaving the mutex wedged forever.
TEST(Recovery, SemaphoreHolderCrashBreaksLock) {
  sim::Engine eng;
  System sys(eng, RecoveryConfig(61006),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();

  std::atomic<bool> waiter_got_lock{false};
  sys.SpawnThread(0, "master", [&](Host& h) {
    sys.sync(0).SemInit(3, 1);  // mutex
    sys.sync(0).SemInit(4, 0);  // step signal
    sys.SpawnThread(1, "holder", [&](Host&) {
      sys.sync(1).P(3);  // takes the mutex and never releases it
      sys.sync(1).V(4);
    });
    sys.sync(0).P(4);  // holder confirmed inside
    sys.SpawnThread(2, "waiter", [&](Host&) {
      sys.sync(2).P(3);  // parks behind the doomed holder
      waiter_got_lock = true;
      sys.sync(2).V(3);
      sys.sync(2).V(4);
    });
    h.runtime().Delay(Milliseconds(500));  // waiter provably parked
    sys.CrashAndRestartHost(1, Seconds(1));
    sys.sync(0).P(4);  // only reachable if the broken lock was handed over
    h.runtime().Delay(Seconds(3));
  });
  eng.Run();
  EXPECT_TRUE(waiter_got_lock.load());
  auto& st = sys.GatherStats();
  EXPECT_EQ(st.Count("sync.broken_locks"), 1);
  ExpectQuiescent(sys);
}

}  // namespace
}  // namespace mermaid::dsm
